"""Metrics for finished continual runs.

Covers the accuracy trajectory A(<=t) with its Last/AIA summaries, per-task
task-aware (TIL) accuracy, rectified forgetting rates measured against a
jointly trained reference model, rank-based OOD detection AUC per task, and
the AUC-vs-accuracy correlation across score kinds.

The reference ("NCL") model answers: how well would the same architecture do
on tasks 1..t if it had seen them all at once?  It is the same MLP with the
gates pinned fully open, a single head over the pooled classes, and no
replay, trained on the pooled prefix data for the per-task epoch budget.
Forgetting is then the per-task accuracy it keeps over the continual model,
which charges the continual learner for inter-class confusion as well as for
literal forgetting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from . import hat_mlp, scoring
from .data import TaskDataset, TaskStream
from .errors import (
    DegenerateVariance,
    EmptyClassList,
    EmptyTestSet,
    MissingNclPrefix,
)
from .numerics import RngState, stable_mean
from .trainer import RunArtifacts, TrainConfig

#: Tolerance for the AIA-equals-trajectory-mean consistency invariant.
AIA_CONSISTENCY_TOL = 1e-12


# --- plain accuracies -------------------------------------------------------

def cil_accuracy(
    ctx: scoring.ScoringContext,
    datasets: list[TaskDataset],
    score_kind: str = "tpl",
    bundle: scoring.ScoreBundle | None = None,
) -> float:
    """Fraction of pooled test samples classified to the right global class,
    with no task-id given.  ``bundle``, when given, must hold the scores of
    the datasets' test rows pooled in order; it is computed otherwise."""
    xs = [d.test_x for d in datasets if d.test_x.shape[0] > 0]
    ys = [d.test_y for d in datasets if d.test_y.shape[0] > 0]
    if not xs:
        raise EmptyTestSet("no test samples in any supplied dataset")
    if bundle is None:
        bundle = scoring.compute_bundle(ctx, np.concatenate(xs))
    pred = scoring.predict_from_bundle(ctx, bundle, score_kind)
    return float(np.mean(pred.global_class == np.concatenate(ys)))


def til_accuracy(
    ctx: scoring.ScoringContext, task_id: int, dataset: TaskDataset
) -> float:
    """Accuracy with the task-id given: argmax over the task's own classes
    only (its spare unit excluded)."""
    if dataset.test_x.shape[0] == 0:
        raise EmptyTestSet(f"task {task_id} has no test samples")
    classes = np.asarray(ctx.task_classes[task_id], dtype=np.int64)
    _, logits = hat_mlp.forward(ctx.net, dataset.test_x, task_id)
    picked = classes[np.argmax(logits[:, : classes.shape[0]], axis=1)]
    return float(np.mean(picked == dataset.test_y))


# --- trajectory -------------------------------------------------------------

def accuracy_trajectory(
    run: RunArtifacts, score_kind: str = "tpl", calibrated: bool = True
) -> tuple[list[float], dict[int, dict[int, float]]]:
    """Pooled accuracy after each task, plus the full per-task matrix.

    Returns ``(trajectory, per_task)``: ``trajectory[k]`` is the pooled
    accuracy over tasks 1..t_k evaluated at checkpoint t_k, and
    ``per_task[t][i]`` is task i's test accuracy at checkpoint t.  Output
    calibration only exists for the finished run, so intermediate
    checkpoints are evaluated uncalibrated.
    """
    task_ids = run.task_ids()
    trajectory: list[float] = []
    per_task: dict[int, dict[int, float]] = {}
    for t in task_ids:
        ctx = scoring.context_from_run(run, calibrated=calibrated, task_limit=t)
        seen = [d for d in run.stream.tasks if d.task_id <= t]
        x = np.concatenate([d.test_x for d in seen])
        y = np.concatenate([d.test_y for d in seen])
        pred = scoring.predict(ctx, x, score_kind=score_kind)
        correct = pred.global_class == y
        trajectory.append(float(np.mean(correct)))
        sizes = [d.test_x.shape[0] for d in seen]
        bounds = np.cumsum([0] + sizes)
        per_task[t] = {
            d.task_id: float(np.mean(correct[bounds[j] : bounds[j + 1]]))
            for j, d in enumerate(seen)
        }
    return trajectory, per_task


# --- reference model --------------------------------------------------------

@dataclass
class NclReference:
    """Jointly trained reference accuracies, per prefix length.

    ``per_task[t][i]`` is task i's test accuracy under the model trained on
    the pooled data of tasks 1..t; ``pooled[t]`` is its accuracy over the
    pooled prefix test set.
    """

    per_task: dict[int, dict[int, float]]
    pooled: dict[int, float]

    def require_prefix(self, t: int) -> dict[int, float]:
        if t not in self.per_task:
            raise MissingNclPrefix(f"no reference accuracies for prefix {t}")
        return self.per_task[t]


_POOLED_HEAD_KEY = 0  # task ids are 1-based, so 0 is free for the joint head


def train_ncl_reference(
    stream: TaskStream, prefix: int, cfg: TrainConfig, seed: int
) -> tuple[dict[int, float], float]:
    """Train the joint reference for tasks 1..prefix; return its per-task
    and pooled test accuracies.

    Same trunk widths and optimizer as the continual run, but one head over
    all pooled classes, gates pinned fully open (saturated, so they pass
    activations through exactly and receive zero gradient), no gate
    regularizer, and no replay relabeling.
    """
    tasks = [d for d in stream.tasks if d.task_id <= prefix]
    if not tasks:
        raise MissingNclPrefix(f"stream has no tasks at or below {prefix}")
    pooled_classes = [c for d in tasks for c in d.classes]
    class_pos = {c: j for j, c in enumerate(pooled_classes)}
    x = np.concatenate([d.train_x for d in tasks])
    y = np.asarray(
        [class_pos[int(c)] for d in tasks for c in d.train_y], dtype=np.int64
    )

    root = RngState(seed).stream(f"ncl-{prefix}")
    net = hat_mlp.new_hat_mlp(
        stream.dim, tuple(cfg.hidden_widths), cfg.s_max, root.stream("init")
    )
    hat_mlp.add_task(net, _POOLED_HEAD_KEY, len(pooled_classes), root.stream("head"))
    for e in net.embeddings[_POOLED_HEAD_KEY]:
        e[:] = hat_mlp.EMBEDDING_CLAMP

    state = hat_mlp.init_momentum(net, _POOLED_HEAD_KEY)
    n = x.shape[0]
    for epoch in range(cfg.epochs):
        perm = root.stream(f"shuffle-epoch-{epoch}").permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            _, grads = hat_mlp.batch_loss_and_gradients(
                net, x[idx], y[idx], _POOLED_HEAD_KEY, cfg.s_max,
                reg_weight=0.0, mask_others=True,
            )
            hat_mlp.masked_gradient_update(
                net, grads, _POOLED_HEAD_KEY, cfg.learning_rate, cfg.momentum, state
            )

    accs: dict[int, float] = {}
    n_correct = 0
    n_total = 0
    arr = np.asarray(pooled_classes, dtype=np.int64)
    for d in tasks:
        _, logits = hat_mlp.forward(net, d.test_x, _POOLED_HEAD_KEY)
        picked = arr[np.argmax(logits[:, : arr.shape[0]], axis=1)]
        correct = int(np.sum(picked == d.test_y))
        accs[d.task_id] = correct / d.test_y.shape[0]
        n_correct += correct
        n_total += d.test_y.shape[0]
    return accs, n_correct / n_total


def build_ncl_reference(stream: TaskStream, cfg: TrainConfig, seed: int) -> NclReference:
    """Train the joint reference at every prefix length of the stream."""
    per_task: dict[int, dict[int, float]] = {}
    pooled: dict[int, float] = {}
    for d in stream.tasks:
        accs, total = train_ncl_reference(stream, d.task_id, cfg, seed)
        per_task[d.task_id] = accs
        pooled[d.task_id] = total
    return NclReference(per_task=per_task, pooled=pooled)


# --- forgetting -------------------------------------------------------------

def forgetting_rates(
    per_task: dict[int, dict[int, float]], ncl: NclReference
) -> tuple[float, float]:
    """Final forgetting rates relative to the joint reference.

    The Last-style rate averages, over tasks i, how much accuracy task i
    loses at the final checkpoint compared to the reference trained on
    everything at once; the AIA-style rate averages the Last-style rate over
    all prefixes.  Either may be negative when continual training wins.
    """
    prefixes = sorted(per_task)
    last_rates: dict[int, float] = {}
    for t in prefixes:
        ref = ncl.require_prefix(t)
        rows = sorted(per_task[t])
        gaps = []
        for i in rows:
            if i not in ref:
                raise MissingNclPrefix(
                    f"reference for prefix {t} lacks task {i}"
                )
            gaps.append(ref[i] - per_task[t][i])
        last_rates[t] = stable_mean(gaps)
    final = prefixes[-1]
    f_aia = stable_mean([last_rates[t] for t in prefixes])
    return last_rates[final], f_aia


# --- OOD detection ----------------------------------------------------------

def ood_auc(ind_scores: np.ndarray, ood_scores: np.ndarray) -> float:
    """Probability that a random in-distribution score outranks a random
    out-of-distribution one (ties count half): the rank-sum statistic."""
    ind = np.asarray(ind_scores, dtype=np.float64).ravel()
    ood = np.asarray(ood_scores, dtype=np.float64).ravel()
    if ind.size == 0 or ood.size == 0:
        raise EmptyClassList("need at least one score on each side")
    ranks = rankdata(np.concatenate([ind, ood]))
    rank_sum = float(np.sum(ranks[: ind.size]))
    return (rank_sum - ind.size * (ind.size + 1) / 2.0) / (ind.size * ood.size)


def task_ood_aucs(
    ctx: scoring.ScoringContext,
    stream: TaskStream,
    score_kind: str = "tpl",
    bundle: scoring.ScoreBundle | None = None,
) -> tuple[dict[int, float], float]:
    """Per-task detection AUC: each task's own test samples are the
    in-distribution side, every other task's the out side.  ``bundle``, when
    given, must hold the scores of the stream's test rows pooled in task
    order; it is computed otherwise."""
    sizes = [d.test_x.shape[0] for d in stream.tasks]
    bounds = np.cumsum([0] + sizes)
    if bundle is None:
        bundle = scoring.compute_bundle(
            ctx, np.concatenate([d.test_x for d in stream.tasks])
        )
    matrix = scoring.task_score_matrix(ctx, bundle, score_kind)
    aucs: dict[int, float] = {}
    for j, d in enumerate(stream.tasks):
        col = matrix[:, j]
        mask = np.zeros(matrix.shape[0], dtype=bool)
        mask[bounds[j] : bounds[j + 1]] = True
        aucs[d.task_id] = ood_auc(col[mask], col[~mask])
    return aucs, stable_mean(list(aucs.values()))


def auc_acc_correlation(pairs: list[tuple[float, float]]) -> tuple[float, float]:
    """Pearson r and least-squares slope of accuracy on detection AUC."""
    if len(pairs) < 3:
        raise ValueError("need at least 3 (auc, accuracy) pairs")
    a = np.array([p[0] for p in pairs], dtype=np.float64)
    b = np.array([p[1] for p in pairs], dtype=np.float64)
    da = a - a.mean()
    db = b - b.mean()
    var_a = float(np.dot(da, da))
    var_b = float(np.dot(db, db))
    if var_a == 0.0 or var_b == 0.0:
        raise DegenerateVariance("a coordinate is constant; r is undefined")
    cov = float(np.dot(da, db))
    return cov / np.sqrt(var_a * var_b), cov / var_a


# --- report -----------------------------------------------------------------

@dataclass
class MetricsReport:
    """Complete metric bundle for one finished run."""

    trajectory: list[float]
    a_last: float
    a_aia: float
    til: dict[int, float]
    ood: dict[int, float]
    ood_mean: float | None
    per_task: dict[int, dict[int, float]]
    f_cil_last: float | None = None
    f_cil_aia: float | None = None
    pearson_r: float | None = None

    def validate(self) -> None:
        for v in self.trajectory:
            assert 0.0 <= v <= 1.0
        for v in list(self.til.values()) + [self.a_last]:
            assert 0.0 <= v <= 1.0
        assert abs(self.a_aia - stable_mean(self.trajectory)) <= AIA_CONSISTENCY_TOL

    def as_dict(self) -> dict:
        return {
            "trajectory": self.trajectory,
            "a_last": self.a_last,
            "a_aia": self.a_aia,
            "til": {str(t): v for t, v in sorted(self.til.items())},
            "ood": {str(t): v for t, v in sorted(self.ood.items())},
            "ood_mean": self.ood_mean,
            "per_task": {
                str(t): {str(i): v for i, v in sorted(row.items())}
                for t, row in sorted(self.per_task.items())
            },
            "f_cil_last": self.f_cil_last,
            "f_cil_aia": self.f_cil_aia,
            "pearson_r": self.pearson_r,
        }


def compute_report(
    run: RunArtifacts,
    ncl: NclReference | None = None,
    score_kind: str = "tpl",
    calibrated: bool = True,
    trajectory: tuple[list[float], dict[int, dict[int, float]]] | None = None,
) -> MetricsReport:
    """All metrics for a finished run (forgetting only when a reference is
    supplied; detection AUC only when the run has more than one task).

    ``trajectory`` is ``accuracy_trajectory``'s result stored at train time;
    without it the trajectory is recomputed from the run's checkpoints."""
    if trajectory is None:
        trajectory = accuracy_trajectory(run, score_kind, calibrated)
    accs, per_task = trajectory
    ctx = scoring.context_from_run(run, calibrated=calibrated)
    til = {
        d.task_id: til_accuracy(ctx, d.task_id, d) for d in run.stream.tasks
    }
    ood, ood_mean = {}, None
    if len(run.stream) > 1:
        ood, ood_mean = task_ood_aucs(ctx, run.stream, score_kind)
    f_last = f_aia = None
    if ncl is not None:
        f_last, f_aia = forgetting_rates(per_task, ncl)
    report = MetricsReport(
        trajectory=accs,
        a_last=accs[-1],
        a_aia=stable_mean(accs),
        til=til,
        ood=ood,
        ood_mean=ood_mean,
        per_task=per_task,
        f_cil_last=f_last,
        f_cil_aia=f_aia,
    )
    report.validate()
    return report
