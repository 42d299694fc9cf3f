"""Metrics for finished continual runs.

Covers the accuracy trajectory A(<=t) with its Last/AIA summaries, per-task
task-aware (TIL) accuracy, rectified forgetting rates measured against a
jointly trained reference model, rank-based OOD detection AUC per task, and
the AUC-vs-accuracy correlation across score kinds.

The reference ("NCL") model answers: how well would the same architecture do
on tasks 1..t if it had seen them all at once?  It is an ungated MLP of the
same widths with a single head over the pooled classes and no replay,
trained on the pooled prefix data for the per-task epoch budget.
Forgetting is then the per-task accuracy it keeps over the continual model,
which charges the continual learner for inter-class confusion as well as for
literal forgetting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import hat_mlp, scoring
from .data import TaskDataset, TaskStream, label_positions, pooled_test_rows
from .errors import (
    DegenerateVariance,
    EmptyClassList,
    EmptyTestSet,
    MissingNclPrefix,
)
from .numerics import RngState, check_real, stable_mean
from .trainer import RunArtifacts, TrainConfig, check_loss

#: Tolerance for the AIA-equals-trajectory-mean consistency invariant.
AIA_CONSISTENCY_TOL = 1e-12


# --- plain accuracies -------------------------------------------------------

@dataclass
class PooledScores:
    """The score bundle of tasks' test rows pooled in task order, with each
    row's label: task j's rows are ``bounds[j]:bounds[j + 1]``."""

    bundle: scoring.ScoreBundle
    labels: np.ndarray
    bounds: np.ndarray


def pooled_scores(
    ctx: scoring.ScoringContext,
    rows: list[TaskDataset] | TaskStream | PooledScores,
    kinds: tuple[str, ...] = scoring.SCORE_KINDS,
) -> PooledScores:
    """The test rows of ``rows`` (task datasets or a stream) pooled in order
    and scored for ``kinds``; scores already pooled are returned as they are."""
    if isinstance(rows, PooledScores):
        return rows
    x, y, bounds = pooled_test_rows(rows.tasks if isinstance(rows, TaskStream) else rows)
    return PooledScores(scoring.compute_bundle(ctx, x, kinds), y, bounds)


def cil_accuracy(
    ctx: scoring.ScoringContext,
    datasets: list[TaskDataset] | PooledScores,
    score_kind: str = "tpl",
) -> float:
    """Fraction of pooled test samples classified to the right global class,
    with no task-id given.  ``datasets`` are the test rows, scored for
    ``score_kind`` alone, or their ``PooledScores``."""
    scores = pooled_scores(ctx, datasets, (score_kind,))
    pred = scoring.predict_from_bundle(ctx, scores.bundle, score_kind)
    return float(np.mean(pred.global_class == scores.labels))


def til_accuracies(net: hat_mlp.HatMlp, datasets: list[TaskDataset]) -> dict[int, float]:
    """Accuracy with the task-id given, per dataset's task: argmax over the
    task's own classes only (its spare unit excluded).  It needs only the
    network, so no scoring context is built."""
    return {d.task_id: float(np.mean(_head_hits(net, d.task_id, d.classes, d)))
            for d in datasets}


def _head_hits(net: hat_mlp.HatMlp, head: int, classes, dataset: TaskDataset):
    """Per test row of ``dataset``: whether the argmax of ``head``'s logits
    over ``classes`` (its spare unit excluded) names the row's label."""
    if dataset.test_x.shape[0] == 0:
        raise EmptyTestSet(f"task {dataset.task_id} has no test samples")
    classes = np.asarray(classes, dtype=np.int64)
    _, logits = hat_mlp.forward(net, dataset.test_x, head)
    return classes[np.argmax(logits[:, : classes.shape[0]], axis=1)] == dataset.test_y


# --- trajectory -------------------------------------------------------------

def accuracy_trajectory(
    run: RunArtifacts,
    stream: TaskStream,
    bundle: scoring.ScoreBundle | None = None,
) -> tuple[list[float], dict[int, dict[int, float]]]:
    """Pooled ``tpl`` accuracy after each task, plus the full per-task matrix.

    Returns ``(trajectory, per_task)``: ``trajectory[k]`` is the pooled
    accuracy over tasks 1..t_k evaluated at checkpoint t_k on ``stream``'s
    test rows, and ``per_task[t][i]`` is task i's test accuracy at
    checkpoint t.  Each checkpoint is scored with its own network, stats and
    buffer; the last one is a copy of the finished run and reuses its
    ``replay_index``.  Output calibration is fitted once, after the last task, so only
    the final checkpoint applies ``run.calibration``; earlier ones use the
    identity.  ``bundle``, when given, holds the finished run's scores of
    the stream's test rows pooled in task order, and the last checkpoint
    reads it instead of scoring the rows again.  Each checkpoint is scored
    by ``_checkpoint_accuracy``, so its context, and the KNN index built for
    it, is freed before the next one is built.
    """
    task_ids = run.task_ids()
    trajectory: list[float] = []
    per_task: dict[int, dict[int, float]] = {}
    for t in task_ids:
        pooled, per_task[t] = _checkpoint_accuracy(run, stream, t, bundle)
        trajectory.append(pooled)
    return trajectory, per_task


def _checkpoint_accuracy(
    run: RunArtifacts,
    stream: TaskStream,
    t: int,
    bundle: scoring.ScoreBundle | None,
) -> tuple[float, dict[int, float]]:
    """Checkpoint ``t``'s pooled and per-task accuracy over the test rows of
    tasks 1..t (see ``accuracy_trajectory``); the last checkpoint reads the
    finished run's index and calibration, and ``bundle`` when given."""
    final = t == run.task_ids()[-1]
    cp = run.checkpoint_for(t)
    seen = [d for d in stream.tasks if d.task_id <= t]
    classes = {d.task_id: d.classes for d in seen}
    if final:
        ctx = scoring.indexed_context(cp.net, cp.stats, run.replay_index,
                                      run.config, classes, run.calibration)
    else:
        ctx = scoring.build_context(cp.net, cp.stats, cp.buffer, run.config, classes)
    x, y, bounds = pooled_test_rows(seen)
    if bundle is not None and final:
        pred = scoring.predict_from_bundle(ctx, bundle)
    else:
        pred = scoring.predict(ctx, x)
    correct = pred.global_class == y
    return float(np.mean(correct)), {
        d.task_id: float(np.mean(correct[bounds[j] : bounds[j + 1]]))
        for j, d in enumerate(seen)
    }


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

    Same trunk widths and optimizer as the continual run, but no gates (an
    ungated task: every unit passes its ReLU output as is, at any ``s_max``),
    one head over all pooled classes, no gate regularizer, and no replay
    relabeling.  A batch loss that is not finite raises ``NonFiniteLoss`` at
    once, naming the prefix and epoch.
    """
    tasks = [d for d in stream.tasks if d.task_id <= prefix]
    if not tasks:
        raise MissingNclPrefix(f"stream has no tasks at or below {prefix}")
    pooled_classes = [c for d in tasks for c in d.classes]
    x = np.concatenate([d.train_x for d in tasks])
    y = label_positions(np.concatenate([d.train_y for d in tasks]), pooled_classes)

    root = RngState(seed).stream(f"ncl-{prefix}")
    net = hat_mlp.new_hat_mlp(
        stream.dim, tuple(cfg.hidden_widths), cfg.s_max, root.stream("init")
    )
    hat_mlp.add_task(net, _POOLED_HEAD_KEY, len(pooled_classes), root.stream("head"),
                     gated=False)

    state = hat_mlp.init_momentum(net, _POOLED_HEAD_KEY)
    n = x.shape[0]
    # a diverging step overflows silently; its loss stops the reference below
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            perm = root.stream(f"shuffle-epoch-{epoch}").permutation(n)
            for start in range(0, n, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                loss = hat_mlp.train_step(
                    net, x[idx], y[idx], _POOLED_HEAD_KEY, cfg.s_max, 0.0,
                    cfg.learning_rate, cfg.momentum, state, mask_others=True,
                )
                check_loss(loss, f"joint reference for prefix {prefix}, epoch {epoch + 1}")

    hits = [_head_hits(net, _POOLED_HEAD_KEY, pooled_classes, d) for d in tasks]
    accs = {d.task_id: float(np.mean(h)) for d, h in zip(tasks, hits)}
    return accs, float(np.mean(np.concatenate(hits)))


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
    out-of-distribution one (ties count half): the rank-sum (Mann-Whitney)
    statistic U / (n·m), nan when either side holds a nan.

    U is counted, not ranked.  Against the sorted out side, an in score x
    beats ``searchsorted(ood, x, "left")`` out scores and ties with
    ``searchsorted(ood, x, "right")`` minus that many, so 2U is the sum of
    both counts over the in side, an exact integer.  The ``"right"`` search
    runs only when some in score equals an out score; without a tie both
    counts are equal.  The rank-sum form (R - n(n+1)/2) / (n·m) is the same
    real number, and both divide an exactly held value (a half-integer below
    2**53) by an exact integer, so the two return the same float bit for
    bit.  The in side is sorted too only because sorted keys make
    ``searchsorted`` several times faster.

    A float64 array is sorted in place, not copied: pass temporaries that
    have no further use (the value depends on neither side's order).
    """
    ind = np.asarray(ind_scores, dtype=np.float64).ravel()
    ood = np.asarray(ood_scores, dtype=np.float64).ravel()
    if ind.size == 0 or ood.size == 0:
        raise EmptyClassList("need at least one score on each side")
    ind.sort()
    ood.sort()
    if np.isnan(ind[-1]) or np.isnan(ood[-1]):  # sorting puts nan last
        return math.nan
    left = np.searchsorted(ood, ind, "left")
    # ood[left] is the least out score >= x; where every out score is below
    # x, left = m and the clipped ood[m - 1] < x reads as no tie
    tied = (ood.take(left, mode="clip") == ind).any()
    right = np.searchsorted(ood, ind, "right") if tied else left
    return (int(left.sum()) + int(right.sum())) / (2 * ind.size * ood.size)


def task_ood_aucs(
    ctx: scoring.ScoringContext,
    stream: TaskStream | PooledScores,
    score_kind: str = "tpl",
) -> tuple[dict[int, float], float]:
    """Per-task detection AUC: each task's own test samples are the
    in-distribution side, every other task's the out side.  ``stream``
    holds the test rows, scored for ``score_kind`` alone, or their
    ``PooledScores``."""
    scores = pooled_scores(ctx, stream, (score_kind,))
    matrix = scoring.task_score_matrix(ctx, scores.bundle, score_kind)
    bounds = scores.bounds
    aucs: dict[int, float] = {}
    for j, t in enumerate(scores.bundle.task_ids):
        col = matrix[:, j]
        mask = np.zeros(matrix.shape[0], dtype=bool)
        mask[bounds[j] : bounds[j + 1]] = True
        aucs[t] = ood_auc(col[mask], col[~mask])
    return aucs, stable_mean(list(aucs.values()))


#: The ``ood-bench`` rows: each label and the score kind that drives it
#: (the two TPL rows differ in the composition variant their labels name).
BENCH_ROWS = (
    ("MSP", "msp"), ("MLS", "mls"), ("EBO", "ebo"), ("MD", "md"),
    ("KNN", "knn"), ("TPL-canonical", "tpl"), ("TPL-algorithm1", "tpl"),
)


def bench_rows(shared: scoring.ScoringContext, pooled: PooledScores) -> dict[str, dict]:
    """The ``ood-bench`` row of each label of ``BENCH_ROWS``, in JSON form:
    per-task detection AUC keyed ``str(t)`` (none for a single task), its
    mean, and the CIL accuracy when that score picks the task.  ``shared``
    is the run's uncalibrated context and ``pooled`` its bundle of every
    kind for the pooled test rows, so the rows differ only in the score."""
    single = shared.n_tasks() == 1
    rows: dict[str, dict] = {}
    for label, kind in BENCH_ROWS:
        variant = "algorithm1" if label == "TPL-algorithm1" else "canonical"
        ctx = replace(shared, variant=variant)
        aucs, mean_auc = ({}, None) if single else task_ood_aucs(ctx, pooled, kind)
        rows[label] = {
            "auc_per_task": {str(t): v for t, v in sorted(aucs.items())},
            "auc_mean": mean_auc,
            "cil_last_acc": cil_accuracy(ctx, pooled, kind),
        }
    return rows


def decode_bench(payload: dict, task_ids: list[int], scored: bool) -> dict[str, dict]:
    """Inverse of ``bench_rows`` for a run of ``task_ids``: every row of
    ``BENCH_ROWS`` if the run was ``scored`` on test rows, else none.  A row
    holds one AUC per task, in [0, 1] or nan, and their mean (``{}`` and
    null for a single task), and an accuracy."""
    labels = [label for label, _ in BENCH_ROWS] if scored else []
    if sorted(payload) != sorted(labels):
        raise ValueError(f"bench holds the rows {sorted(payload)}, expected {sorted(labels)}")
    want = [] if len(task_ids) == 1 else sorted(task_ids)
    need = f"the tasks {want} with their mean" if want else "none (a single task)"

    def auc(name: str, v) -> float:  # nan when a side held a nan score
        return v if isinstance(v, float) and math.isnan(v) else check_accuracy(name, v)

    rows: dict[str, dict] = {}
    for label in labels:
        row, where = payload[label], f"bench [{label}]"
        aucs = {_task_key(t): auc(f"{where} auc_per_task [{t}]", v)
                for t, v in row["auc_per_task"].items()}
        if sorted(aucs) != want or (row["auc_mean"] is None) == bool(want):
            raise ValueError(f"{where} holds AUCs of the tasks {sorted(aucs)} with mean "
                             f"{row['auc_mean']!r}, the run needs {need}")
        rows[label] = {
            "auc_per_task": {str(t): v for t, v in sorted(aucs.items())},
            "auc_mean": auc(f"{where} auc_mean", row["auc_mean"]) if want else None,
            "cil_last_acc": check_accuracy(f"{where} cil_last_acc", row["cil_last_acc"]),
        }
    return rows


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

def encode_task_matrix(matrix: dict[int, dict[int, float]]) -> dict[str, dict[str, float]]:
    """JSON form of a ``{task: {task: accuracy}}`` map (string keys, sorted)."""
    return {
        str(t): {str(i): v for i, v in sorted(row.items())}
        for t, row in sorted(matrix.items())
    }


def _task_key(key: str) -> int:
    """A task id stored as a JSON object key, spelled as ``str`` writes it, so
    that no two keys of one object ("1" and "01") name the same task."""
    t = int(key)
    if str(t) != key:
        raise ValueError(f"task key {key!r} is not written as {str(t)!r}")
    return t


def decode_task_matrix(payload: dict) -> dict[int, dict[int, float]]:
    """Inverse of ``encode_task_matrix``; every value must be an accuracy."""
    return {
        _task_key(t): {_task_key(i): check_accuracy(f"accuracy [{t}][{i}]", v)
                       for i, v in row.items()}
        for t, row in payload.items()
    }


def encode_ncl_reference(ncl: NclReference) -> dict:
    """JSON form of a joint reference, as the ``eval --ncl`` cache stores it."""
    return {"per_task": encode_task_matrix(ncl.per_task),
            "pooled": {str(t): v for t, v in sorted(ncl.pooled.items())}}


def decode_task_accuracies(payload: dict, name: str) -> dict[int, float]:
    """A ``{task: accuracy}`` map from its JSON form (string keys); every
    value must be an accuracy, named ``name [task]`` in an error."""
    return {_task_key(t): check_accuracy(f"{name} [{t}]", v) for t, v in payload.items()}


def decode_ncl_reference(payload: dict) -> NclReference:
    """Inverse of ``encode_ncl_reference``; every value must be an accuracy."""
    return NclReference(decode_task_matrix(payload["per_task"]),
                        decode_task_accuracies(payload["pooled"], "pooled"))


def check_accuracy(name: str, v) -> float:
    """Require a real number in [0, 1]; return it as a float."""
    v = check_real(name, v)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
    return v


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
            "per_task": encode_task_matrix(self.per_task),
            "f_cil_last": self.f_cil_last,
            "f_cil_aia": self.f_cil_aia,
            "pearson_r": self.pearson_r,
        }


def compute_report(
    run: RunArtifacts,
    stream: TaskStream,
    ncl: NclReference | None = None,
) -> MetricsReport:
    """All metrics for a finished run on ``stream``'s test rows (see
    ``metrics_report``), the trajectory recomputed from the run's
    checkpoints: the reference that the report ``tpl eval`` assembles from
    stored measurements is compared against."""
    ood = ({}, None)
    if len(stream) > 1:
        ood = task_ood_aucs(scoring.context_from_run(run), stream)
    return metrics_report(accuracy_trajectory(run, stream),
                          til_accuracies(run.net, stream.tasks), ood, ncl)


def metrics_report(
    trajectory: tuple[list[float], dict[int, dict[int, float]]],
    til: dict[int, float],
    ood: tuple[dict[int, float], float | None],
    ncl: NclReference | None = None,
) -> MetricsReport:
    """All metrics for a finished run from its trajectory, TIL accuracies and
    per-task detection AUCs with their mean (``{}`` and ``None`` for a
    single task); forgetting only when a reference is supplied."""
    accs, per_task = trajectory
    ood, ood_mean = ood
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
