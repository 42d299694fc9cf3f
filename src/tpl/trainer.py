"""Sequential training: per-task optimization, replay buffer, task statistics.

The continual loop for each task t is: train the shared trunk + task head on
the union of the task's data and the replay buffer (buffer samples all map to
the task's extra "everything else" class), consolidate the task's capacity
claim, fit the task's Gaussian feature statistics, then fold a class-balanced
sample of the task's data into the buffer.  The buffer is three row-aligned
arrays (features, labels, source tasks) that each update replaces, so a task's
checkpoint shares them rather than copying them.
"""

from __future__ import annotations

import copy
import logging
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import calibration, hat_mlp, scoring
from .data import TaskDataset, TaskStream, label_positions
from .errors import DegenerateCovariance, EmptyTrainingSet, NonFiniteLoss, UnknownTask
from .numerics import RngState, check_int, check_real, flush_subnormals, spd_inverse
from .scoring import ReplayIndex, TaskStats, identity_calibration, md_score, mls_score

logger = logging.getLogger(__name__)

_BETA_MEAN_FLOOR = 1e-6

#: Largest ``s_max`` whose annealing compensation stays finite: at an epoch's
#: first batch (``s = 1/s_max``) ``hat_mlp``'s ``(s_max/s)·(cosh(s e)+1)`` is
#: about ``2·s_max²``, which overflows to inf above this bound (about 9.4808e153,
#: the square root of half the largest float).
MAX_S_MAX = math.sqrt(math.nextafter(math.inf, 0.0) / 2)

SCORE_VARIANTS = ("canonical", "algorithm1")

#: Integer fields of ``TrainConfig`` and the least value each accepts.
_INT_FIELD_MINIMUMS = {
    "epochs": 0, "batch_size": 1, "buffer_capacity": 0, "knn_k": 1,
    "calibration_epochs": 0, "calibration_batch": 1,
}

#: Real-valued fields of ``TrainConfig`` (ranges checked in ``validate``).
_REAL_FIELDS = (
    "learning_rate", "momentum", "hat_reg_weight", "s_max",
    "posterior_temperature", "ridge", "calibration_lr",
)


@dataclass
class TrainConfig:
    """Hyperparameters for a full continual run (defaults are the desk-scale
    working point)."""

    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 0.005
    momentum: float = 0.9
    hat_reg_weight: float = 0.75
    s_max: float = 400.0
    buffer_capacity: int = 200
    knn_k: int = 5
    posterior_temperature: float = 0.05
    ridge: float = 1e-6
    score_variant: str = "canonical"
    hidden_widths: tuple[int, ...] = (64, 64)
    calibration_epochs: int = 100
    calibration_batch: int = 64
    calibration_lr: float = 0.01

    def validate(self) -> None:
        """Check every field's type and range; errors name the field."""
        for name, least in _INT_FIELD_MINIMUMS.items():
            check_int(name, getattr(self, name), least)
        for name in _REAL_FIELDS:
            check_real(name, getattr(self, name))
        if not (0 <= self.momentum < 1):
            raise ValueError("momentum must be in [0, 1)")
        if self.learning_rate <= 0 or self.calibration_lr <= 0:
            raise ValueError("learning_rate and calibration_lr must be positive")
        if self.s_max <= 1:
            raise ValueError("s_max must be > 1")
        if self.s_max > MAX_S_MAX:
            raise ValueError(f"s_max must be at most sqrt(sys.float_info.max / 2) = "
                             f"{MAX_S_MAX:.5g} (the embedding gradient's annealing "
                             f"compensation grows as 2·s_max²), got {self.s_max!r}")
        if self.posterior_temperature <= 0:
            raise ValueError("posterior temperature must be positive")
        if self.ridge < 0 or self.hat_reg_weight < 0:
            raise ValueError("ridge and hat_reg_weight must be non-negative")
        if self.score_variant not in SCORE_VARIANTS:
            raise ValueError(f"score_variant must be one of {SCORE_VARIANTS}, "
                             f"got {self.score_variant!r}")
        if not isinstance(self.hidden_widths, (tuple, list)) or not self.hidden_widths:
            raise ValueError("hidden_widths must be a non-empty list")
        for i, w in enumerate(self.hidden_widths):
            check_int(f"hidden_widths[{i}]", w, 1)


class ReplayBuffer:
    """Class-balanced reservoir over all classes seen so far, held as the
    three row-aligned arrays every reader uses: features ``x [n, d]``, global
    ``labels [n]`` and source ``tasks [n]``, rows grouped by class in arrival
    order (the layout ``buffer.bin`` stores).

    Every class gets ``capacity // n_classes`` slots (the remainder goes to
    the earliest-seen classes, so per-class counts never differ by more than
    one).  When new classes arrive, existing classes are truncated to the new
    quota by random subsampling; new classes are filled by sampling their
    task's training data without replacement.  ``update`` replaces the three
    arrays and never writes into them, so a shallow copy keeps its rows.
    """

    def __init__(self, capacity: int, x: np.ndarray | None = None,
                 labels: np.ndarray | None = None, tasks: np.ndarray | None = None):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self.x = np.empty((0, 0)) if x is None else x
        self.labels = np.empty(0, dtype=np.int64) if labels is None else labels
        self.tasks = np.empty(0, dtype=np.int64) if tasks is None else tasks

    def __len__(self) -> int:
        return self.labels.shape[0]

    def class_counts(self) -> dict[int, int]:
        """Rows per buffered class, classes in arrival order."""
        return dict(Counter(self.labels.tolist()))

    def update(self, dataset: TaskDataset, rng: RngState) -> None:
        """Admit a finished task's classes and rebalance to the new quotas.

        A class whose quota fell to 0 holds no rows and leaves the order; it
        sat after every class that holds rows, so no other quota moves."""
        stored = self.class_counts()
        for c in dataset.classes:
            if c in stored:
                raise ValueError(f"class {c} already buffered")
        order = [*stored, *dataset.classes]
        base, rem = divmod(self.capacity, max(len(order), 1))
        quotas = {c: base + (1 if i < rem else 0) for i, c in enumerate(order)}
        pieces = []
        # shrink previously stored classes
        for c in stored:
            rows = np.flatnonzero(self.labels == c)
            if rows.shape[0] > quotas[c]:
                keep = rng.stream(f"shrink-{c}").sample_without_replacement(
                    rows.shape[0], quotas[c])
                rows = rows[np.sort(keep)]
            pieces.append((self.x[rows], self.labels[rows], self.tasks[rows]))
        # admit the new classes
        for c in dataset.classes:
            pool = dataset.train_x[dataset.train_y == c]
            want = min(quotas[c], pool.shape[0])
            if want < quotas[c]:
                logger.warning(
                    "buffer: class %d has only %d samples for quota %d",
                    c, pool.shape[0], quotas[c],
                )
            idx = rng.stream(f"admit-{c}").sample_without_replacement(pool.shape[0], want)
            pieces.append((pool[np.sort(idx)], np.full(want, c, dtype=np.int64),
                           np.full(want, dataset.task_id, dtype=np.int64)))
        if pieces:
            self.x, self.labels, self.tasks = (np.concatenate(p) for p in zip(*pieces))


def train_task(
    net: hat_mlp.HatMlp,
    dataset: TaskDataset,
    buffer: ReplayBuffer,
    cfg: TrainConfig,
    rng: RngState,
) -> list[float]:
    """Optimize one task on its data plus the replay buffer.

    Buffer samples (always from earlier tasks) are labeled with the task's
    everything-else index.  With an empty buffer that index is masked out of
    the softmax so the spare unit stays untouched.  Returns per-epoch mean
    losses; a batch loss that is not finite raises ``NonFiniteLoss`` at once,
    naming the task and epoch.  The caller consolidates the mask when the
    task is done.
    """
    net.require_task(dataset.task_id)
    if dataset.train_x.shape[0] == 0:
        raise EmptyTrainingSet(f"task {dataset.task_id} has no training samples")
    n_classes = dataset.n_classes
    y_task = label_positions(dataset.train_y, dataset.classes)

    mask_others = len(buffer) == 0
    if mask_others:
        x_all = dataset.train_x
        y_all = y_task
    else:
        x_all = np.concatenate([dataset.train_x, buffer.x])
        y_all = np.concatenate(
            [y_task, np.full(len(buffer), n_classes, dtype=np.int64)]
        )

    n = x_all.shape[0]
    batches_per_epoch = math.ceil(n / cfg.batch_size)
    state = hat_mlp.init_momentum(net, dataset.task_id)
    history: list[float] = []
    # a diverging step overflows silently; its loss stops the task below
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.epochs + 1):
            perm = rng.stream(f"shuffle-epoch-{epoch}").permutation(n)
            total = 0.0
            for bi in range(batches_per_epoch):
                idx = perm[bi * cfg.batch_size : (bi + 1) * cfg.batch_size]
                s = hat_mlp.anneal_s(bi + 1, batches_per_epoch, cfg.s_max)
                loss = hat_mlp.train_step(
                    net, x_all[idx], y_all[idx], dataset.task_id, s, cfg.hat_reg_weight,
                    cfg.learning_rate, cfg.momentum, state, mask_others=mask_others,
                )
                check_loss(loss, f"task {dataset.task_id}, epoch {epoch}")
                total += loss * idx.shape[0]
            history.append(total / n)
    return history


def check_loss(loss: float, where: str) -> None:
    """Raise ``NonFiniteLoss`` for a batch loss that is inf or nan; ``where``
    names the training it came from."""
    if not math.isfinite(loss):
        raise NonFiniteLoss(f"{where}: training loss is {loss}; "
                            "lower the learning_rate or rescale the features")


def _rate_from_mean(mean: float, label: str, task_id: int) -> float:
    """Normalization rate 1 / mean(score), kept positive and finite.

    The estimator assumes the mean training score is positive (max logits
    and inverse distances typically are).  A small model early in training
    can produce a negative mean max-logit; the magnitude still carries the
    scale, so the rate falls back to 1/|mean|, floored to guard zero.
    """
    if mean < _BETA_MEAN_FLOOR:
        logger.warning(
            "task %d: mean %s score %.3e not positive enough; "
            "normalizing by its magnitude", task_id, label, mean,
        )
    return 1.0 / max(abs(mean), _BETA_MEAN_FLOOR)


def compute_task_stats(
    net: hat_mlp.HatMlp, dataset: TaskDataset, cfg: TrainConfig
) -> TaskStats:
    """Fit the task's Gaussian feature description on the features of its
    training data (``fit_task_gaussian``).  The MLS and MD normalization rates
    are reciprocals of the mean training ``scoring.mls_score`` and
    ``scoring.md_score``.
    """
    feats, logits = hat_mlp.forward(net, dataset.train_x, dataset.task_id)
    stats = fit_task_gaussian(feats, dataset, cfg.ridge)
    mls = mls_score(logits, dataset.n_classes)
    md = md_score(feats, stats)
    return replace(
        stats,
        beta_mls=_rate_from_mean(float(np.mean(mls)), "MLS", dataset.task_id),
        beta_md=_rate_from_mean(float(np.mean(md)), "MD", dataset.task_id),
    )


def fit_task_gaussian(feats: np.ndarray, dataset: TaskDataset, ridge: float) -> TaskStats:
    """Task statistics of ``dataset`` fitted on ``feats`` (one row per training
    sample), with unit score rates.

    Shared covariance = within-class scatter averaged over all samples (one
    matrix for the whole task), inverted with ``ridge``.
    """
    means, precision = fit_gaussian_stats(
        feats, label_positions(dataset.train_y, dataset.classes), dataset.n_classes, ridge
    )
    return TaskStats(dataset.task_id, means, precision, beta_mls=1.0, beta_md=1.0)


def fit_gaussian_stats(
    feats: np.ndarray, labels: np.ndarray, n_classes: int, ridge: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class means and the inverse of the shared within-class scatter.

    Scatter is normalized by the total sample count.  The means are stored
    as ``md_score`` subtracts them, with subnormal entries flushed to 0
    (``numerics.flush_subnormals``: no distance changes).  Raises
    ``DegenerateCovariance`` when a class has no samples.
    """
    n, d = feats.shape
    if n == 0:
        raise DegenerateCovariance("no samples to fit")
    means = np.zeros((n_classes, d))
    scatter = np.zeros((d, d))
    for c in range(n_classes):
        members = feats[labels == c]
        if members.shape[0] == 0:
            raise DegenerateCovariance(f"class index {c} has no samples")
        mu = members.mean(axis=0)
        means[c] = mu
        centered = members - mu
        scatter += centered.T @ centered
    scatter /= n
    precision = spd_inverse(scatter, ridge)
    return flush_subnormals(means), precision


@dataclass
class TaskCheckpoint:
    """Model state snapshotted right after a task finished training."""

    task_id: int
    net: hat_mlp.HatMlp
    stats: dict[int, TaskStats]
    buffer: ReplayBuffer


@dataclass
class RunArtifacts:
    """Everything a finished continual run produced."""

    config: TrainConfig
    #: Each task's global class ids ``{task: classes}``, in training order.
    #: The test data stays with the ``TaskStream``; commands that score test
    #: rows pass it alongside the run.
    task_classes: dict[int, tuple[int, ...]]
    net: hat_mlp.HatMlp
    #: Per-task affine output calibration ``{task: (sigma1, sigma2)}`` covering
    #: every task; the identity unless it was fitted.
    calibration: dict[int, tuple[float, float]]
    buffer: ReplayBuffer
    stats: dict[int, TaskStats] = field(default_factory=dict)
    #: The finished model's KNN indexes over ``buffer`` (``scoring.replay_index``),
    #: built once after the last task; None until then.
    replay_index: ReplayIndex | None = None
    loss_history: dict[int, list[float]] = field(default_factory=dict)
    checkpoints: list[TaskCheckpoint] = field(default_factory=list)

    def task_ids(self) -> list[int]:
        return list(self.task_classes)

    def checkpoint_for(self, task_id: int) -> TaskCheckpoint:
        for cp in self.checkpoints:
            if cp.task_id == task_id:
                return cp
        raise UnknownTask(f"no checkpoint for task {task_id}")


def run_sequence(
    stream: TaskStream, cfg: TrainConfig, seed: int, calibrate: bool = True
) -> RunArtifacts:
    """Train every task in order; snapshot state after each one.

    Deterministic: all randomness (init, shuffling, buffer sampling) flows
    from ``seed`` through named streams.  After the last task the replay
    buffer's KNN indexes are built once, and the per-task output calibration
    is fitted on the buffer; with ``calibrate`` off it stays the identity.
    """
    cfg.validate()
    if len(stream) == 0:
        raise EmptyTrainingSet("stream has no tasks")
    root = RngState(seed)
    net = hat_mlp.new_hat_mlp(
        stream.dim, tuple(cfg.hidden_widths), cfg.s_max, root.stream("net-init")
    )
    buffer = ReplayBuffer(cfg.buffer_capacity)
    run = RunArtifacts(
        config=cfg, task_classes={d.task_id: d.classes for d in stream.tasks},
        net=net, buffer=buffer,
        calibration=identity_calibration(d.task_id for d in stream.tasks),
    )

    for dataset in stream.tasks:
        t = dataset.task_id
        hat_mlp.add_task(net, t, dataset.n_classes, root.stream(f"task-init-{t}"))
        run.loss_history[t] = train_task(
            net, dataset, buffer, cfg, root.stream(f"train-task-{t}")
        )
        hat_mlp.consolidate_mask(net, t)
        run.stats[t] = compute_task_stats(net, dataset, cfg)
        buffer.update(dataset, root.stream(f"buffer-task-{t}"))
        run.checkpoints.append(
            TaskCheckpoint(
                task_id=t,
                net=copy.deepcopy(net),
                stats=dict(run.stats),  # TaskStats are never mutated once fitted
                buffer=copy.copy(buffer),  # update replaces its arrays
            )
        )
    run.replay_index = scoring.replay_index(net, buffer, run.task_ids())
    if calibrate:
        run.calibration = calibration.fit_calibration(
            run, cfg.calibration_epochs, cfg.calibration_batch,
            cfg.calibration_lr, root.stream("calibration"),
        )
    return run
