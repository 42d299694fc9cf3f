"""Sequential training: per-task optimization, replay buffer, task statistics.

The continual loop for each task t is: train the shared trunk + task head on
the union of the task's data and the replay buffer (buffer samples all map to
the task's extra "everything else" class), consolidate the task's capacity
claim, fit the task's Gaussian feature statistics, then fold a class-balanced
sample of the task's data into the buffer.
"""

from __future__ import annotations

import copy
import logging
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import hat_mlp
from .data import TaskDataset, TaskStream
from .errors import DegenerateCovariance, EmptyTrainingSet, UnknownTask
from .numerics import RngState, mahalanobis_sq, spd_inverse

logger = logging.getLogger(__name__)

_BETA_MEAN_FLOOR = 1e-6

#: Squared Mahalanobis distances are floored here before the MD score inverts them.
MD_FLOOR = 1e-12

SCORE_VARIANTS = ("canonical", "softmin")

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


def check_int(name: str, v, least: int) -> None:
    """Require an integer (not a bool, not a float) of at least ``least``."""
    if not isinstance(v, numbers.Integral) or isinstance(v, bool):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    if v < least:
        raise ValueError(f"{name} must be >= {least}, got {v}")


def check_real(name: str, v) -> None:
    """Require a real number (not a bool) that is finite as a float."""
    try:
        ok = isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite number, got {v!r}")


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
        if self.posterior_temperature <= 0:
            raise ValueError("posterior temperature must be positive")
        if self.ridge < 0 or self.hat_reg_weight < 0:
            raise ValueError("ridge and hat_reg_weight must be non-negative")
        if self.score_variant not in SCORE_VARIANTS:
            raise ValueError(f"score_variant must be one of {SCORE_VARIANTS}")
        if not isinstance(self.hidden_widths, (tuple, list)) or not self.hidden_widths:
            raise ValueError("hidden_widths must be a non-empty list")
        for i, w in enumerate(self.hidden_widths):
            check_int(f"hidden_widths[{i}]", w, 1)



@dataclass
class TaskStats:
    """Gaussian feature description of one task: per-class means, one shared
    precision matrix, and the two score-normalization rates."""

    task_id: int
    class_means: np.ndarray      # [n_classes, feat_dim]
    precision: np.ndarray        # [feat_dim, feat_dim]
    beta_mls: float
    beta_md: float


class ReplayBuffer:
    """Class-balanced reservoir over all classes seen so far.

    Every class gets ``capacity // n_classes`` slots (the remainder goes to
    the earliest-seen classes, so per-class counts never differ by more than
    one).  When new classes arrive, existing classes are truncated to the new
    quota by random subsampling; new classes are filled by sampling their
    task's training data without replacement.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity)
        self.store: dict[int, np.ndarray] = {}
        self.task_of: dict[int, int] = {}
        self.order: list[int] = []

    def __len__(self) -> int:
        return sum(arr.shape[0] for arr in self.store.values())

    def class_counts(self) -> dict[int, int]:
        return {c: self.store[c].shape[0] for c in self.order}

    def _quotas(self) -> dict[int, int]:
        n = len(self.order)
        if n == 0:
            return {}
        base, rem = divmod(self.capacity, n)
        return {c: base + (1 if i < rem else 0) for i, c in enumerate(self.order)}

    def update(self, dataset: TaskDataset, rng: RngState) -> None:
        """Admit a finished task's classes and rebalance to the new quotas."""
        for c in dataset.classes:
            if c in self.store:
                raise ValueError(f"class {c} already buffered")
            self.order.append(c)
            self.task_of[c] = dataset.task_id
        quotas = self._quotas()
        # shrink previously stored classes
        for c in self.order:
            if self.task_of[c] == dataset.task_id:
                continue
            have = self.store[c].shape[0]
            want = quotas[c]
            if have > want:
                keep = rng.stream(f"shrink-{c}").sample_without_replacement(have, want)
                self.store[c] = self.store[c][np.sort(keep)]
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
            self.store[c] = pool[np.sort(idx)].copy()

    def all_samples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(features, global labels, source task ids), class-ordered."""
        if not self.order:
            return np.empty((0, 0)), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        xs, ys, ts = [], [], []
        for c in self.order:
            arr = self.store[c]
            xs.append(arr)
            ys.append(np.full(arr.shape[0], c, dtype=np.int64))
            ts.append(np.full(arr.shape[0], self.task_of[c], dtype=np.int64))
        return np.concatenate(xs), np.concatenate(ys), np.concatenate(ts)

    def complement_view(self, task_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All stored samples except those from ``task_id``'s classes."""
        x, y, t = self.all_samples()
        keep = t != task_id
        return x[keep], y[keep], t[keep]

    def task_view(self, task_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Only the stored samples from ``task_id``'s classes."""
        x, y, t = self.all_samples()
        keep = t == task_id
        return x[keep], y[keep], t[keep]

    def snapshot(self) -> "ReplayBuffer":
        return copy.deepcopy(self)


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
    losses.  The caller consolidates the mask when the task is done.
    """
    net.require_task(dataset.task_id)
    if dataset.train_x.shape[0] == 0:
        raise EmptyTrainingSet(f"task {dataset.task_id} has no training samples")
    n_classes = dataset.n_classes
    y_task = np.array([dataset.class_index(v) for v in dataset.train_y], dtype=np.int64)

    buf_x, _, _ = buffer.all_samples()
    mask_others = buf_x.shape[0] == 0
    if mask_others:
        x_all = dataset.train_x
        y_all = y_task
    else:
        x_all = np.concatenate([dataset.train_x, buf_x])
        y_all = np.concatenate(
            [y_task, np.full(buf_x.shape[0], n_classes, dtype=np.int64)]
        )

    n = x_all.shape[0]
    batches_per_epoch = math.ceil(n / cfg.batch_size)
    state = hat_mlp.init_momentum(net, dataset.task_id)
    history: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        perm = rng.stream(f"shuffle-epoch-{epoch}").permutation(n)
        total = 0.0
        for bi in range(batches_per_epoch):
            idx = perm[bi * cfg.batch_size : (bi + 1) * cfg.batch_size]
            s = hat_mlp.anneal_s(bi + 1, batches_per_epoch, cfg.s_max)
            loss, grads = hat_mlp.batch_loss_and_gradients(
                net, x_all[idx], y_all[idx], dataset.task_id, s,
                cfg.hat_reg_weight, mask_others=mask_others,
            )
            hat_mlp.masked_gradient_update(
                net, grads, dataset.task_id, cfg.learning_rate, cfg.momentum, state
            )
            total += loss * idx.shape[0]
        history.append(total / n)
    return history


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
    """Fit the task's Gaussian feature description on its training data.

    Shared covariance = within-class scatter averaged over all samples (one
    matrix for the whole task), inverted with the configured ridge.  The MLS
    and MD normalization rates are reciprocals of the mean training scores;
    the MD rate reads its distances from ``numerics.mahalanobis_sq``, the one
    whitened-difference kernel every MD score goes through (never the
    expanded quadratic form, which cancels near a centroid).
    """
    feats, logits = hat_mlp.forward(net, dataset.train_x, dataset.task_id)
    y_within = np.array([dataset.class_index(v) for v in dataset.train_y], dtype=np.int64)
    means, precision = fit_gaussian_stats(feats, y_within, dataset.n_classes, cfg.ridge)

    mls = np.max(logits[:, : dataset.n_classes], axis=1)
    beta_mls = _rate_from_mean(float(np.mean(mls)), "MLS", dataset.task_id)

    d2 = np.maximum(np.min(mahalanobis_sq(feats, means, precision), axis=1), MD_FLOOR)
    beta_md = _rate_from_mean(float(np.mean(1.0 / d2)), "MD", dataset.task_id)

    return TaskStats(
        task_id=dataset.task_id,
        class_means=means,
        precision=precision,
        beta_mls=beta_mls,
        beta_md=beta_md,
    )


def fit_gaussian_stats(
    feats: np.ndarray, labels: np.ndarray, n_classes: int, ridge: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-class means and the inverse of the shared within-class scatter.

    Scatter is normalized by the total sample count.  Raises
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
    return means, precision


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
    stream: TaskStream
    seed: int
    net: hat_mlp.HatMlp
    stats: dict[int, TaskStats] = field(default_factory=dict)
    buffer: ReplayBuffer | None = None
    loss_history: dict[int, list[float]] = field(default_factory=dict)
    checkpoints: list[TaskCheckpoint] = field(default_factory=list)
    calibration: dict[int, tuple[float, float]] | None = None

    def task_ids(self) -> list[int]:
        return [t.task_id for t in self.stream.tasks]

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
    from ``seed`` through named streams.  After the last task the per-task
    output calibration is fitted on the buffer unless ``calibrate`` is off.
    """
    cfg.validate()
    if len(stream) == 0:
        raise EmptyTrainingSet("stream has no tasks")
    root = RngState(seed)
    net = hat_mlp.new_hat_mlp(
        stream.dim, tuple(cfg.hidden_widths), cfg.s_max, root.stream("net-init")
    )
    buffer = ReplayBuffer(cfg.buffer_capacity)
    run = RunArtifacts(config=cfg, stream=stream, seed=seed, net=net, buffer=buffer)

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
                stats={k: copy.deepcopy(v) for k, v in run.stats.items()},
                buffer=buffer.snapshot(),
            )
        )
    if calibrate:
        from . import calibration as _calibration  # deferred: breaks the import cycle

        params = _calibration.fit_calibration(
            run, buffer, cfg.calibration_epochs, cfg.calibration_batch,
            cfg.calibration_lr, root.stream("calibration"),
        )
        run.calibration = params.sigma
    return run


def clone_config(cfg: TrainConfig, **overrides) -> TrainConfig:
    out = replace(cfg, **overrides)
    out.validate()
    return out
