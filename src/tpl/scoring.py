"""Task-id scoring and class prediction over a trained continual model.

For input x and each task t the model yields within-task probabilities plus a
family of task-affinity scores: max-logit (MLS), max softmax probability
(MSP), the logit log-sum-exp energy (EBO), an inverse Mahalanobis score (MD)
from the task's Gaussian feature statistics, and two k-th-neighbor
distances over normalized replay features — ``d_knn`` to OTHER tasks'
samples (larger = more in-task; feeds the likelihood-ratio route) and
``d_own`` to the task's own samples (smaller = more in-task; negated, it is
the classic standalone KNN detector).  The composed task score joins the
in-task route (scaled MLS) with the likelihood-ratio route (scaled MD plus
the out-of-task KNN distance):

* ``canonical`` variant: log(exp(b1*MLS) + exp(b2*MD + dKNN))
* ``softmin`` variant:  -log(exp(-b1*MLS) + exp(-b2*MD - dKNN))

The task posterior is a temperature softmax over the per-task scores; final
class probabilities multiply within-task probability by task posterior, then
pass through the per-task affine calibration.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import hat_mlp
from .errors import DimensionMismatch, EmptyBufferView, UnknownTask
from .numerics import log_sum_exp, mahalanobis_sq, softmax
from .trainer import MD_FLOOR, ReplayBuffer, RunArtifacts, TaskStats, TrainConfig

logger = logging.getLogger(__name__)

_NORM_FLOOR = 1e-12

#: Task-affinity score kinds usable for the posterior.
SCORE_KINDS = ("tpl", "lr", "mls", "msp", "ebo", "md", "knn")


def mls_score(logits: np.ndarray, n_classes: int) -> np.ndarray:
    """Max logit over the task's real classes (spare unit excluded)."""
    return np.max(logits[..., :n_classes], axis=-1)


def msp_score(logits: np.ndarray, n_classes: int) -> np.ndarray:
    """Max softmax probability over the task's real classes."""
    return np.max(softmax(logits[..., :n_classes]), axis=-1)


def ebo_score(logits: np.ndarray, n_classes: int) -> np.ndarray:
    """Energy score: log-sum-exp of the task's real-class logits."""
    return log_sum_exp(logits[..., :n_classes])


def md_score(feats: np.ndarray, stats: TaskStats) -> np.ndarray:
    """Inverse squared Mahalanobis distance to the nearest class mean,
    floored at ``MD_FLOOR`` before inversion.

    Distances come from ``numerics.mahalanobis_sq``, which whitens the
    differences to each mean; the expanded quadratic form is never used, as it
    cancels catastrophically for rows near a centroid.
    """
    feats = np.atleast_2d(feats)
    if feats.shape[1] != stats.class_means.shape[1]:
        raise DimensionMismatch(
            f"feature dim {feats.shape[1]} vs stats dim {stats.class_means.shape[1]}"
        )
    quad = mahalanobis_sq(feats, stats.class_means, stats.precision)
    d2 = np.maximum(np.min(quad, axis=1), MD_FLOOR)
    return 1.0 / d2


def normalize_rows(feats: np.ndarray) -> np.ndarray:
    """L2-normalize each row (zero rows map near the origin, not to NaN)."""
    feats = np.atleast_2d(feats)
    norms = np.maximum(np.linalg.norm(feats, axis=1, keepdims=True), _NORM_FLOOR)
    return feats / norms


def knn_kth_distance(queries: np.ndarray, index: np.ndarray, k: int) -> np.ndarray:
    """Euclidean distance from each (normalized) query row to its k-th
    nearest (normalized) index row; with fewer than k rows the farthest
    available one is used.  Raises ``EmptyBufferView`` on an empty index."""
    if k < 1:
        raise ValueError("k must be >= 1")
    index = np.atleast_2d(index)
    if index.shape[0] == 0:
        raise EmptyBufferView("no reference samples for the KNN distance")
    q = normalize_rows(queries)
    b = normalize_rows(index)
    # on the unit sphere: ||q - b||^2 = 2 - 2 q.b
    d2 = np.maximum(2.0 - 2.0 * (q @ b.T), 0.0)
    kth = min(k, index.shape[0]) - 1
    return np.sqrt(np.partition(d2, kth, axis=1)[:, kth])


def tpl_score(
    s_mls: np.ndarray,
    s_md: np.ndarray,
    d_knn: np.ndarray,
    beta_mls: float | np.ndarray,
    beta_md: float | np.ndarray,
    variant: str = "canonical",
) -> np.ndarray:
    """Compose the in-task and likelihood-ratio routes into one task score:
    the log-sum-exp OR-gate of the two routes, or (``softmin``) its
    negation on the negated routes.  The rates broadcast against the scores,
    so one call can score every task column of an [n, T] matrix."""
    a = beta_mls * np.asarray(s_mls, dtype=np.float64)
    b = beta_md * np.asarray(s_md, dtype=np.float64) + np.asarray(d_knn, dtype=np.float64)
    if variant == "canonical":
        return log_sum_exp(np.stack([a, b], -1))
    if variant == "softmin":
        return -log_sum_exp(np.stack([-a, -b], -1))
    raise ValueError(f"unknown score variant {variant!r}")


def task_posterior(scores: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax over per-task scores (rows are samples)."""
    return softmax(np.atleast_2d(scores), temperature)


@dataclass
class ScoreBundle:
    """Per-task raw scores for a batch; every downstream composition reads
    from here instead of recomputing features.  All arrays are [n, T] in
    task order; ``wp`` holds within-task probability rows per task."""

    task_ids: list[int]
    mls: np.ndarray
    msp: np.ndarray
    ebo: np.ndarray
    md: np.ndarray
    knn_dist: np.ndarray
    knn_own: np.ndarray
    wp: list[np.ndarray]


@dataclass
class ScoringContext:
    """Frozen inference state: model, per-task stats, prebuilt KNN indexes."""

    net: hat_mlp.HatMlp
    stats: dict[int, TaskStats]
    task_ids: list[int]
    task_classes: dict[int, tuple[int, ...]]
    knn_index: dict[int, np.ndarray]
    own_index: dict[int, np.ndarray]
    k: int
    temperature: float
    variant: str
    calibration: dict[int, tuple[float, float]]

    def n_tasks(self) -> int:
        return len(self.task_ids)


def build_context(
    net: hat_mlp.HatMlp,
    stats: dict[int, TaskStats],
    buffer: ReplayBuffer | None,
    cfg: TrainConfig,
    task_classes: dict[int, tuple[int, ...]],
    calibration: dict[int, tuple[float, float]] | None = None,
) -> ScoringContext:
    """Build the read-many inference state from a trained model.

    Each task gets two KNN indexes, both through its own extractor and
    L2-normalized, computed once here: the replay features of every OTHER
    task (for the likelihood-ratio route) and of its own classes (for the
    standalone nearest-neighbor detector).
    """
    task_ids = sorted(task_classes)
    index: dict[int, np.ndarray] = {}
    own: dict[int, np.ndarray] = {}
    feat_dim = net.feature_dim

    def task_feats(x: np.ndarray, t: int) -> np.ndarray:
        if x.shape[0] == 0:
            return np.empty((0, feat_dim))
        feats, _ = hat_mlp.forward(net, x, t)
        return normalize_rows(feats)

    for t in task_ids:
        if t not in stats:
            raise UnknownTask(f"no stats for task {t}")
        if buffer is None or len(buffer) == 0:
            index[t] = np.empty((0, feat_dim))
            own[t] = np.empty((0, feat_dim))
            continue
        index[t] = task_feats(buffer.complement_view(t)[0], t)
        own[t] = task_feats(buffer.task_view(t)[0], t)
    if len(task_ids) > 1 and any(index[t].shape[0] == 0 for t in task_ids):
        logger.warning(
            "scoring: empty cross-task replay view for some task; "
            "KNN term falls back to 0 there"
        )
    if any(own[t].shape[0] == 0 for t in task_ids):
        logger.warning(
            "scoring: empty own-class replay view for some task; "
            "standalone KNN score falls back to 0 there"
        )
    calib = dict(calibration) if calibration else {}
    for t in task_ids:
        calib.setdefault(t, (1.0, 0.0))
    return ScoringContext(
        net=net,
        stats=stats,
        task_ids=task_ids,
        task_classes=dict(task_classes),
        knn_index=index,
        own_index=own,
        k=cfg.knn_k,
        temperature=cfg.posterior_temperature,
        variant=cfg.score_variant,
        calibration=calib,
    )


def context_from_run(
    run: RunArtifacts, calibrated: bool = True, task_limit: int | None = None
) -> ScoringContext:
    """Context for a finished run (optionally only its first tasks, matching
    an intermediate checkpoint).

    Calibration is fitted once, after the last task, so it only applies when
    the context covers the whole run; truncated contexts stay uncalibrated.
    """
    all_ids = run.task_ids()
    task_ids = all_ids
    if task_limit is not None:
        task_ids = [t for t in all_ids if t <= task_limit]
        cp = run.checkpoint_for(task_ids[-1])
        net, stats, buffer = cp.net, cp.stats, cp.buffer
    else:
        net, stats, buffer = run.net, run.stats, run.buffer
    classes = {t: run.stream.task(t).classes for t in task_ids}
    full = task_ids[-1] == all_ids[-1]
    calib = run.calibration if (calibrated and full and run.calibration) else None
    return build_context(net, stats, buffer, run.config, classes, calib)


def compute_bundle(ctx: ScoringContext, x: np.ndarray) -> ScoreBundle:
    """Raw per-task scores and within-task probabilities for a batch."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    T = ctx.n_tasks()
    mls = np.zeros((n, T))
    msp = np.zeros((n, T))
    ebo = np.zeros((n, T))
    md = np.zeros((n, T))
    knn = np.zeros((n, T))
    knn_own = np.zeros((n, T))
    wp: list[np.ndarray] = []
    for j, t in enumerate(ctx.task_ids):
        feats, logits = hat_mlp.forward(ctx.net, x, t)
        c = len(ctx.task_classes[t])
        mls[:, j] = mls_score(logits, c)
        msp[:, j] = msp_score(logits, c)
        ebo[:, j] = ebo_score(logits, c)
        md[:, j] = md_score(feats, ctx.stats[t])
        if ctx.knn_index[t].shape[0] > 0:
            knn[:, j] = knn_kth_distance(feats, ctx.knn_index[t], ctx.k)
        if ctx.own_index[t].shape[0] > 0:
            knn_own[:, j] = knn_kth_distance(feats, ctx.own_index[t], ctx.k)
        wp.append(softmax(logits[:, :c]))
    return ScoreBundle(
        task_ids=list(ctx.task_ids), mls=mls, msp=msp, ebo=ebo, md=md,
        knn_dist=knn, knn_own=knn_own, wp=wp,
    )


def task_score_matrix(
    ctx: ScoringContext, bundle: ScoreBundle, kind: str = "tpl"
) -> np.ndarray:
    """[n, T] task-affinity scores of the requested kind (larger = more
    in-task).  Composed kinds use each task's fitted rates."""
    if kind not in SCORE_KINDS:
        raise ValueError(f"score kind must be one of {SCORE_KINDS}")
    if kind == "mls":
        return bundle.mls.copy()
    if kind == "msp":
        return bundle.msp.copy()
    if kind == "ebo":
        return bundle.ebo.copy()
    if kind == "md":
        return bundle.md.copy()
    if kind == "knn":
        # standalone detector: negated distance to the task's OWN samples
        return -bundle.knn_own.copy()
    beta_mls = np.array([ctx.stats[t].beta_mls for t in bundle.task_ids])
    beta_md = np.array([ctx.stats[t].beta_md for t in bundle.task_ids])
    if kind == "lr":
        return beta_md * bundle.md + bundle.knn_dist
    return tpl_score(bundle.mls, bundle.md, bundle.knn_dist, beta_mls, beta_md, ctx.variant)


@dataclass
class Predictions:
    """Batch prediction output."""

    global_class: np.ndarray   # [n] predicted global class id
    task_id: np.ndarray        # [n] predicted task
    p_task: np.ndarray         # [n] posterior mass of the predicted task
    posterior: np.ndarray      # [n, T]
    calibrated: np.ndarray     # [n, total_classes] calibrated class values


def predict(ctx: ScoringContext, x: np.ndarray, score_kind: str = "tpl") -> Predictions:
    """Classify a batch across all tasks (see ``predict_from_bundle``)."""
    return predict_from_bundle(ctx, compute_bundle(ctx, x), score_kind)


def predict_from_bundle(
    ctx: ScoringContext, bundle: ScoreBundle, score_kind: str = "tpl"
) -> Predictions:
    """Classify the rows of a precomputed score bundle across all tasks.

    Within-task probabilities are multiplied by the task posterior (from the
    chosen score kind), passed through the per-task affine calibration, and
    the best (task, class) wins; exact ties resolve to the earlier task and
    the earlier class in declaration order.  The bundle depends on neither
    the score kind nor the variant, so one bundle serves every composition.
    """
    scores = task_score_matrix(ctx, bundle, score_kind)
    post = task_posterior(scores, ctx.temperature)
    n = post.shape[0]

    columns = []
    col_class: list[int] = []
    col_task: list[int] = []
    for j, t in enumerate(bundle.task_ids):
        sig1, sig2 = ctx.calibration[t]
        combined = bundle.wp[j] * post[:, j : j + 1]
        columns.append(sig1 * combined + sig2)
        for c in ctx.task_classes[t]:
            col_class.append(c)
            col_task.append(t)
    flat = np.concatenate(columns, axis=1)
    best = np.argmax(flat, axis=1)  # first max wins: lexicographic tie-break
    task_arr = np.asarray(col_task, dtype=np.int64)[best]
    task_pos = {t: j for j, t in enumerate(bundle.task_ids)}
    p_task = post[np.arange(n), [task_pos[t] for t in task_arr]]
    return Predictions(
        global_class=np.asarray(col_class, dtype=np.int64)[best],
        task_id=task_arr,
        p_task=p_task,
        posterior=post,
        calibrated=flat,
    )
