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
* ``algorithm1`` variant: -log(exp(-b1*MLS) + exp(-b2*MD - dKNN))

Both KNN indexes are the replay buffer through each task's extractor
(``replay_index``), fixed once training ends; a finished run keeps them, so
``context_from_run`` forwards nothing.  Only the standalone ``knn`` kind
reads ``d_own``, and each other score is read by some kinds only
(``SCORE_FIELDS``): a bundle computes just what the kinds it is built for
read (``predict`` builds one for its kind alone), so ``tpl`` skips the MSP
and energy scores and searches one index per task, not two.

A finished run is kept in the form the kernels read, so scoring a batch
only scores: the index rows are stored as ``unit_knn_kth_distance`` reads
them (it normalizes only the queries), and each ``TaskStats`` carries its
precision's Cholesky factor, computed once when the statistics are fitted,
which ``md_score`` whitens with.  The index rows, the factor and the class
means hold no subnormal entry (``numerics.flush_subnormals``), which the CPU
multiplies slowly.  None of this changes a bit of any score.

The task posterior is a temperature softmax over the per-task scores; final
class probabilities multiply within-task probability by task posterior, then
pass through the per-task affine calibration.

``TaskStats``, the MD floor and the identity calibration are defined here,
below ``calibration`` and ``trainer``, which fit through these definitions.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import hat_mlp
from .errors import DimensionMismatch, EmptyBufferView, UnknownTask
from .numerics import (flush_subnormals, kth_smallest, log_sum_exp, precision_factor, softmax,
                       whitened_sq)

if TYPE_CHECKING:
    from .trainer import ReplayBuffer, RunArtifacts, TrainConfig

logger = logging.getLogger(__name__)

_NORM_FLOOR = 1e-12

#: Squared Mahalanobis distances are floored here before the MD score inverts them.
MD_FLOOR = 1e-12

#: Task-affinity score kinds usable for the posterior.
SCORE_KINDS = ("tpl", "lr", "mls", "msp", "ebo", "md", "knn")


@dataclass
class TaskStats:
    """Gaussian feature description of one task: per-class means, one shared
    precision matrix with its lower Cholesky factor, and the two
    score-normalization rates.

    Without a ``precision_factor`` the precision is factored here
    (``numerics.precision_factor``, which raises ``NotPositiveDefinite``),
    once per fit: ``dataclasses.replace`` and a loaded run pass it on."""

    task_id: int
    class_means: np.ndarray      # [n_classes, feat_dim]
    precision: np.ndarray        # [feat_dim, feat_dim]
    beta_mls: float
    beta_md: float
    precision_factor: np.ndarray | None = None  # [feat_dim, feat_dim], lower triangular

    def __post_init__(self):
        if self.precision_factor is None:
            self.precision_factor = precision_factor(self.precision)


def identity_calibration(task_ids) -> dict[int, tuple[float, float]]:
    """The calibration that leaves every class value unchanged."""
    return {int(t): (1.0, 0.0) for t in task_ids}


def mls_score(logits: np.ndarray, n_classes: int) -> np.ndarray:
    """Max logit over the task's real classes (spare unit excluded)."""
    return np.max(logits[..., :n_classes], axis=-1)


def ebo_score(logits: np.ndarray, n_classes: int) -> np.ndarray:
    """Energy score: log-sum-exp of the task's real-class logits."""
    return log_sum_exp(logits[..., :n_classes])


def md_score(feats: np.ndarray, stats: TaskStats) -> np.ndarray:
    """Inverse squared Mahalanobis distance to the nearest class mean,
    floored at ``MD_FLOOR`` before inversion.

    Distances come from ``numerics.whitened_sq`` with the stored factor of
    the precision, which whitens the differences to each mean; the expanded
    quadratic form is never used, as it cancels catastrophically for rows
    near a centroid.
    """
    feats = np.atleast_2d(feats)
    if feats.shape[1] != stats.class_means.shape[1]:
        raise DimensionMismatch(
            f"feature dim {feats.shape[1]} vs stats dim {stats.class_means.shape[1]}"
        )
    quad = whitened_sq(feats, stats.class_means, stats.precision_factor)
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
    available one is used.  Raises ``EmptyBufferView`` on an empty index.
    Both arguments may be raw rows; ``unit_knn_kth_distance`` is this search
    over an index that is already normalized."""
    return unit_knn_kth_distance(queries, normalize_rows(index), k)


def unit_knn_kth_distance(queries: np.ndarray, index: np.ndarray, k: int) -> np.ndarray:
    """``knn_kth_distance`` over index rows passed as they are: only the
    queries are normalized.  ``replay_index`` stores its rows in this form,
    and ``compute_bundle`` runs this search (``_unit_search``) with each
    task's queries normalized once for both of its indexes."""
    index = np.atleast_2d(index)
    if index.shape[0] == 0:
        raise EmptyBufferView("no reference samples for the KNN distance")
    return _unit_search(_negated_unit_rows(queries), index, k)


def _negated_unit_rows(queries: np.ndarray) -> np.ndarray:
    """The L2-normalized, negated query rows ``_unit_search`` reads."""
    neg_q = normalize_rows(queries)
    np.negative(neg_q, out=neg_q)
    return neg_q


def _unit_search(neg_q: np.ndarray, index: np.ndarray, k: int) -> np.ndarray:
    """The k-th nearest distance of each query, given as ``_negated_unit_rows``,
    among the rows of the normalized, non-empty ``index``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    # On the unit sphere ||q - b||^2 = 2 - 2 q.b = 2 + 2 (-q).b.  Rounding is
    # symmetric, so neg_q @ index.T is -(q @ index.T) (a zero's sign aside,
    # which 2 + 2t does not see), and t -> 2 + 2t stays monotone after
    # rounding: the k-th nearest row holds each row's k-th smallest (-q).b,
    # nan last as before, and only those n values are mapped.
    return np.sqrt(np.maximum(2.0 + 2.0 * kth_smallest(neg_q @ index.T, k), 0.0))


def tpl_score(
    s_mls: np.ndarray,
    s_md: np.ndarray,
    d_knn: np.ndarray,
    beta_mls: float | np.ndarray,
    beta_md: float | np.ndarray,
    variant: str = "canonical",
) -> np.ndarray:
    """Compose the in-task and likelihood-ratio routes into one task score:
    the log-sum-exp OR-gate of the two routes, or (``algorithm1``) its
    negation on the negated routes.  The rates broadcast against the scores,
    so one call can score every task column of an [n, T] matrix."""
    a = beta_mls * np.asarray(s_mls, dtype=np.float64)
    b = beta_md * np.asarray(s_md, dtype=np.float64) + np.asarray(d_knn, dtype=np.float64)
    if variant == "canonical":
        return log_sum_exp(np.stack([a, b], -1))
    if variant == "algorithm1":
        return -log_sum_exp(np.stack([-a, -b], -1))
    raise ValueError(f"unknown score variant {variant!r}")


def task_posterior(scores: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax over per-task scores (rows are samples)."""
    return softmax(np.atleast_2d(scores), temperature)


@dataclass
class ScoreBundle:
    """Per-task raw scores for a batch; every downstream composition reads
    from here instead of recomputing features.  All arrays are [n, T] in
    task order; ``wp`` holds within-task probability rows per task.  A
    score no kind the bundle was built for reads (``SCORE_FIELDS``) is None."""

    task_ids: list[int]
    mls: np.ndarray | None
    msp: np.ndarray | None
    ebo: np.ndarray | None
    md: np.ndarray | None
    knn_dist: np.ndarray | None
    knn_own: np.ndarray | None
    wp: list[np.ndarray]


#: The ``ScoreBundle`` scores each score kind reads.
SCORE_FIELDS = {
    "tpl": ("mls", "md", "knn_dist"), "lr": ("md", "knn_dist"), "mls": ("mls",),
    "msp": ("msp",), "ebo": ("ebo",), "md": ("md",), "knn": ("knn_own",),
}


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


#: Every task's two KNN indexes ``(knn, own)``: ``knn[t]`` holds the other
#: tasks' replay rows and ``own[t]`` task t's own rows, each through task t's
#: extractor, L2-normalized twice (see ``replay_index``), in buffer order.
ReplayIndex = tuple[dict[int, np.ndarray], dict[int, np.ndarray]]


def replay_index(net: hat_mlp.HatMlp, buffer: ReplayBuffer, task_ids) -> ReplayIndex:
    """Both KNN indexes of every task in ``task_ids``.  The whole buffer goes
    through each task's extractor once; the two indexes are its rows split by
    source task, in buffer order, stored as ``unit_knn_kth_distance`` reads
    them, with subnormal entries flushed to 0 (``numerics.flush_subnormals``:
    no distance changes, and the search GEMM no longer slows down on them).
    An empty buffer gives empty [0, d] views."""
    feat_dim = net.feature_dim
    knn = {t: np.empty((0, feat_dim)) for t in task_ids}
    own = {t: np.empty((0, feat_dim)) for t in task_ids}
    if len(buffer) > 0:
        for t in task_ids:
            # Normalized twice: the second pass keeps every distance's bits equal
            # to those of ``knn_kth_distance`` over the once-normalized rows.
            # ROADMAP item 5(a) drops it, as an intended output change.
            feats = flush_subnormals(
                normalize_rows(normalize_rows(hat_mlp.features(net, buffer.x, t))))
            knn[t] = feats[buffer.tasks != t]
            own[t] = feats[buffer.tasks == t]
    return knn, own


def build_context(
    net: hat_mlp.HatMlp,
    stats: dict[int, TaskStats],
    buffer: ReplayBuffer,
    cfg: TrainConfig,
    task_classes: dict[int, tuple[int, ...]],
    calibration: dict[int, tuple[float, float]] | None = None,
) -> ScoringContext:
    """Build the read-many inference state from a trained model, forwarding
    ``buffer`` for its KNN indexes (``replay_index``); see ``indexed_context``."""
    index = replay_index(net, buffer, sorted(task_classes))
    return indexed_context(net, stats, index, cfg, task_classes, calibration)


def indexed_context(
    net: hat_mlp.HatMlp,
    stats: dict[int, TaskStats],
    index: ReplayIndex,
    cfg: TrainConfig,
    task_classes: dict[int, tuple[int, ...]],
    calibration: dict[int, tuple[float, float]] | None = None,
) -> ScoringContext:
    """The read-many inference state over a prebuilt ``replay_index``: the
    replay features of every OTHER task feed the likelihood-ratio route, and
    those of the task's own classes the standalone nearest-neighbor
    detector.  ``calibration`` must cover every task; it defaults to the
    identity."""
    task_ids = sorted(task_classes)
    for t in task_ids:
        if t not in stats:
            raise UnknownTask(f"no stats for task {t}")
    knn, own = index
    if len(task_ids) > 1 and any(knn[t].shape[0] == 0 for t in task_ids):
        logger.warning(
            "scoring: empty cross-task replay view for some task; "
            "KNN term falls back to 0 there"
        )
    if any(own[t].shape[0] == 0 for t in task_ids):
        logger.warning(
            "scoring: empty own-class replay view for some task; "
            "standalone KNN score falls back to 0 there"
        )
    return ScoringContext(
        net=net,
        stats=stats,
        task_ids=task_ids,
        task_classes=dict(task_classes),
        knn_index=knn,
        own_index=own,
        k=cfg.knn_k,
        temperature=cfg.posterior_temperature,
        variant=cfg.score_variant,
        calibration=identity_calibration(task_ids) if calibration is None else dict(calibration),
    )


def context_from_run(run: RunArtifacts, calibrated: bool = True) -> ScoringContext:
    """Context for a finished run over its stored ``replay_index`` (no
    forward pass), with its output calibration unless ``calibrated`` is off
    (score-kind comparisons and the calibration fit itself read the raw
    class values)."""
    calibration = run.calibration if calibrated else None
    return indexed_context(run.net, run.stats, run.replay_index, run.config,
                           run.task_classes, calibration)


def compute_bundle(
    ctx: ScoringContext, x: np.ndarray, kinds: tuple[str, ...] = SCORE_KINDS
) -> ScoreBundle:
    """Raw per-task scores and within-task probabilities for a batch, for the
    score ``kinds`` it will serve: a score none of them reads
    (``SCORE_FIELDS``) is not computed and is None.  So only a bundle for the
    standalone ``knn`` kind searches each task's own replay rows; a task's
    queries are normalized once for all the indexes they search.  Each task
    is scored by ``_score_task``, so one task's temporaries are held at a
    time."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    T = ctx.n_tasks()
    scores = {name: np.zeros((n, T))
              for kind in kinds for name in SCORE_FIELDS.get(kind, ())}
    wp = [_score_task(ctx, x, t, {name: s[:, j] for name, s in scores.items()})
          for j, t in enumerate(ctx.task_ids)]
    return ScoreBundle(
        task_ids=list(ctx.task_ids), mls=scores.get("mls"), msp=scores.get("msp"),
        ebo=scores.get("ebo"), md=scores.get("md"), knn_dist=scores.get("knn_dist"),
        knn_own=scores.get("knn_own"), wp=wp,
    )


def _score_task(ctx: ScoringContext, x: np.ndarray, t: int,
                out: dict[str, np.ndarray]) -> np.ndarray:
    """Write task ``t``'s scores of the rows ``x`` into ``out``, a column
    per score that ``compute_bundle`` computes, and return their within-task
    probabilities.  The features are dropped once the negated queries exist,
    and every temporary (features, logits, queries, KNN Gram) is freed on
    return, before the next task forwards."""
    feats, logits = hat_mlp.forward(ctx.net, x, t)
    c = len(ctx.task_classes[t])
    wp = softmax(logits[:, :c])
    if "mls" in out:
        out["mls"][:] = mls_score(logits, c)
    if "msp" in out:
        out["msp"][:] = np.max(wp, axis=-1)
    if "ebo" in out:
        out["ebo"][:] = ebo_score(logits, c)
    if "md" in out:
        out["md"][:] = md_score(feats, ctx.stats[t])
    searches = [(name, index) for name, index in (("knn_dist", ctx.knn_index[t]),
                                                  ("knn_own", ctx.own_index[t]))
                if name in out and index.shape[0] > 0]
    if searches:
        neg_q = _negated_unit_rows(feats)
        del feats
        for name, index in searches:
            out[name][:] = _unit_search(neg_q, index, ctx.k)
    return wp


def task_score_matrix(
    ctx: ScoringContext, bundle: ScoreBundle, kind: str = "tpl"
) -> np.ndarray:
    """[n, T] task-affinity scores of the requested kind (larger = more
    in-task).  Composed kinds use each task's fitted rates.  A bundle built
    without ``kind`` raises ``ValueError``."""
    if kind not in SCORE_KINDS:
        raise ValueError(f"score kind must be one of {SCORE_KINDS}")
    if any(getattr(bundle, name) is None for name in SCORE_FIELDS[kind]):
        raise ValueError(f"score bundle was built without the {kind!r} kind")
    if kind in ("mls", "msp", "ebo", "md"):
        return getattr(bundle, kind).copy()
    if kind == "knn":
        # standalone detector: negated distance to the task's OWN samples
        return -bundle.knn_own
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
    """Classify a batch across all tasks (see ``predict_from_bundle``),
    scoring only what ``score_kind`` reads."""
    return predict_from_bundle(ctx, compute_bundle(ctx, x, (score_kind,)), score_kind)


def predict_from_bundle(
    ctx: ScoringContext, bundle: ScoreBundle, score_kind: str = "tpl"
) -> Predictions:
    """Classify the rows of a precomputed score bundle across all tasks.

    Within-task probabilities are multiplied by the task posterior (from the
    chosen score kind), passed through the per-task affine calibration, and
    the best (task, class) wins; exact ties resolve to the earlier task and
    the earlier class in declaration order.  A bundle built for every kind
    depends on neither the score kind nor the variant, so it serves every
    composition.
    """
    scores = task_score_matrix(ctx, bundle, score_kind)
    post = task_posterior(scores, ctx.temperature)
    n = post.shape[0]

    columns = []
    col_class: list[int] = []
    col_pos: list[int] = []  # each column's task position in bundle.task_ids
    for j, t in enumerate(bundle.task_ids):
        sig1, sig2 = ctx.calibration[t]
        combined = bundle.wp[j] * post[:, j : j + 1]
        columns.append(sig1 * combined + sig2)
        col_class.extend(ctx.task_classes[t])
        col_pos.extend([j] * len(ctx.task_classes[t]))
    flat = np.concatenate(columns, axis=1)
    best = np.argmax(flat, axis=1)  # first max wins: lexicographic tie-break
    pos = np.asarray(col_pos, dtype=np.int64)[best]
    return Predictions(
        global_class=np.asarray(col_class, dtype=np.int64)[best],
        task_id=np.asarray(bundle.task_ids, dtype=np.int64)[pos],
        p_task=post[np.arange(n), pos],
        posterior=post,
        calibrated=flat,
    )
