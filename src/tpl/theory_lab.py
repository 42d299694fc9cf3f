"""One-dimensional Gaussian test-bed for the task-membership statistic.

Everything here has a closed form.  For a pair of diagonal Gaussians the log
likelihood ratio is a quadratic in ``x``, so every statistic in the fixed
scorer family is a quadratic too, its superlevel sets are at most two rays or
one interval, and ranking probabilities reduce to normal-CDF evaluations under
adaptive quadrature.  That gives exact oracles (`oracle_auc`,
`lr_threshold_for_type1`) against which Monte-Carlo estimates and the
feature-space detectors can be checked.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import spearmanr

from . import scoring, trainer
from .data import TaskDataset
from .errors import (
    DimensionMismatch,
    IntegrationFailure,
    NoDensityAvailable,
    NoVariance,
)
from .evaluation import ood_auc
from .numerics import RngState, log_sum_exp, mahalanobis_sq

#: Recognized scoring statistics, each a quadratic in x for 1-D pairs:
#: the log likelihood ratio, the two single-density baselines it dominates,
#: and the projection onto the difference of means.
SCORER_NAMES = ("lr", "p_t_only", "p_tc_only_negated", "mean_difference")

_SCORER_ALIASES = {"likelihood_ratio": "lr", "mean_distance": "mean_difference"}

_ORACLE_ERROR_BUDGET = 1e-4
_TAIL_SIGMAS = 12.0  # quadrature window half-width; mass beyond is < 4e-33
_MIN_EMPIRICAL_N = 1000


def canonical_scorer(name: str) -> str:
    """Resolve a scorer name (or alias) to its canonical spelling."""
    resolved = _SCORER_ALIASES.get(name, name)
    if resolved not in SCORER_NAMES:
        raise ValueError(
            f"unknown scorer {name!r}; expected one of {SCORER_NAMES} "
            f"or aliases {tuple(_SCORER_ALIASES)}"
        )
    return resolved


@dataclass(frozen=True)
class GaussianPair:
    """A positive density P_t and a negative density P_tc, both diagonal
    Gaussians of the same dimension, plus default draw count and seed for
    the Monte-Carlo estimators."""

    mean_t: np.ndarray
    var_t: np.ndarray
    mean_c: np.ndarray
    var_c: np.ndarray
    n_samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        for name in ("mean_t", "var_t", "mean_c", "var_c"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=np.float64))
            object.__setattr__(self, name, arr)
        shapes = {
            arr.shape for arr in (self.mean_t, self.var_t, self.mean_c, self.var_c)
        }
        if len(shapes) != 1 or self.mean_t.ndim != 1:
            raise DimensionMismatch(f"pair parameters disagree in shape: {shapes}")
        if np.any(self.var_t <= 0) or np.any(self.var_c <= 0):
            raise ValueError("variances must be strictly positive")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")

    @property
    def dim(self) -> int:
        return int(self.mean_t.shape[0])

    def swapped(self) -> "GaussianPair":
        """The pair with positive and negative roles exchanged."""
        return GaussianPair(
            mean_t=self.mean_c,
            var_t=self.var_c,
            mean_c=self.mean_t,
            var_c=self.var_t,
            n_samples=self.n_samples,
            seed=self.seed,
        )

    def sample_t(self, n: int, rng: RngState) -> np.ndarray:
        return self.mean_t + np.sqrt(self.var_t) * rng.standard_normal((n, self.dim))

    def sample_c(self, n: int, rng: RngState) -> np.ndarray:
        return self.mean_c + np.sqrt(self.var_c) * rng.standard_normal((n, self.dim))


def narrow_impostor_pair(n_samples: int = 10_000, seed: int = 0) -> GaussianPair:
    """N(0, 1) against N(0, 0.01): the negative density is a spike at the
    positive density's own mode, so ranking by p_t alone inverts the truth
    (the origin has the highest p_t yet belongs to the impostor almost
    surely) while the ratio ranks correctly."""
    return GaussianPair(0.0, 1.0, 0.0, 0.01, n_samples=n_samples, seed=seed)


def mean_shift_pair(n_samples: int = 10_000, seed: int = 0) -> GaussianPair:
    """N(2, 1) against N(0, 1): equal widths, separated means; the ratio is
    linear and agrees with the mean-difference projection."""
    return GaussianPair(2.0, 1.0, 0.0, 1.0, n_samples=n_samples, seed=seed)


def offset_widths_pair(n_samples: int = 10_000, seed: int = 0) -> GaussianPair:
    """N(1, 2.25) against N(0, 0.25): means and widths both differ, so the
    ratio keeps genuine linear and quadratic terms and no single baseline
    matches it."""
    return GaussianPair(1.0, 2.25, 0.0, 0.25, n_samples=n_samples, seed=seed)


#: The fixture set used by the dominance checks and the CLI report.
FIXTURE_PAIRS: dict[str, GaussianPair] = {
    "narrow_impostor": narrow_impostor_pair(),
    "mean_shift": mean_shift_pair(),
    "offset_widths": offset_widths_pair(),
}


def _as_points(pair: GaussianPair, x) -> tuple[np.ndarray, bool]:
    """Coerce ``x`` to an [n, dim] array; report whether input was a single point."""
    arr = np.asarray(x, dtype=np.float64)
    if pair.dim == 1:
        single = arr.ndim == 0
        return arr.reshape(-1, 1), single
    if arr.ndim == 1:
        if arr.shape[0] != pair.dim:
            raise DimensionMismatch(
                f"point has dim {arr.shape[0]}, pair has dim {pair.dim}"
            )
        return arr.reshape(1, -1), True
    if arr.ndim != 2 or arr.shape[1] != pair.dim:
        raise DimensionMismatch(
            f"points have shape {arr.shape}, pair has dim {pair.dim}"
        )
    return arr, False


def _diag_normal_logpdf(pts: np.ndarray, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    diff = pts - mean
    quad = np.sum(diff * diff / var, axis=1)
    log_norm = float(np.sum(np.log(2.0 * math.pi * var)))
    return -0.5 * (quad + log_norm)


def log_likelihood_ratio(pair: GaussianPair, x):
    """log p_t(x) - log p_tc(x), exact; scalar in, scalar out."""
    pts, single = _as_points(pair, x)
    out = _diag_normal_logpdf(pts, pair.mean_t, pair.var_t) - _diag_normal_logpdf(
        pts, pair.mean_c, pair.var_c
    )
    return float(out[0]) if single else out


def score_samples(pair: GaussianPair, scorer: str, x):
    """Evaluate one of the family's statistics at ``x`` (any dimension)."""
    name = canonical_scorer(scorer)
    pts, single = _as_points(pair, x)
    if name == "lr":
        out = _diag_normal_logpdf(pts, pair.mean_t, pair.var_t) - _diag_normal_logpdf(
            pts, pair.mean_c, pair.var_c
        )
    elif name == "p_t_only":
        out = _diag_normal_logpdf(pts, pair.mean_t, pair.var_t)
    elif name == "p_tc_only_negated":
        out = -_diag_normal_logpdf(pts, pair.mean_c, pair.var_c)
    else:  # mean_difference
        out = pts @ (pair.mean_t - pair.mean_c)
    return float(out[0]) if single else out


def quadratic_coefficients(pair: GaussianPair, scorer: str) -> tuple[float, float, float]:
    """The (a, b, c) of scorer(x) = a x^2 + b x + c for a one-dimensional pair."""
    if pair.dim != 1:
        raise DimensionMismatch("quadratic form exists only for 1-D pairs")
    name = canonical_scorer(scorer)
    mt, vt = float(pair.mean_t[0]), float(pair.var_t[0])
    mc, vc = float(pair.mean_c[0]), float(pair.var_c[0])
    if name == "lr":
        a = 0.5 / vc - 0.5 / vt
        b = mt / vt - mc / vc
        c = 0.5 * math.log(vc / vt) + mc * mc / (2.0 * vc) - mt * mt / (2.0 * vt)
    elif name == "p_t_only":
        a = -0.5 / vt
        b = mt / vt
        c = -0.5 * math.log(2.0 * math.pi * vt) - mt * mt / (2.0 * vt)
    elif name == "p_tc_only_negated":
        a = 0.5 / vc
        b = -mc / vc
        c = 0.5 * math.log(2.0 * math.pi * vc) + mc * mc / (2.0 * vc)
    else:  # mean_difference
        a, b, c = 0.0, mt - mc, 0.0
    return a, b, c


def _superlevel_mass(
    a: float, b: float, c: float, threshold: float, mean: float, var: float
) -> float:
    """P(a X^2 + b X + c > threshold) for X ~ N(mean, var), exact.

    The superlevel set of an upward parabola is two rays, of a downward one
    an interval, of a non-constant line one ray; the constant case is a 0/1
    indicator.
    """
    sd = math.sqrt(var)

    def cdf(x: float) -> float:
        return float(ndtr((x - mean) / sd))

    if a == 0.0 and b == 0.0:
        return 1.0 if c > threshold else 0.0
    if a == 0.0:
        q = (threshold - c) / b
        return 1.0 - cdf(q) if b > 0 else cdf(q)
    disc = b * b - 4.0 * a * (c - threshold)
    if disc <= 0.0:
        return 1.0 if a > 0 else 0.0
    root = math.sqrt(disc)
    lo, hi = sorted(((-b - root) / (2.0 * a), (-b + root) / (2.0 * a)))
    if a > 0:
        return cdf(lo) + (1.0 - cdf(hi))
    return cdf(hi) - cdf(lo)


def oracle_auc(pair: GaussianPair, scorer: str) -> float:
    """P(s(X) > s(Y)) + 0.5 P(s(X) = s(Y)) for X ~ P_t, Y ~ P_tc by adaptive
    quadrature, absolute error at most 1e-4.

    Non-constant quadratics give ties probability zero; a constant statistic
    (e.g. mean_difference with equal means) returns exactly 1/2.  Raises
    ``IntegrationFailure`` if the error estimate exceeds the budget.
    """
    if pair.dim != 1:
        raise DimensionMismatch("the quadrature oracle handles 1-D pairs only")
    a, b, c = quadratic_coefficients(pair, scorer)
    if a == 0.0 and b == 0.0:
        return 0.5
    mt, vt = float(pair.mean_t[0]), float(pair.var_t[0])
    mc, vc = float(pair.mean_c[0]), float(pair.var_c[0])
    sd_c = math.sqrt(vc)
    norm_c = 1.0 / (sd_c * math.sqrt(2.0 * math.pi))

    def integrand(y: float) -> float:
        level = (a * y + b) * y + c
        pdf = norm_c * math.exp(-0.5 * ((y - mc) / sd_c) ** 2)
        return pdf * _superlevel_mass(a, b, c, level, mt, vt)

    lo = mc - _TAIL_SIGMAS * sd_c
    hi = mc + _TAIL_SIGMAS * sd_c
    # The integrand kinks where the superlevel set changes branch, which for a
    # quadratic statistic happens only at its vertex.
    breaks = [-b / (2.0 * a)] if a != 0.0 else []
    breaks = [p for p in breaks if lo < p < hi]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(
            integrand, lo, hi, points=breaks or None,
            limit=300, epsabs=1e-10, epsrel=1e-10,
        )
    truncation = 2.0 * float(ndtr(-_TAIL_SIGMAS))
    if err + truncation > _ORACLE_ERROR_BUDGET:
        raise IntegrationFailure(
            f"quadrature error estimate {err:.3e} exceeds {_ORACLE_ERROR_BUDGET:.0e}"
        )
    return min(max(float(value), 0.0), 1.0)


def empirical_auc(
    pair: GaussianPair, scorer: str, n: int | None = None, seed: int | None = None
) -> float:
    """Monte-Carlo ranking probability: n draws per side, positive side P_t.

    ``n`` and ``seed`` default to the pair's own fields.  Requires n >= 1000
    so the +-5/sqrt(n) convergence band is meaningful.
    """
    n = pair.n_samples if n is None else int(n)
    seed = pair.seed if seed is None else int(seed)
    if n < _MIN_EMPIRICAL_N:
        raise ValueError(f"need at least {_MIN_EMPIRICAL_N} draws per side, got {n}")
    root = RngState(seed)
    xs = pair.sample_t(n, root.stream("in-task-draws"))
    ys = pair.sample_c(n, root.stream("out-task-draws"))
    return ood_auc(score_samples(pair, scorer, xs), score_samples(pair, scorer, ys))


def lr_threshold_for_type1(pair: GaussianPair, level: float = 0.05) -> float:
    """The threshold lambda with P_tc(log-LR > lambda) equal to ``level``.

    Found by bracketing and bisecting the exact superlevel mass, which is
    continuous and non-increasing in lambda.  A constant ratio (identical
    densities) admits no such threshold and raises ``ValueError``.
    """
    from scipy.optimize import brentq

    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    if pair.dim != 1:
        raise DimensionMismatch("threshold calibration handles 1-D pairs only")
    a, b, c = quadratic_coefficients(pair, "lr")
    if a == 0.0 and b == 0.0:
        raise ValueError("constant likelihood ratio: no threshold attains the level")
    mc, vc = float(pair.mean_c[0]), float(pair.var_c[0])

    def excess(lam: float) -> float:
        return _superlevel_mass(a, b, c, lam, mc, vc) - level

    center = (a * mc + b) * mc + c
    step = 1.0 + abs(center)
    lo, hi = center - step, center + step
    for _ in range(200):
        if excess(lo) >= 0.0:
            break
        lo -= step
        step *= 2.0
    else:
        raise IntegrationFailure("failed to bracket the threshold from below")
    step = 1.0 + abs(center)
    for _ in range(200):
        if excess(hi) <= 0.0:
            break
        hi += step
        step *= 2.0
    else:
        raise IntegrationFailure("failed to bracket the threshold from above")
    return float(brentq(excess, lo, hi, xtol=1e-13, rtol=8.9e-16))


def empirical_type1_rate(
    pair: GaussianPair, threshold: float, n: int | None = None, seed: int | None = None
) -> float:
    """Fraction of P_tc draws whose log-LR exceeds ``threshold``."""
    n = pair.n_samples if n is None else int(n)
    seed = pair.seed if seed is None else int(seed)
    if n < _MIN_EMPIRICAL_N:
        raise ValueError(f"need at least {_MIN_EMPIRICAL_N} draws, got {n}")
    ys = pair.sample_c(n, RngState(seed).stream("null-draws"))
    return float(np.mean(score_samples(pair, "lr", ys) > threshold))


# --- feature-space density estimators vs. exact densities --------------------


@dataclass(frozen=True)
class DensityCheck:
    """Rank agreement of the two distance-based scores with exact densities."""

    md_spearman: float
    knn_spearman: float
    n_probes: int
    n_used_md: int  # probes kept after dropping distance-floor saturation


def fit_raw_feature_stats(dataset: TaskDataset, ridge: float = 1e-6) -> trainer.TaskStats:
    """Task statistics fitted directly on raw feature vectors (no network)."""
    y_within = np.array(
        [dataset.class_index(v) for v in dataset.train_y], dtype=np.int64
    )
    means, precision = trainer.fit_gaussian_stats(
        dataset.train_x, y_within, dataset.n_classes, ridge
    )
    return trainer.TaskStats(
        task_id=dataset.task_id,
        class_means=means,
        precision=precision,
        beta_mls=1.0,
        beta_md=1.0,
    )


def density_estimator_check(
    dataset: TaskDataset,
    stats: trainer.TaskStats,
    n_probes: int,
    knn_k: int = 5,
    seed: int = 0,
) -> DensityCheck:
    """How faithfully the two distance scores rank by density.

    Probes are drawn from the task's true class mixture.  The inverse-
    Mahalanobis score is compared against the largest per-class log-density
    under the *fitted* model: with one shared covariance both are monotone in
    the same minimal distance, so their rank correlation is exactly 1 (floor-
    saturated probes excluded).  Both read their distances from the shared
    whitened-difference kernel ``numerics.mahalanobis_sq`` (never the
    expanded quadratic form, which cancels near a centroid).  The negated
    k-th-neighbor distance over the task's own training vectors is compared
    against the *true* mixture log-density; its agreement is limited by the
    training-sample size.

    The neighbor distance here is the raw Euclidean one — the plain fixed-k
    density estimator.  The unit-sphere normalization the detector applies is
    deliberately skipped: projecting probes onto the sphere discards the
    radial component of the density and caps the attainable rank agreement.
    """
    if dataset.gaussians is None:
        raise NoDensityAvailable(
            f"task {dataset.task_id} has no generative description"
        )
    if dataset.train_x.shape[0] < 2:
        raise NoVariance("density comparison needs at least two training samples")
    if n_probes < 3:
        raise ValueError("need at least three probe points")

    order = sorted(dataset.gaussians)
    means = np.stack([dataset.gaussians[c].mean for c in order])
    covs = np.stack([dataset.gaussians[c].cov_diag for c in order])
    root = RngState(seed)
    which = root.stream("probe-class").integers(0, len(order), n_probes)
    noise = root.stream("probe-noise").standard_normal((n_probes, dataset.dim))
    probes = means[which] + np.sqrt(covs[which]) * noise

    per_class = np.stack(
        [_diag_normal_logpdf(probes, means[i], covs[i]) for i in range(len(order))],
        axis=1,
    )
    mixture_logpdf = log_sum_exp(per_class) - math.log(len(order))

    sign, logdet_precision = np.linalg.slogdet(stats.precision)
    if sign <= 0:
        raise NoVariance("fitted precision matrix is not positive definite")
    md = scoring.md_score(probes, stats)
    d2_min = np.min(mahalanobis_sq(probes, stats.class_means, stats.precision), axis=1)
    fitted_logpdf = -0.5 * (
        d2_min + dataset.dim * math.log(2.0 * math.pi) - logdet_precision
    )
    keep = md < 1.0 / trainer.MD_FLOOR
    if int(np.sum(keep)) < 3:
        raise NoVariance("all probes saturated the distance floor")
    md_rho = float(spearmanr(md[keep], fitted_logpdf[keep])[0])

    if knn_k < 1:
        raise ValueError("knn_k must be >= 1")
    gram = (
        np.sum(probes**2, axis=1)[:, None]
        - 2.0 * probes @ dataset.train_x.T
        + np.sum(dataset.train_x**2, axis=1)[None, :]
    )
    kth = min(knn_k, dataset.train_x.shape[0]) - 1
    gram.partition(kth, axis=1)
    knn_dist = np.sqrt(np.maximum(gram[:, kth], 0.0))
    knn_rho = float(spearmanr(-knn_dist, mixture_logpdf)[0])
    if not (np.isfinite(md_rho) and np.isfinite(knn_rho)):
        raise NoVariance("rank correlation undefined: a score column is constant")
    return DensityCheck(
        md_spearman=md_rho,
        knn_spearman=knn_rho,
        n_probes=int(n_probes),
        n_used_md=int(np.sum(keep)),
    )
