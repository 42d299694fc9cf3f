"""One-dimensional Gaussian test-bed for the task-membership statistic.

Everything here has a closed form.  A ``GaussianPair`` is two scalar
Gaussians, four floats (the task's mean and variance, then the impostor's),
so the log likelihood ratio is a quadratic in ``x``.  So is every statistic
in the fixed scorer family: its superlevel sets are at most two rays or one
interval, and ranking probabilities reduce to normal-CDF evaluations under
adaptive quadrature.  That gives exact oracles (`oracle_auc`,
`lr_threshold_for_type1`) against which Monte-Carlo estimates and the
feature-space detectors can be checked.

The numerics need nothing beyond numpy and ``math``: the normal CDF is
``math.erfc``, the quadrature is an adaptive Gauss–Kronrod rule (QUADPACK's
21-point pair with global subdivision), and the type-I threshold is found by
bisection.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import scoring, trainer
from .data import TaskDataset, mixture_log_density, sample_mixture
from .errors import IntegrationFailure, NoDensityAvailable, NoVariance
from .evaluation import ood_auc
from .numerics import RngState, check_real, kth_distance, spearman, whitened_sq

#: Recognized scoring statistics, each a quadratic in x:
#: the log likelihood ratio, the two single-density baselines it dominates,
#: and the projection onto the difference of means.
SCORER_NAMES = ("lr", "p_t_only", "p_tc_only_negated", "mean_difference")

_ORACLE_ERROR_BUDGET = 1e-4
_TAIL_SIGMAS = 12.0  # quadrature window half-width; mass beyond is < 4e-33
_QUAD_LIMIT = 300  # most subintervals the oracle's quadrature may use

#: Fewest draws per side the empirical AUC and type-I estimates accept.
MIN_EMPIRICAL_N = 1000

#: Fewest probe points ``density_estimator_check`` accepts.
MIN_PROBES = 3

#: Neighbor rank of the density check's k-th-distance estimator.
DENSITY_KNN_K = 5

#: Ridge on the raw-feature covariance before ``fit_raw_feature_stats`` inverts it.
_RAW_STATS_RIDGE = 1e-6


def _check_scorer(name: str) -> None:
    if name not in SCORER_NAMES:
        raise ValueError(f"unknown scorer {name!r}; expected one of {SCORER_NAMES}")


@dataclass(frozen=True)
class GaussianPair:
    """A positive density P_t = N(mean_t, var_t) and a negative density
    P_tc = N(mean_c, var_c) on the real line, plus the draw count and seed of
    the Monte-Carlo estimators."""

    mean_t: float
    var_t: float
    mean_c: float
    var_c: float
    n_samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        for name in ("mean_t", "var_t", "mean_c", "var_c"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if self.var_t <= 0 or self.var_c <= 0:
            raise ValueError("variances must be strictly positive")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")

    def sample_t(self, n: int, rng: RngState) -> np.ndarray:
        return self.mean_t + math.sqrt(self.var_t) * rng.standard_normal(n)

    def sample_c(self, n: int, rng: RngState) -> np.ndarray:
        return self.mean_c + math.sqrt(self.var_c) * rng.standard_normal(n)


def narrow_impostor_pair(n_samples: int = 10_000, seed: int = 0) -> GaussianPair:
    """N(0, 1) against N(0, 0.01): the negative density is a spike at the
    positive density's own mode, so ranking by p_t alone inverts the truth
    (the origin has the highest p_t yet belongs to the impostor almost
    surely) while the ratio ranks correctly."""
    return GaussianPair(0.0, 1.0, 0.0, 0.01, n_samples=n_samples, seed=seed)


#: The fixture set used by the dominance checks and the CLI report.
FIXTURE_PAIRS: dict[str, GaussianPair] = {
    "narrow_impostor": narrow_impostor_pair(),
    # N(2, 1) against N(0, 1): equal widths, separated means; the ratio is
    # linear and agrees with the mean-difference projection.
    "mean_shift": GaussianPair(2.0, 1.0, 0.0, 1.0),
    # N(1, 2.25) against N(0, 0.25): means and widths both differ, so the
    # ratio keeps genuine linear and quadratic terms and no single baseline
    # matches it.
    "offset_widths": GaussianPair(1.0, 2.25, 0.0, 0.25),
}


def log_likelihood_ratio(pair: GaussianPair, x):
    """log p_t(x) - log p_tc(x), exact; scalar in, scalar out."""
    return score_samples(pair, "lr", x)


def score_samples(pair: GaussianPair, scorer: str, x):
    """Evaluate one of the family's statistics, ``(a x + b) x + c``, at every
    entry of ``x`` (flattened); a scalar gives a float."""
    a, b, c = quadratic_coefficients(pair, scorer)
    x = np.asarray(x, dtype=np.float64)
    out = (a * x + b) * x + c
    return float(out) if x.ndim == 0 else out.ravel()


def quadratic_coefficients(pair: GaussianPair, scorer: str) -> tuple[float, float, float]:
    """The (a, b, c) of scorer(x) = a x^2 + b x + c, the one definition of
    each statistic: log p_t(x) - log p_tc(x), log p_t(x), -log p_tc(x) and
    the projection x (mean_t - mean_c)."""
    _check_scorer(scorer)
    mt, vt, mc, vc = pair.mean_t, pair.var_t, pair.mean_c, pair.var_c
    if scorer == "lr":
        a = 0.5 / vc - 0.5 / vt
        b = mt / vt - mc / vc
        c = 0.5 * math.log(vc / vt) + mc * mc / (2.0 * vc) - mt * mt / (2.0 * vt)
    elif scorer == "p_t_only":
        a = -0.5 / vt
        b = mt / vt
        c = -0.5 * math.log(2.0 * math.pi * vt) - mt * mt / (2.0 * vt)
    elif scorer == "p_tc_only_negated":
        a = 0.5 / vc
        b = -mc / vc
        c = 0.5 * math.log(2.0 * math.pi * vc) + mc * mc / (2.0 * vc)
    else:  # mean_difference
        a, b, c = 0.0, mt - mc, 0.0
    return a, b, c


_SQRT_HALF = math.sqrt(0.5)


def ndtr(x: float) -> float:
    """The standard normal CDF in cephes' form, ``erfc`` of the argument
    scaled by sqrt(1/2): a few ulp of relative error near the centre, growing
    like x^2 * 2^-53 in the far left tail, where the rounding of the scaled
    argument is amplified."""
    return 0.5 * math.erfc(-x * _SQRT_HALF)


# QUADPACK's qk21 on [-1, 1]: the 21 Kronrod nodes in ascending order, their
# weights, and the weights of the embedded 10-point Gauss rule, which uses
# every other node from the second and gives the centre node weight 0.
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
       0.0)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077208854573224, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
_WG = (0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
       0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
       0.0, 0.295524224714752870173892994651338, 0.0)
_GK_NODES = np.array([-x for x in _XK[:-1]] + list(_XK[::-1]))
_GK_WEIGHTS = np.array(_WK[:-1] + _WK[::-1])
_G_WEIGHTS = np.array(_WG[:-1] + _WG[::-1])
_EPS = float(np.finfo(np.float64).eps)


def _gk21(f, a: float, b: float) -> tuple[float, float]:
    """QUADPACK's qk21 on [a, b]: the Kronrod estimate of the integral of
    ``f`` and QUADPACK's error estimate for it."""
    half = 0.5 * (b - a)
    fv = np.array([f(x) for x in (0.5 * (a + b) + half * _GK_NODES).tolist()])
    kronrod = float(fv @ _GK_WEIGHTS)
    spread = abs(half) * float(np.abs(fv - 0.5 * kronrod) @ _GK_WEIGHTS)
    err = abs(half * (kronrod - float(fv @ _G_WEIGHTS)))
    if spread != 0.0 and err != 0.0:
        err = spread * min(1.0, (200.0 * err / spread) ** 1.5)
    floor = 50.0 * _EPS * abs(half) * float(np.abs(fv) @ _GK_WEIGHTS)
    return half * kronrod, max(err, floor)


def _adaptive_quad(f, lo: float, hi: float, breaks: list[float], limit: int,
                   epsabs: float, epsrel: float) -> tuple[float, float]:
    """Integral of ``f`` over [lo, hi] and its error estimate by global
    adaptive subdivision: start from the pieces between ``breaks`` and bisect
    the piece with the largest error until the summed error meets
    max(epsabs, epsrel |integral|) or there are ``limit`` pieces."""
    edges = [lo, *breaks, hi]
    heap = []
    for a, b in zip(edges, edges[1:]):
        value, err = _gk21(f, a, b)
        heap.append((-err, a, b, value))
    heapq.heapify(heap)
    while True:
        value = math.fsum(piece[3] for piece in heap)
        err = -math.fsum(piece[0] for piece in heap)
        if err <= max(epsabs, epsrel * abs(value)) or len(heap) >= limit:
            return value, err
        _, a, b, _ = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        for pa, pb in ((a, mid), (mid, b)):
            piece_value, piece_err = _gk21(f, pa, pb)
            heapq.heappush(heap, (-piece_err, pa, pb, piece_value))


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
        return ndtr((x - mean) / sd)

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
    a, b, c = quadratic_coefficients(pair, scorer)
    if a == 0.0 and b == 0.0:
        return 0.5
    mt, vt, mc, vc = pair.mean_t, pair.var_t, pair.mean_c, pair.var_c
    sd_t, sd_c = math.sqrt(vt), math.sqrt(vc)
    norm_c = 1.0 / (sd_c * math.sqrt(2.0 * math.pi))

    def integrand(y: float) -> float:
        pdf = norm_c * math.exp(-0.5 * ((y - mc) / sd_c) ** 2)
        if a == 0.0:
            # a line exceeds its value at y exactly beyond y, on b's side;
            # solving s(X) = s(y) for X instead would snap y to a lattice
            # when b is tiny
            below = ndtr((y - mt) / sd_t)
            return pdf * (1.0 - below if b > 0 else below)
        return pdf * _superlevel_mass(a, b, c, (a * y + b) * y + c, mt, vt)

    lo = mc - _TAIL_SIGMAS * sd_c
    hi = mc + _TAIL_SIGMAS * sd_c
    # The integrand kinks where the superlevel set changes branch, which for a
    # quadratic statistic happens only at its vertex.
    breaks = [-b / (2.0 * a)] if a != 0.0 else []
    breaks = [p for p in breaks if lo < p < hi]
    value, err = _adaptive_quad(integrand, lo, hi, breaks, limit=_QUAD_LIMIT,
                                epsabs=1e-10, epsrel=1e-10)
    truncation = 2.0 * ndtr(-_TAIL_SIGMAS)
    if err + truncation > _ORACLE_ERROR_BUDGET:
        raise IntegrationFailure(
            f"quadrature error estimate {err:.3e} exceeds {_ORACLE_ERROR_BUDGET:.0e}"
        )
    return min(max(float(value), 0.0), 1.0)


def empirical_aucs(
    pair: GaussianPair, scorers: tuple[str, ...] = SCORER_NAMES
) -> dict[str, float]:
    """Monte-Carlo ranking probability of each of ``scorers``:
    ``pair.n_samples`` draws per side, positive side P_t, seeded by
    ``pair.seed``.  The draws depend only on the pair, so every scorer is
    scored on one set of them and its value does not depend on which other
    scorers are asked for.

    Requires n >= 1000 so the +-5/sqrt(n) convergence band is meaningful.
    """
    n = pair.n_samples
    if n < MIN_EMPIRICAL_N:
        raise ValueError(f"need at least {MIN_EMPIRICAL_N} draws per side, got {n}")
    root = RngState(pair.seed)
    xs = pair.sample_t(n, root.stream("in-task-draws"))
    ys = pair.sample_c(n, root.stream("out-task-draws"))
    return {s: ood_auc(score_samples(pair, s, xs), score_samples(pair, s, ys))
            for s in scorers}


def lr_threshold_for_type1(pair: GaussianPair, level: float = 0.05) -> float:
    """The threshold lambda with P_tc(log-LR > lambda) equal to ``level``.

    Found by bracketing and bisecting the exact superlevel mass, which is
    continuous and non-increasing in lambda.  A constant ratio (identical
    densities) admits no such threshold and raises ``ValueError``.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    a, b, c = quadratic_coefficients(pair, "lr")
    if a == 0.0 and b == 0.0:
        raise ValueError("constant likelihood ratio: no threshold attains the level")
    mc, vc = pair.mean_c, pair.var_c

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
    while hi - lo > 1e-13 + 8.9e-16 * max(abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if excess(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def empirical_type1_rate(pair: GaussianPair, threshold: float) -> float:
    """Fraction of ``pair.n_samples`` P_tc draws, seeded by ``pair.seed``,
    whose log-LR exceeds ``threshold``."""
    n = pair.n_samples
    if n < MIN_EMPIRICAL_N:
        raise ValueError(f"need at least {MIN_EMPIRICAL_N} draws, got {n}")
    ys = pair.sample_c(n, RngState(pair.seed).stream("null-draws"))
    return float(np.mean(score_samples(pair, "lr", ys) > threshold))


# --- feature-space density estimators vs. exact densities --------------------


@dataclass(frozen=True)
class DensityCheck:
    """Rank agreement of the two distance-based scores with exact densities."""

    md_spearman: float
    knn_spearman: float
    n_probes: int
    n_used_md: int  # probes kept after dropping distance-floor saturation


def fit_raw_feature_stats(dataset: TaskDataset) -> scoring.TaskStats:
    """Task statistics fitted directly on raw feature vectors (no network)."""
    return trainer.fit_task_gaussian(dataset.train_x, dataset, _RAW_STATS_RIDGE)


def density_estimator_check(
    dataset: TaskDataset,
    stats: scoring.TaskStats,
    n_probes: int,
    seed: int = 0,
) -> DensityCheck:
    """How faithfully the two distance scores rank by density.

    Probes are drawn from the task's true class mixture.  The inverse-
    Mahalanobis score is compared against the largest per-class log-density
    under the *fitted* model: with one shared covariance both are monotone in
    the same minimal distance, so their rank correlation is exactly 1 (floor-
    saturated probes excluded).  Both read their distances from the shared
    whitened-difference kernel ``numerics.whitened_sq`` with the fitted
    precision's factor (never the expanded quadratic form, which cancels
    near a centroid).  The negated
    ``DENSITY_KNN_K``-th-neighbor distance over the task's own training
    vectors is compared against the *true* mixture log-density
    (``data.mixture_log_density``); its agreement is limited by the
    training-sample size.

    The neighbor distance here is the raw Euclidean one — the plain fixed-k
    density estimator.  The unit-sphere normalization the detector applies is
    deliberately skipped: projecting probes onto the sphere discards the
    radial component of the density and caps the attainable rank agreement.
    """
    if dataset.means is None:
        raise NoDensityAvailable(
            f"task {dataset.task_id} has no generative description"
        )
    if dataset.train_x.shape[0] < 2:
        raise NoVariance("density comparison needs at least two training samples")
    if n_probes < MIN_PROBES:
        raise ValueError(f"need at least {MIN_PROBES} probe points")

    root = RngState(seed)
    which = root.stream("probe-class").integers(0, dataset.n_classes, n_probes)
    probes = sample_mixture(dataset.means, dataset.cov_diag, which,
                            root.stream("probe-noise"))

    sign, logdet_precision = np.linalg.slogdet(stats.precision)
    if sign <= 0:
        raise NoVariance("fitted precision matrix is not positive definite")
    md = scoring.md_score(probes, stats)
    d2_min = np.min(whitened_sq(probes, stats.class_means, stats.precision_factor), axis=1)
    fitted_logpdf = -0.5 * (
        d2_min + dataset.dim * math.log(2.0 * math.pi) - logdet_precision
    )
    keep = md < 1.0 / scoring.MD_FLOOR
    if int(np.sum(keep)) < 3:
        raise NoVariance("all probes saturated the distance floor")
    md_rho = spearman(md[keep], fitted_logpdf[keep])

    # |p|^2 - 2 p.x + |x|^2, the same operations in the same order as the
    # expression written out, built in one [probes, train] array
    gram = 2.0 * probes @ dataset.train_x.T
    np.subtract(np.sum(probes**2, axis=1)[:, None], gram, out=gram)
    gram += np.sum(dataset.train_x**2, axis=1)
    knn_dist = kth_distance(gram, DENSITY_KNN_K)
    knn_rho = spearman(-knn_dist, mixture_log_density(dataset, probes))
    if not (np.isfinite(md_rho) and np.isfinite(knn_rho)):
        raise NoVariance("rank correlation undefined: a score column is constant")
    return DensityCheck(
        md_spearman=md_rho,
        knn_spearman=knn_rho,
        n_probes=int(n_probes),
        n_used_md=int(np.sum(keep)),
    )
