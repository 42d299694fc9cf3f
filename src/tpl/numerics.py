"""Shared numeric kernels: SPD inversion, a precision's Cholesky factor, the
whitened Mahalanobis distance, the diagonal-Gaussian log-density, the
in-place k-th order statistic, average ranks and the rank correlation, stable
reductions, seeded RNG streams, and the integer and real value checks every
input parser uses.

Conventions used throughout the package:

* vectors and matrices are float64 numpy arrays;
* reductions that feed exact metric identities go through ``stable_sum`` /
  ``stable_mean`` (compensated summation) so results are reproducible to 1e-12;
* randomness is only drawn through ``RngState`` streams, which are derived from
  a single run seed by name, so independent consumers (data generation, weight
  init, shuffling, buffer sampling) never share a bit stream.
"""

from __future__ import annotations

import hashlib
import logging
import math
import numbers
from typing import Sequence

import numpy as np

from .errors import EmptyInput, NonPositiveTemperature, NotPositiveDefinite, NotSymmetric

logger = logging.getLogger(__name__)

#: Largest ridge tried during SPD escalation before giving up.
MAX_RIDGE = 1e-3

#: Smallest nonzero ridge used when the caller passed 0 and escalation starts.
MIN_ESCALATION_RIDGE = 1e-10

SYMMETRY_TOL = 1e-8


def check_int(name: str, v, least: int) -> None:
    """Require an integer (not a bool, not a float) of at least ``least``."""
    if not isinstance(v, numbers.Integral) or isinstance(v, bool):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    if v < least:
        raise ValueError(f"{name} must be >= {least}, got {v}")


def check_real(name: str, v) -> float:
    """Require a real number (not a bool) that is finite as a float; return it
    as a float."""
    try:
        ok = isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite number, got {v!r}")
    return float(v)


def spd_inverse(m: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Invert a symmetric positive-definite matrix via Cholesky.

    ``ridge * I`` is added before factorization.  If the factorization fails,
    the ridge is escalated by factors of 10 (starting from the caller's value,
    or from a tiny floor when the caller passed 0) up to ``MAX_RIDGE``; each
    escalation is logged.  Raises ``NotSymmetric`` if ``m`` is not symmetric to
    tolerance, ``NotPositiveDefinite`` if no tried ridge succeeds.

    The result is exactly symmetric (symmetrized after the solve).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NotSymmetric("matrix has non-finite entries")
    asym = np.max(np.abs(m - m.T)) if m.size else 0.0
    if asym > SYMMETRY_TOL:
        raise NotSymmetric(f"matrix asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}")
    if ridge < 0:
        raise ValueError("ridge must be non-negative")

    n = m.shape[0]
    eye = np.eye(n)
    current = float(ridge)
    while True:
        try:
            chol = np.linalg.cholesky(m + current * eye)
        except np.linalg.LinAlgError:
            nxt = max(current * 10.0, MIN_ESCALATION_RIDGE)
            if nxt > MAX_RIDGE:
                raise NotPositiveDefinite(
                    f"matrix not positive definite up to ridge {MAX_RIDGE:.0e}"
                ) from None
            logger.warning("spd_inverse: ridge escalated %.3e -> %.3e", current, nxt)
            current = nxt
            continue
        break

    # chol @ chol.T = m + ridge*I ; solve twice against the identity.
    half = np.linalg.solve(chol, eye)
    inv = np.linalg.solve(chol.T, half)
    return (inv + inv.T) / 2.0


def flush_subnormals(a: np.ndarray) -> np.ndarray:
    """Set every nonzero subnormal entry of the float64 array ``a``
    (0 < |x| < ``np.finfo(float).tiny``) to +0.0, in place, and return ``a``.
    Every other bit is kept: ±0, normal values, ±inf and nan payloads.

    The scoring operands a run stores (each precision's factor, the class
    means and the KNN index rows) are flushed once, when they are built: the
    CPU multiplies subnormals slowly, and removing them changes no result of
    ``whitened_sq`` or of the KNN search when features, class means and
    factor entries are at most 1e6 in magnitude and index rows are unit
    rows.  Under that bound each product a flushed entry enters is below
    2.3e-302 (2.3e-308 in a KNN inner product), under half an ulp of any
    partial sum above about 1e-285, so rounding absorbs it.  A smaller
    partial sum moves a larger one only at an exact rounding tie; short of
    one it stays below 1e-285, where a whitened coordinate squares to 0 and
    a KNN inner product vanishes in ``2 + 2t``."""
    sub = np.abs(a) < np.finfo(np.float64).tiny
    np.logical_and(sub, a != 0.0, out=sub)
    a[sub] = 0.0
    return a


def precision_factor(precision: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor ``L`` of a precision, ``precision = L Lᵀ``,
    the matrix ``whitened_sq`` whitens with, with its subnormal entries
    flushed to 0 (``flush_subnormals``: no distance changes, and the
    whitening GEMM no longer slows down on them).  Raises
    ``NotPositiveDefinite`` when the precision has none."""
    try:
        return flush_subnormals(np.linalg.cholesky(precision))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("precision matrix is not positive definite") from None


def whitened_sq(x: np.ndarray, means: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distance of every row of ``x`` to every mean, [n, c],
    under the precision ``factor @ factor.T``.

    Each class's *differences* are whitened, ``sum(((x - μ) L)²)``: one matrix
    product per class, into buffers allocated once per call.  The expanded
    form ``‖xL‖² − 2 xL·μL + ‖μL‖²`` must not be used instead; it cancels
    catastrophically for rows near a centroid, exactly where the inverse
    distance ``1/d²`` is most sensitive.

    The stored factors and means hold no subnormal entry, which the GEMM
    multiplies slowly; flushing them (``flush_subnormals``) leaves every
    distance's bits as they were.
    """
    x = np.atleast_2d(x)
    out = np.empty((x.shape[0], means.shape[0]))
    # ``diff`` takes x's memory layout, as ``x - mu`` would: the GEMM then
    # sees the same operands, and each bit matches the one-expression form.
    diff = np.empty_like(x, dtype=np.float64)
    w = np.empty((x.shape[0], factor.shape[1]))
    for j, mu in enumerate(means):
        np.subtract(x, mu, out=diff)
        np.matmul(diff, factor, out=w)
        np.multiply(w, w, out=w)
        np.sum(w, axis=1, out=out[:, j])
    return out


def diag_gaussian_logpdf(x: np.ndarray, mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Log-density of each row of ``x`` [n, d] under N(mean, diag(var)): [n]."""
    diff = x - mean
    quad = np.sum(diff * diff / var, axis=1)
    log_norm = float(np.sum(np.log(2.0 * math.pi * var)))
    return -0.5 * (quad + log_norm)


def kth_smallest(a: np.ndarray, k: int) -> np.ndarray:
    """Each row's k-th smallest entry of ``a`` [n, m] (its largest when the
    row has fewer than k; nan sorts last), as a view of one column of ``a``.

    ``a`` is partitioned in place, not copied: pass a temporary that has no
    further use, and map only the n selected values through any monotone
    transform instead of the whole matrix."""
    kth = min(k, a.shape[1]) - 1
    a.partition(kth, axis=1)
    return a[:, kth]


def kth_distance(d2: np.ndarray, k: int) -> np.ndarray:
    """Square root of each row's k-th smallest squared distance in ``d2``
    [n, m], clamped at 0 (the largest one when a row has fewer than k).
    ``d2`` is reordered in place (``kth_smallest``).

    The clamp is applied after the selection: ``max(·, 0)`` is monotone, so
    the result is bit-identical to selecting on clamped values."""
    return np.sqrt(np.maximum(kth_smallest(d2, k), 0.0))


def average_ranks(values: np.ndarray | Sequence[float]) -> np.ndarray:
    """1-based ranks of the entries of ``values`` (flattened), each tie group
    sharing its mean rank: ``scipy.stats.rankdata(values)`` bit for bit.

    Any nan makes every rank nan.  The sort need not be stable: tied entries
    get the same rank in whatever order it leaves them, and every rank is a
    half-integer, so the mean ``first + (count - 1) / 2`` is exact.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size and np.isnan(v).any():
        return np.full(v.size, np.nan)
    order = np.argsort(v)
    s = v[order]
    first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    counts = np.diff(first, append=v.size)
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(first + 1 + (counts - 1) / 2.0, counts)
    return ranks


def spearman(a: np.ndarray | Sequence[float], b: np.ndarray | Sequence[float]) -> float:
    """Spearman's rank correlation: the Pearson correlation of the average
    ranks of ``a`` and ``b``, ``scipy.stats.spearmanr(a, b)[0]`` bit for bit.

    nan, without a warning, when either side is constant, holds a nan or has
    fewer than two entries.  It reads ``corrcoef(...)[1, 0]``, the element
    scipy returns; ``[0, 1]`` can differ in the last bit.
    """
    ra, rb = average_ranks(a), average_ranks(b)
    if ra.size < 2:
        return math.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.corrcoef(ra, rb)[1, 0])


def log_sum_exp(v: np.ndarray | Sequence[float]) -> float | np.ndarray:
    """Numerically stable ``log(sum(exp(v)))`` over the last axis.

    A 1-D input gives a float, an ``[..., k]`` input one value per row.  A
    row of all -inf gives -inf and a +inf or nan entry propagates as is.
    Raises ``EmptyInput`` when the last axis is empty.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise EmptyInput("log_sum_exp of an empty vector")
    hi = np.max(v, axis=-1, keepdims=True)
    # A row whose max is not finite is its own result: shift it by 0 and
    # replace it at the end.  A row with a finite max sums to >= 1 (its max
    # term is exp(0)), so the floor at 1 only spares an all -inf row log(0).
    finite = np.isfinite(hi)
    shift = np.where(finite, hi, 0.0)
    total = np.maximum(np.sum(np.exp(v - shift), axis=-1, keepdims=True), 1.0)
    out = np.where(finite, shift + np.log(total), hi)[..., 0]
    return float(out) if v.ndim == 1 else out


def softmax(v: np.ndarray | Sequence[float], temperature: float = 1.0) -> np.ndarray:
    """Temperature softmax over the last axis: ``exp(v/T) / sum(exp(v/T))``,
    computed shift-free.

    A row whose ``v/T`` overflows (a tiny T) is shifted by its max before the
    division instead, so it stays finite; the other rows keep their bits.
    Raises ``NonPositiveTemperature`` for T <= 0 and ``EmptyInput`` when the
    last axis is empty.  Each row sums to 1 up to float rounding and is
    invariant to adding a constant to it.
    """
    if temperature <= 0:
        raise NonPositiveTemperature(f"temperature must be > 0, got {temperature}")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise EmptyInput("softmax of an empty vector")
    with np.errstate(over="ignore"):
        scaled = v / float(temperature)
        overflow = ~np.isfinite(scaled).all(axis=-1, keepdims=True)
        if overflow.any():
            shifted = (v - np.max(v, axis=-1, keepdims=True)) / float(temperature)
            scaled = np.where(overflow, shifted, scaled)
    scaled = scaled - np.max(scaled, axis=-1, keepdims=True)
    e = np.exp(scaled)
    return e / np.sum(e, axis=-1, keepdims=True)


def stable_sum(values: Sequence[float] | np.ndarray) -> float:
    """Compensated (exact-rounded) sum of floats; order-insensitive in practice."""
    return math.fsum(np.asarray(values, dtype=np.float64).ravel().tolist())


def stable_mean(values: Sequence[float] | np.ndarray) -> float:
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise EmptyInput("mean of an empty vector")
    return stable_sum(v) / v.size


def _name_words(name: str) -> tuple[int, int]:
    """Stable 2x32-bit key for a stream name (sha256 based, platform independent)."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return (
        int.from_bytes(digest[0:4], "little"),
        int.from_bytes(digest[4:8], "little"),
    )


class RngState:
    """A named, splittable random stream backed by the Philox counter generator.

    ``RngState(seed)`` is the root.  ``stream(name)`` derives an independent
    child keyed by the (seed, lineage-of-names) pair: same seed and same call
    sequence give bitwise-identical draws, and differently named streams are
    statistically independent.  Draw methods advance this stream's counter.
    """

    def __init__(self, seed: int, _path: tuple[int, ...] = ()):
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.seed = int(seed)
        self.path = _path
        ss = np.random.SeedSequence(self.seed, spawn_key=_path)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def stream(self, name: str) -> "RngState":
        """Derive the independent child stream for ``name`` (fresh position)."""
        return RngState(self.seed, self.path + _name_words(name))

    # -- draws ---------------------------------------------------------------

    def standard_normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(size=shape)

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), order randomized."""
        if k > n:
            raise ValueError(f"cannot draw {k} distinct items from {n}")
        return self._gen.choice(n, size=k, replace=False)
