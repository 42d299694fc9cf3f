import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata, spearmanr

from tpl import numerics
from tpl.errors import EmptyInput, NonPositiveTemperature, NotPositiveDefinite, NotSymmetric


# --- spd_inverse ------------------------------------------------------------

def test_spd_inverse_identity():
    out = numerics.spd_inverse(np.eye(3))
    assert np.allclose(out, np.eye(3), atol=1e-12)


def test_spd_inverse_diagonal():
    out = numerics.spd_inverse(np.diag([4.0, 2.0]))
    assert np.allclose(out, np.diag([0.25, 0.5]), atol=1e-12)


def test_spd_inverse_random_roundtrip():
    # inverse must actually invert: M @ inv(M) = I within 1e-6 on random SPD
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        a = rng.standard_normal((n, n))
        m = a @ a.T + n * np.eye(n)
        inv = numerics.spd_inverse(m)
        assert np.allclose(m @ inv, np.eye(n), atol=1e-6)
        assert np.array_equal(inv, inv.T)


def test_spd_inverse_rejects_asymmetric():
    m = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NotSymmetric):
        numerics.spd_inverse(m)


def test_spd_inverse_rejects_negative_definite():
    with pytest.raises(NotPositiveDefinite):
        numerics.spd_inverse(-np.eye(2))


def test_spd_inverse_ridge_escalation_recovers_singular(caplog):
    # rank-deficient PSD matrix: plain Cholesky fails, escalated ridge succeeds
    m = np.array([[1.0, 1.0], [1.0, 1.0]])
    with caplog.at_level("WARNING"):
        inv = numerics.spd_inverse(m, ridge=0.0)
    assert np.all(np.isfinite(inv))
    assert any("escalated" in r.message for r in caplog.records)


# --- flush_subnormals ----------------------------------------------------------

_MANTISSA = (1 << 52) - 1
#: float64 bit patterns, the subnormal exponent 0 and the edge exponents often
FLOAT_BITS = st.builds(
    lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
    st.integers(0, 1),
    st.sampled_from([0, 0, 1, 2046, 2047]) | st.integers(0, 2047),
    st.sampled_from([0, 1, _MANTISSA, 1 << 51]) | st.integers(0, _MANTISSA))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(bits=st.lists(FLOAT_BITS, max_size=40))
@example(bits=[0, 1 << 63,                      # +0 and -0
               1, _MANTISSA, 1 << 63 | 1,       # subnormals, both signs
               1 << 52, 1 << 63 | 1 << 52,      # the smallest normals
               2047 << 52, 1 << 63 | 2047 << 52,  # +inf and -inf
               2047 << 52 | 1, 1 << 63 | 2047 << 52 | 1 << 51 | 5])  # nan payloads
def test_flush_subnormals_zeroes_exactly_the_nonzero_subnormals(bits):
    before = np.array(bits, dtype=np.uint64)
    a = before.copy().view(np.float64)
    assert numerics.flush_subnormals(a) is a
    exponent, mantissa = before >> np.uint64(52) & np.uint64(2047), before & np.uint64(_MANTISSA)
    subnormal = (exponent == 0) & (mantissa != 0)
    want = np.where(subnormal, np.uint64(0), before)  # +0.0
    assert a.view(np.uint64).tolist() == want.tolist()


# --- log_sum_exp ------------------------------------------------------------

def test_log_sum_exp_handles_large_values():
    assert math.isclose(numerics.log_sum_exp([1000.0, 1000.0]), 1000.0 + math.log(2.0),
                        rel_tol=0, abs_tol=1e-9)


def test_log_sum_exp_single():
    assert numerics.log_sum_exp([3.5]) == 3.5


def test_log_sum_exp_empty():
    with pytest.raises(EmptyInput):
        numerics.log_sum_exp([])


def test_log_sum_exp_matches_direct_formula():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = rng.uniform(-5, 5, size=int(rng.integers(1, 12)))
        direct = math.log(np.sum(np.exp(v)))
        assert math.isclose(numerics.log_sum_exp(v), direct, rel_tol=0, abs_tol=1e-9)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=20),
       st.floats(-50, 50))
def test_log_sum_exp_shift_identity(vals, shift):
    v = np.array(vals)
    lhs = numerics.log_sum_exp(v + shift)
    rhs = numerics.log_sum_exp(v) + shift
    assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-9)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
def test_log_sum_exp_bounds(vals):
    v = np.array(vals)
    out = numerics.log_sum_exp(v)
    assert out >= np.max(v) - 1e-12
    assert out <= np.max(v) + math.log(len(vals)) + 1e-12


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 9, 130])
def test_log_sum_exp_rows_match_vectors_bitwise(k):
    m = np.random.default_rng(k).uniform(-50, 50, size=(6, k))
    m[1] = -np.inf                      # all -inf row
    m[2, 0] = -np.inf
    m[3] += 1000.0
    out = numerics.log_sum_exp(m)
    assert out.shape == (6,)
    assert bits(out) == bits([numerics.log_sum_exp(row) for row in m])
    assert out[1] == -np.inf
    # any leading shape: the reduction is over the last axis only
    assert bits(numerics.log_sum_exp(m.reshape(2, 3, k))) == bits(out)


def test_log_sum_exp_last_axis_shapes():
    assert numerics.log_sum_exp(np.empty((0, 4))).shape == (0,)
    with pytest.raises(EmptyInput):
        numerics.log_sum_exp(np.empty((3, 0)))


# --- softmax ----------------------------------------------------------------

def test_softmax_uniform():
    out = numerics.softmax([2.0, 2.0, 2.0, 2.0])
    assert np.allclose(out, 0.25, atol=1e-12)


def test_softmax_shift_invariance():
    v = np.array([0.3, -1.2, 4.0])
    assert np.allclose(numerics.softmax(v), numerics.softmax(v + 123.0), atol=1e-12)


def test_softmax_temperature_sharpens():
    v = np.array([1.0, 0.0])
    hot = numerics.softmax(v, temperature=10.0)
    cold = numerics.softmax(v, temperature=0.05)
    assert cold[0] > hot[0]
    assert cold[0] > 0.999999


def test_softmax_tiny_temperature_stays_finite():
    # 1 / 1e-310 overflows: the row is shifted by its max before the division
    assert numerics.softmax([0.0, 1.0], 1e-310).tolist() == [0.0, 1.0]
    v = np.array([[0.0, 1.0], [2e-310, 1e-310], [1e-300, -1e-300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = numerics.softmax(v, 1e-310)
    assert out[0].tolist() == [0.0, 1.0]
    # rows that do not overflow keep the bits of the shift-free formula
    e = np.exp(v[1:] / 1e-310 - np.max(v[1:] / 1e-310, axis=1, keepdims=True))
    assert out[1:].tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()


def test_softmax_rejects_bad_temperature():
    with pytest.raises(NonPositiveTemperature):
        numerics.softmax([1.0], temperature=0.0)
    with pytest.raises(EmptyInput):
        numerics.softmax([])


@settings(max_examples=200)
@given(st.lists(st.floats(-500, 500), min_size=1, max_size=30),
       st.floats(0.01, 100.0))
def test_softmax_simplex(vals, temp):
    out = numerics.softmax(np.array(vals), temperature=temp)
    assert np.all(out >= 0)
    assert math.isclose(float(np.sum(out)), 1.0, rel_tol=0, abs_tol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 9, 130])
def test_softmax_rows_match_vectors_bitwise(k):
    m = np.random.default_rng(k).uniform(-50, 50, size=(6, k))
    m[2, 0] = -np.inf if k > 1 else 0.0   # an all -inf row has no softmax
    m[3] += 1000.0
    out = numerics.softmax(m, temperature=0.3)
    assert out.shape == m.shape
    assert bits(out) == bits([numerics.softmax(row, temperature=0.3) for row in m])
    assert bits(numerics.softmax(m.reshape(2, 3, k), temperature=0.3)) == bits(out)


def test_softmax_last_axis_shapes():
    assert numerics.softmax(np.empty((0, 4))).shape == (0, 4)
    with pytest.raises(EmptyInput):
        numerics.softmax(np.empty((3, 0)))


# --- stable reductions ------------------------------------------------------

def test_stable_sum_is_compensated():
    assert numerics.stable_sum([1e16, 1.0, -1e16]) == 1.0


def test_stable_mean():
    assert numerics.stable_mean([1.0, 2.0, 3.0, 4.0]) == 2.5
    with pytest.raises(EmptyInput):
        numerics.stable_mean([])


# --- RngState ---------------------------------------------------------------

GOLDEN_WEIGHTS_SEED7 = [
    0.25047406477964684, -1.64496419936198, 0.2182566177495749, -0.8403416783401414,
]


def test_rng_golden_sequence():
    # frozen once; a change here means reproducibility across versions broke
    draws = numerics.RngState(7).stream("weights").standard_normal(4)
    assert draws.tolist() == GOLDEN_WEIGHTS_SEED7


def test_rng_golden_permutation():
    perm = numerics.RngState(7).stream("shuffle").permutation(8)
    assert perm.tolist() == [2, 0, 1, 6, 3, 7, 4, 5]


def test_rng_same_name_same_stream():
    a = numerics.RngState(123).stream("x").standard_normal(8)
    b = numerics.RngState(123).stream("x").standard_normal(8)
    assert np.array_equal(a, b)


def test_rng_different_names_independent():
    a = numerics.RngState(123).stream("x").standard_normal(8)
    b = numerics.RngState(123).stream("y").standard_normal(8)
    assert not np.array_equal(a, b)


def test_rng_child_does_not_disturb_parent():
    root = numerics.RngState(5)
    _ = root.stream("a").standard_normal(100)
    first = root.stream("b").standard_normal(3)
    again = numerics.RngState(5).stream("b").standard_normal(3)
    assert np.array_equal(first, again)


def test_rng_nested_streams_distinct():
    a = numerics.RngState(9).stream("a").stream("b").uniform(0, 1, 5)
    b = numerics.RngState(9).stream("b").stream("a").uniform(0, 1, 5)
    assert not np.array_equal(a, b)


def test_rng_sample_without_replacement():
    idx = numerics.RngState(3).stream("buf").sample_without_replacement(10, 4)
    assert len(set(idx.tolist())) == 4
    assert all(0 <= i < 10 for i in idx)
    with pytest.raises(ValueError):
        numerics.RngState(3).sample_without_replacement(3, 4)


# --- average_ranks / spearman -------------------------------------------------

#: Values that tie often, with both infinities and both zeros among them.
TIED_VALUES = st.one_of(st.sampled_from([-math.inf, -2.0, -0.0, 0.0, 0.5, 3.0, math.inf]),
                        st.floats(allow_nan=False))


@settings(max_examples=300)
@given(st.lists(TIED_VALUES, max_size=40))
def test_average_ranks_equal_rankdata_bit_for_bit(values):
    assert numerics.average_ranks(values).tobytes() == rankdata(values).tobytes()


def test_average_ranks_tie_groups_share_their_mean_rank():
    assert numerics.average_ranks([3.0, 1.0, 3.0, -0.0, 0.0]).tolist() == [4.5, 3.0, 4.5,
                                                                           1.5, 1.5]


def test_average_ranks_with_a_nan_are_all_nan():
    ranks = numerics.average_ranks([1.0, math.nan, 0.0])
    assert np.isnan(ranks).all() and np.isnan(rankdata([1.0, math.nan, 0.0])).all()


@settings(max_examples=100)
@given(st.integers(2, 40).flatmap(
    lambda n: st.tuples(st.lists(TIED_VALUES, min_size=n, max_size=n),
                        st.lists(TIED_VALUES, min_size=n, max_size=n))))
def test_spearman_equals_spearmanr_bit_for_bit(pair):
    a, b = pair
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # spearmanr warns on a constant side
        want = spearmanr(a, b)[0]
    got = numerics.spearman(a, b)
    assert got == want or (math.isnan(got) and math.isnan(want))


def test_spearman_of_random_columns_equals_spearmanr_bit_for_bit():
    rng = np.random.default_rng(3)
    for i in range(300):
        n = int(rng.integers(2, 2000))
        a = rng.standard_normal(n)
        b = a + rng.standard_normal(n) if i % 2 else np.round(rng.standard_normal(n), 1)
        assert numerics.spearman(a, b) == spearmanr(a, b)[0]


@pytest.mark.parametrize("a,b", [([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),
                                 ([1.0, math.nan, 2.0], [1.0, 2.0, 3.0]),
                                 ([1.0], [2.0])])
def test_spearman_undefined_is_nan_without_a_warning(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(numerics.spearman(a, b))
