"""Gaussian-pair test-bed: exact ratio values, quadrature oracle, dominance."""
import dataclasses
import math
import tracemalloc
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special, stats

from tpl import scoring, theory_lab
from tpl.data import TaskDataset, generate_gaussian_stream
from tpl.errors import IntegrationFailure, NoDensityAvailable, NoVariance
from tpl.numerics import RngState
from tpl.theory_lab import (
    FIXTURE_PAIRS,
    GaussianPair,
    density_estimator_check,
    empirical_aucs,
    empirical_type1_rate,
    fit_raw_feature_stats,
    log_likelihood_ratio,
    lr_threshold_for_type1,
    oracle_auc,
    quadratic_coefficients,
    score_samples,
)

# Ranking probabilities for every fixture pair and scorer, frozen from an
# offline noncentral-chi-square quadrature route (independent of the
# superlevel-set oracle under test) and cross-checked against Monte Carlo at
# four million draws a side.
GOLD_AUC = {
    ("narrow_impostor", "lr"): 0.9365489651,
    ("narrow_impostor", "p_t_only"): 0.0634510349,
    ("narrow_impostor", "p_tc_only_negated"): 0.9365489651,
    ("narrow_impostor", "mean_difference"): 0.5,
    ("mean_shift", "lr"): 0.9213503965,
    ("mean_shift", "p_t_only"): 0.8550723132,
    ("mean_shift", "p_tc_only_negated"): 0.8550723132,
    ("mean_shift", "mean_difference"): 0.9213503965,
    ("offset_widths", "lr"): 0.8376747171,
    ("offset_widths", "p_t_only"): 0.4773749334,
    ("offset_widths", "p_tc_only_negated"): 0.8334966408,
    ("offset_widths", "mean_difference"): 0.7364553716,
}

# Threshold on the log-ratio putting exactly 5% of the narrow-impostor null
# above it; equals ln(0.1) + 49.5 * (0.1 * z_{0.975})^2.
GOLD_LAMBDA_05 = -0.401062976750


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


pairs_1d = st.builds(GaussianPair, finite(-5, 5), finite(0.05, 9),
                     finite(-5, 5), finite(0.05, 9))


def roles_exchanged(pair: GaussianPair) -> GaussianPair:
    """The pair with positive and negative densities exchanged."""
    return GaussianPair(pair.mean_c, pair.var_c, pair.mean_t, pair.var_t,
                        n_samples=pair.n_samples, seed=pair.seed)


# --- construction ------------------------------------------------------------

def test_rejects_non_positive_variances():
    with pytest.raises(ValueError):
        GaussianPair(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        GaussianPair(0.0, 1.0, 0.0, -2.0)


def test_rejects_mismatched_parameter_shapes():
    # each parameter is one finite float: a vector or a nan is refused
    with pytest.raises(ValueError):
        GaussianPair([0.0, 1.0], [1.0, 1.0], 0.0, 1.0)
    with pytest.raises(ValueError):
        GaussianPair(np.array([0.0]), 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        GaussianPair(0.0, 1.0, float("nan"), 1.0)


def test_rejects_empty_sample_budget():
    with pytest.raises(ValueError):
        GaussianPair(0.0, 1.0, 0.0, 1.0, n_samples=0)


def test_swapped_exchanges_roles():
    # with the roles exchanged, the positive density is the old negative one
    pair = FIXTURE_PAIRS["offset_widths"]
    xs = np.linspace(-4.0, 4.0, 17)
    np.testing.assert_array_equal(
        score_samples(roles_exchanged(pair), "p_t_only", xs),
        -score_samples(pair, "p_tc_only_negated", xs),
    )


# --- exact log-ratio ---------------------------------------------------------

def test_log_ratio_hand_values_on_narrow_impostor():
    pair = FIXTURE_PAIRS["narrow_impostor"]
    assert log_likelihood_ratio(pair, 0.0) == pytest.approx(math.log(0.1), abs=1e-12)
    assert log_likelihood_ratio(pair, 1.0) == pytest.approx(
        math.log(0.1) + 49.5, abs=1e-9
    )


def test_log_ratio_identical_densities_is_zero():
    pair = GaussianPair(0.3, 2.0, 0.3, 2.0)
    xs = np.linspace(-6.0, 6.0, 25)
    np.testing.assert_allclose(log_likelihood_ratio(pair, xs), 0.0, atol=1e-12)


@settings(max_examples=100)
@given(pairs_1d, st.lists(finite(-8, 8), min_size=1, max_size=12))
def test_log_ratio_antisymmetric_under_swap(pair, xs):
    xs = np.array(xs)
    forward = log_likelihood_ratio(pair, xs)
    backward = log_likelihood_ratio(roles_exchanged(pair), xs)
    np.testing.assert_allclose(forward, -backward, atol=1e-10)


@settings(max_examples=100)
@given(pairs_1d, st.lists(finite(-8, 8), min_size=1, max_size=12))
def test_scores_equal_their_quadratic_form(pair, xs):
    # an independent oracle: scipy's normal log-densities and the projection
    # written out, against the statistics defined by their quadratics
    xs = np.array(xs)
    log_pt = stats.norm.logpdf(xs, pair.mean_t, math.sqrt(pair.var_t))
    log_ptc = stats.norm.logpdf(xs, pair.mean_c, math.sqrt(pair.var_c))
    oracle = {
        "lr": log_pt - log_ptc,
        "p_t_only": log_pt,
        "p_tc_only_negated": -log_ptc,
        "mean_difference": xs * (pair.mean_t - pair.mean_c),
    }
    assert sorted(oracle) == sorted(theory_lab.SCORER_NAMES)
    for name, expect in oracle.items():
        np.testing.assert_allclose(
            score_samples(pair, name, xs), expect, rtol=1e-9, atol=1e-9
        )


def test_unknown_scorer_rejected():
    pair = FIXTURE_PAIRS["mean_shift"]
    # the former alias spellings are unknown names too
    for name in ("does_not_exist", "likelihood_ratio", "mean_distance"):
        with pytest.raises(ValueError, match="unknown scorer"):
            oracle_auc(pair, name)


# --- quadrature oracle -------------------------------------------------------

def test_oracle_matches_frozen_table():
    for (pair_name, scorer), expected in GOLD_AUC.items():
        got = oracle_auc(FIXTURE_PAIRS[pair_name], scorer)
        assert got == pytest.approx(expected, abs=1e-8), (pair_name, scorer)


def test_oracle_closed_forms():
    narrow = FIXTURE_PAIRS["narrow_impostor"]
    folded = (2.0 / math.pi) * math.atan(0.1)  # P(|N(0,1)| < 0.1 |N(0,1)|)
    assert oracle_auc(narrow, "lr") == pytest.approx(1.0 - folded, abs=1e-9)
    assert oracle_auc(narrow, "p_t_only") == pytest.approx(folded, abs=1e-9)
    assert oracle_auc(narrow, "mean_difference") == 0.5

    shift = FIXTURE_PAIRS["mean_shift"]
    phi = NormalDist().cdf(math.sqrt(2.0))
    assert oracle_auc(shift, "lr") == pytest.approx(phi, abs=1e-9)
    assert oracle_auc(shift, "mean_difference") == pytest.approx(phi, abs=1e-9)


def test_oracle_identical_densities_is_chance():
    pair = GaussianPair(1.0, 0.7, 1.0, 0.7)
    assert oracle_auc(pair, "lr") == 0.5  # constant statistic, all ties
    assert oracle_auc(pair, "p_t_only") == pytest.approx(0.5, abs=1e-6)


def test_oracle_lr_invariant_under_role_swap():
    # The swapped problem's own log-ratio is the negation of the original,
    # so it separates the swapped roles exactly as well.
    for pair in FIXTURE_PAIRS.values():
        assert oracle_auc(roles_exchanged(pair), "lr") == pytest.approx(
            oracle_auc(pair, "lr"), abs=1e-9
        )


def test_ratio_dominates_every_alternative():
    for name, pair in FIXTURE_PAIRS.items():
        base = oracle_auc(pair, "lr")
        for other in ("p_t_only", "p_tc_only_negated", "mean_difference"):
            assert base >= oracle_auc(pair, other) - 1e-4, (name, other)


def test_dominance_margins_match_frozen_gaps():
    narrow = FIXTURE_PAIRS["narrow_impostor"]
    assert oracle_auc(narrow, "lr") - oracle_auc(narrow, "p_t_only") == pytest.approx(
        0.8730979303, abs=1e-8
    )
    offset = FIXTURE_PAIRS["offset_widths"]
    gap = oracle_auc(offset, "lr") - oracle_auc(offset, "p_tc_only_negated")
    assert gap == pytest.approx(0.0041780763, abs=1e-8)
    assert gap > 0.004  # the one strictly-contested alternative stays behind


# --- Monte-Carlo estimator ---------------------------------------------------

def test_empirical_tracks_oracle():
    cases = [
        ("narrow_impostor", "lr"),
        ("mean_shift", "p_t_only"),
        ("offset_widths", "mean_difference"),
    ]
    n = 10_000
    for pair_name, scorer in cases:
        for seed in (0, 1):
            pair = dataclasses.replace(FIXTURE_PAIRS[pair_name], n_samples=n, seed=seed)
            est = empirical_aucs(pair, (scorer,))[scorer]
            assert abs(est - GOLD_AUC[(pair_name, scorer)]) <= 5.0 / math.sqrt(n)


def test_empirical_identical_densities():
    pair = GaussianPair(0.0, 1.0, 0.0, 1.0, n_samples=2000, seed=5)
    # Constant ratio: every comparison ties, midranks give exactly one half.
    assert empirical_aucs(pair, ("lr",)) == {"lr": 0.5}
    est = empirical_aucs(dataclasses.replace(pair, n_samples=4000), ("p_t_only",))["p_t_only"]
    assert abs(est - 0.5) <= 3.0 / math.sqrt(4000)


def test_empirical_needs_enough_draws():
    with pytest.raises(ValueError):
        empirical_aucs(dataclasses.replace(FIXTURE_PAIRS["mean_shift"], n_samples=999))


def test_empirical_defaults_come_from_the_pair():
    pair = GaussianPair(2.0, 1.0, 0.0, 1.0, n_samples=1500, seed=9)
    lr = empirical_aucs(pair, ("lr",))
    assert lr == empirical_aucs(pair, ("lr",))
    assert lr != empirical_aucs(dataclasses.replace(pair, seed=10), ("lr",))
    assert lr != empirical_aucs(dataclasses.replace(pair, n_samples=1501), ("lr",))


def test_shared_draws_give_each_scorers_own_estimate():
    for pair in FIXTURE_PAIRS.values():
        pair = dataclasses.replace(pair, n_samples=2000, seed=4)
        shared = empirical_aucs(pair)
        assert list(shared) == list(theory_lab.SCORER_NAMES)
        for scorer, value in shared.items():
            assert empirical_aucs(pair, (scorer,)) == {scorer: value}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("pair_name", sorted(FIXTURE_PAIRS))
def test_empirical_aucs_equal_the_two_search_count_bit_for_bit(pair_name, seed):
    """Each estimate is 2U / (2·n·m), with 2U the sum of both ``searchsorted``
    counts of the in side against sorted copies of the out side: the one
    search ``ood_auc`` makes when nothing ties gives the same float."""
    pair = dataclasses.replace(FIXTURE_PAIRS[pair_name], n_samples=10_000, seed=seed)
    root = RngState(seed)
    xs = pair.sample_t(pair.n_samples, root.stream("in-task-draws"))
    ys = pair.sample_c(pair.n_samples, root.stream("out-task-draws"))
    got = empirical_aucs(pair)
    for scorer in theory_lab.SCORER_NAMES:
        ind = np.sort(score_samples(pair, scorer, xs))
        ood = np.sort(score_samples(pair, scorer, ys))
        two_u = (int(np.searchsorted(ood, ind, "left").sum())
                 + int(np.searchsorted(ood, ind, "right").sum()))
        assert got[scorer] == two_u / (2 * ind.size * ood.size), scorer
    if pair_name == "narrow_impostor":  # equal means: every score is 0, all tied
        assert not score_samples(pair, "mean_difference", np.concatenate([xs, ys])).any()
        assert got["mean_difference"] == 0.5


# --- threshold calibration ---------------------------------------------------

def test_threshold_matches_closed_form_on_narrow_impostor():
    lam = lr_threshold_for_type1(FIXTURE_PAIRS["narrow_impostor"], 0.05)
    z = NormalDist().inv_cdf(0.975)
    closed = math.log(0.1) + 49.5 * (0.1 * z) ** 2
    assert lam == pytest.approx(closed, abs=1e-9)
    assert lam == pytest.approx(GOLD_LAMBDA_05, abs=1e-9)


def test_threshold_matches_closed_form_on_linear_ratio():
    # For equal widths the log-ratio is the line 2x - 2, increasing, so the
    # level-0.1 threshold is its value at the null's 0.9 quantile.
    lam = lr_threshold_for_type1(FIXTURE_PAIRS["mean_shift"], 0.1)
    assert lam == pytest.approx(2.0 * NormalDist().inv_cdf(0.9) - 2.0, abs=1e-9)


def test_threshold_attains_its_level_in_simulation():
    pair = dataclasses.replace(FIXTURE_PAIRS["narrow_impostor"], n_samples=50_000, seed=3)
    lam = lr_threshold_for_type1(pair, 0.05)
    rate = empirical_type1_rate(pair, lam)
    assert abs(rate - 0.05) <= 0.004


def test_threshold_rejects_bad_levels_and_constant_ratio():
    pair = FIXTURE_PAIRS["narrow_impostor"]
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            lr_threshold_for_type1(pair, bad)
    with pytest.raises(ValueError):
        lr_threshold_for_type1(GaussianPair(1.0, 2.0, 1.0, 2.0), 0.05)


def test_type1_rate_needs_enough_draws():
    with pytest.raises(ValueError):
        empirical_type1_rate(dataclasses.replace(FIXTURE_PAIRS["narrow_impostor"], n_samples=10),
                             0.0)


# --- the oracles' numerics against scipy --------------------------------------
#
# The package computes the normal CDF, the quadrature and the threshold root
# with numpy and ``math`` alone; scipy's cephes ``ndtr``, QUADPACK ``quad`` and
# ``brentq`` serve here as independent references.

pairs_wide = st.builds(GaussianPair, finite(-4, 4), finite(1e-2, 30),
                       finite(-4, 4), finite(1e-2, 30))


def scipy_superlevel_mass(a, b, c, threshold, mean, var):
    """P(a X^2 + b X + c > threshold) for X ~ N(mean, var) on scipy's ndtr."""
    sd = math.sqrt(var)

    def cdf(x):
        return float(special.ndtr((x - mean) / sd))

    if a == 0.0:
        q = (threshold - c) / b
        return 1.0 - cdf(q) if b > 0 else cdf(q)
    disc = b * b - 4.0 * a * (c - threshold)
    if disc <= 0.0:
        return 1.0 if a > 0 else 0.0
    root = math.sqrt(disc)
    lo, hi = sorted(((-b - root) / (2.0 * a), (-b + root) / (2.0 * a)))
    return cdf(lo) + (1.0 - cdf(hi)) if a > 0 else cdf(hi) - cdf(lo)


def scipy_oracle(pair, scorer):
    """The ranking probability under ``integrate.quad`` with the oracle's
    window, vertex breakpoint, limit and tolerances, and the error estimate
    (truncation included) that the budget is checked against."""
    a, b, c = quadratic_coefficients(pair, scorer)
    mt, vt, mc, vc = pair.mean_t, pair.var_t, pair.mean_c, pair.var_c
    sd_c = math.sqrt(vc)

    def integrand(y):
        pdf = math.exp(-0.5 * ((y - mc) / sd_c) ** 2) / (sd_c * math.sqrt(2.0 * math.pi))
        if a == 0.0:  # a line: P_t(X > y) on b's side, without solving for y
            below = float(special.ndtr((y - mt) / math.sqrt(vt)))
            return pdf * (1.0 - below if b > 0 else below)
        return pdf * scipy_superlevel_mass(a, b, c, (a * y + b) * y + c, mt, vt)

    lo, hi = mc - 12.0 * sd_c, mc + 12.0 * sd_c
    breaks = [p for p in ([-b / (2.0 * a)] if a != 0.0 else []) if lo < p < hi]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(integrand, lo, hi, points=breaks or None,
                                    limit=300, epsabs=1e-10, epsrel=1e-10)
    return min(max(value, 0.0), 1.0), err + 2.0 * float(special.ndtr(-12.0))


@settings(max_examples=60, deadline=None)
@given(pair=pairs_wide)
# a subnormal slope: solving the line for its level would snap y to a lattice
@example(pair=GaussianPair(5e-324, 29.5, 0.0, 29.75))
def test_oracle_agrees_with_quadpack_wherever_quad_succeeds(pair):
    for scorer in theory_lab.SCORER_NAMES:
        if quadratic_coefficients(pair, scorer)[:2] == (0.0, 0.0):
            continue  # constant statistic: exactly 1/2 without quadrature
        expected, err = scipy_oracle(pair, scorer)
        try:
            got = oracle_auc(pair, scorer)
        except IntegrationFailure:
            assert err > theory_lab._ORACLE_ERROR_BUDGET, (scorer, expected, err)
            continue
        if err <= theory_lab._ORACLE_ERROR_BUDGET:
            assert abs(got - expected) <= 1e-9, (scorer, got, expected)


def test_kronrod_rule_is_qk21():
    nodes, weights = theory_lab._GK_NODES, theory_lab._GK_WEIGHTS
    gauss = theory_lab._G_WEIGHTS != 0.0
    x10, w10 = np.polynomial.legendre.leggauss(10)
    np.testing.assert_allclose(nodes[gauss], x10, rtol=0, atol=1e-15)
    np.testing.assert_allclose(theory_lab._G_WEIGHTS[gauss], w10, rtol=0, atol=1e-15)
    for k in range(32):  # 21 Kronrod nodes integrate degree 31 exactly
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert float(nodes**k @ weights) == pytest.approx(exact, abs=1e-14), k


def test_ndtr_matches_cephes():
    xs = np.linspace(-37.0, 8.5, 20_001)
    expected = special.ndtr(xs)
    got = np.array([theory_lab.ndtr(x) for x in xs.tolist()])
    # 1e-14 where |x| <= 3; beyond, both sides round the scaled argument (or
    # its square) once, an error the CDF's condition number ~x^2 amplifies.
    bound = np.maximum(1e-14, 10.0 * 2.0**-53 * xs**2)
    assert np.all(np.abs(got - expected) <= bound * expected)


def brentq_threshold(pair, level=0.05):
    a, b, c = quadratic_coefficients(pair, "lr")
    mc, vc = pair.mean_c, pair.var_c

    def excess(lam):
        return scipy_superlevel_mass(a, b, c, lam, mc, vc) - level

    lo, hi = -1.0, 1.0
    while excess(lo) < 0.0:
        lo *= 2.0
    while excess(hi) > 0.0:
        hi *= 2.0
    return optimize.brentq(excess, lo, hi, xtol=1e-13, rtol=8.9e-16)


@settings(max_examples=100, deadline=None)
@given(pair=pairs_wide)
@example(pair=FIXTURE_PAIRS["narrow_impostor"])
@example(pair=FIXTURE_PAIRS["mean_shift"])
@example(pair=FIXTURE_PAIRS["offset_widths"])
def test_threshold_matches_brentq(pair):
    a, b, _ = quadratic_coefficients(pair, "lr")
    if a == 0.0 and b == 0.0:
        return  # identical densities: no threshold attains the level
    expected = brentq_threshold(pair)
    # 1e-12, plus each root finder's relative stopping tolerance (about
    # 4 ulp) where the threshold is large
    bound = 1e-12 + 2.0 * 8.9e-16 * abs(expected)
    assert abs(lr_threshold_for_type1(pair, 0.05) - expected) <= bound


def test_budget_check_fires_when_subdivision_is_cut_short(monkeypatch):
    pair = FIXTURE_PAIRS["narrow_impostor"]
    monkeypatch.setattr(theory_lab, "_QUAD_LIMIT", 2)  # the two vertex halves only
    with pytest.raises(IntegrationFailure, match="exceeds"):
        oracle_auc(pair, "lr")


# --- density-estimator rank checks -------------------------------------------

@pytest.fixture(scope="module")
def gaussian_task():
    stream = generate_gaussian_stream(
        n_tasks=1, classes_per_task=3, dim=6, separation=6.0,
        samples_per_class_train=667, samples_per_class_test=0,
        rng=RngState(100),
    )
    dataset = stream.tasks[0]
    return dataset, fit_raw_feature_stats(dataset)


def test_inverse_distance_ranks_exactly_like_fitted_density(gaussian_task):
    dataset, stats = gaussian_task
    check = density_estimator_check(dataset, stats, 500, seed=0)
    assert check.md_spearman == 1.0
    assert check.n_used_md == 500
    assert check.n_probes == 500


def test_neighbor_distance_tracks_true_density(gaussian_task):
    dataset, stats = gaussian_task
    for seed in (0, 1, 2):
        check = density_estimator_check(dataset, stats, 500, seed=seed)
        assert check.knn_spearman >= 0.9, seed


def test_density_check_is_deterministic(gaussian_task):
    dataset, stats = gaussian_task
    first = density_estimator_check(dataset, stats, 200, seed=7)
    second = density_estimator_check(dataset, stats, 200, seed=7)
    assert first == second


def test_density_check_holds_one_distance_matrix(gaussian_task):
    # numpy reports its allocations to tracemalloc: the squared distances of
    # the probes to the training rows are built in one [probes, train] array
    dataset, stats = gaussian_task
    tracemalloc.start()
    try:
        density_estimator_check(dataset, stats, 500, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * 500 * dataset.train_x.shape[0] * 8


def test_density_check_needs_a_generative_description(gaussian_task):
    dataset, stats = gaussian_task
    stripped = TaskDataset(
        task_id=dataset.task_id, classes=dataset.classes,
        train_x=dataset.train_x, train_y=dataset.train_y,
        test_x=dataset.test_x, test_y=dataset.test_y,
    )
    with pytest.raises(NoDensityAvailable):
        density_estimator_check(stripped, stats, 100)


def test_single_point_data_has_no_variance():
    from tpl.trainer import TaskStats

    lone = TaskDataset(
        task_id=1, classes=(0,),
        train_x=np.array([[0.5, -0.5]]), train_y=np.array([0]),
        test_x=np.empty((0, 2)), test_y=np.empty(0, dtype=np.int64),
        means=np.zeros((1, 2)), cov_diag=np.ones(2),
    )
    stats = TaskStats(
        task_id=1, class_means=np.zeros((1, 2)), precision=np.eye(2),
        beta_mls=1.0, beta_md=1.0,
    )
    with pytest.raises(NoVariance):
        density_estimator_check(lone, stats, 100)


@pytest.mark.parametrize("patched", ["md_score", "kth_distance"])
def test_a_constant_score_column_has_no_variance_and_warns_nothing(gaussian_task,
                                                                  monkeypatch, patched):
    dataset, stats = gaussian_task
    module = scoring if patched == "md_score" else theory_lab
    monkeypatch.setattr(module, patched, lambda x, *_: np.full(len(x), 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoVariance, match="constant"):
            density_estimator_check(dataset, stats, 100)


def test_density_check_validates_probe_count(gaussian_task):
    dataset, stats = gaussian_task
    with pytest.raises(ValueError):
        density_estimator_check(dataset, stats, 2)
