import copy
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import spearmanr

from tpl import data, hat_mlp, scoring, trainer
from tpl.errors import EmptyBufferView, NotPositiveDefinite
from tpl.numerics import (RngState, flush_subnormals, kth_distance, precision_factor, softmax,
                          whitened_sq)


@pytest.fixture(scope="module")
def small_stream():
    return data.generate_gaussian_stream(
        n_tasks=2, classes_per_task=2, dim=8, separation=6.0,
        samples_per_class_train=60, samples_per_class_test=30, rng=RngState(1),
    )


@pytest.fixture(scope="module")
def small_run(small_stream):
    cfg = trainer.TrainConfig(
        epochs=8, batch_size=32, hidden_widths=(24, 24), buffer_capacity=40
    )
    return trainer.run_sequence(small_stream, cfg, seed=3)


# --- logit-derived scores ---------------------------------------------------

def test_logit_scores_basics():
    logits = np.array([[2.0, -1.0, 0.5]])  # 2 real classes + spare unit
    assert scoring.mls_score(logits, 2)[0] == 2.0
    msp = softmax(logits[:, :2]).max(-1)[0]
    assert math.isclose(msp, math.exp(2) / (math.exp(2) + math.exp(-1)), rel_tol=1e-12)
    ebo = scoring.ebo_score(logits, 2)[0]
    assert math.isclose(ebo, math.log(math.exp(2) + math.exp(-1)), rel_tol=1e-12)
    # spare-unit logit must not leak into either (MSP: see the bundle test)
    bumped = logits.copy()
    bumped[0, 2] = 1e6
    assert scoring.mls_score(bumped, 2)[0] == 2.0
    assert math.isclose(scoring.ebo_score(bumped, 2)[0], ebo, rel_tol=1e-12)


def test_logit_score_relations():
    rng = RngState(2).stream("logits")
    logits = rng.standard_normal((50, 4))
    mls = scoring.mls_score(logits, 3)
    ebo = scoring.ebo_score(logits, 3)
    msp = softmax(logits[:, :3]).max(-1)
    assert np.all(ebo >= mls - 1e-12)
    assert np.all(ebo <= mls + math.log(3) + 1e-12)
    assert np.all((msp > 1 / 3 - 1e-12) & (msp <= 1.0))


def test_logit_scores_stable_for_huge_logits():
    logits = np.array([[1e6, 1e6 - 1.0, 0.0]])
    assert np.isfinite(softmax(logits[:, :2]).max(-1)[0])
    assert np.isfinite(scoring.ebo_score(logits, 2)[0])


# --- Mahalanobis score ------------------------------------------------------

def unit_stats(means):
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    return trainer.TaskStats(
        task_id=1, class_means=means, precision=np.eye(means.shape[1]),
        beta_mls=1.0, beta_md=1.0,
    )


def test_md_score_hand_case():
    stats = unit_stats([[0.0, 0.0]])
    out = scoring.md_score(np.array([[3.0, 4.0]]), stats)
    assert math.isclose(out[0], 1.0 / 25.0, rel_tol=1e-12)


def test_md_score_picks_nearest_class():
    stats = unit_stats([[0.0, 0.0], [10.0, 0.0]])
    out = scoring.md_score(np.array([[9.0, 0.0]]), stats)
    assert math.isclose(out[0], 1.0, rel_tol=1e-12)


def test_md_score_floored_at_centroid():
    stats = unit_stats([[1.0, 2.0]])
    out = scoring.md_score(np.array([[1.0, 2.0]]), stats)
    assert out[0] == 1e12


def test_md_score_matches_bruteforce():
    rng = RngState(5).stream("md")
    for _ in range(50):
        d = int(rng.integers(2, 6))
        c = int(rng.integers(1, 4))
        means = rng.standard_normal((c, d))
        a = rng.standard_normal((d, d))
        prec = a @ a.T + d * np.eye(d)
        stats = trainer.TaskStats(1, means, prec, 1.0, 1.0)
        x = rng.standard_normal((7, d))
        got = scoring.md_score(x, stats)
        for i in range(7):
            best = min(
                float((x[i] - means[j]) @ prec @ (x[i] - means[j])) for j in range(c)
            )
            assert math.isclose(got[i], 1.0 / max(best, 1e-12), rel_tol=1e-9)


def test_md_rank_matches_max_class_log_density():
    # with shared covariance, the MD score orders points exactly like the
    # highest class log-density under the same parameters
    rng = RngState(6).stream("rank")
    means = rng.standard_normal((3, 4)) * 3.0
    a = rng.standard_normal((4, 4))
    cov = a @ a.T + 4 * np.eye(4)
    prec = np.linalg.inv(cov)
    stats = trainer.TaskStats(1, means, (prec + prec.T) / 2, 1.0, 1.0)
    x = rng.standard_normal((500, 4)) * 2.0
    smd = scoring.md_score(x, stats)
    const = -0.5 * np.log(np.linalg.det(2 * np.pi * cov))
    logd = np.max(
        [
            const - 0.5 * np.einsum("nd,de,ne->n", x - m, stats.precision, x - m)
            for m in means
        ],
        axis=0,
    )
    keep = smd < 1e12  # floor-saturated points carry no ranking information
    rho = spearmanr(smd[keep], logd[keep]).statistic
    assert rho == 1.0


def test_whitened_sq_accurate_next_to_centroids():
    # Probes 1e-7 from a class mean under a precision with condition number
    # 1e8 (d=96): whitening the differences keeps the error at rounding level
    # relative to ||P|| ||x - mu||^2, where the expanded form
    # ||xL||^2 - 2 xL.muL + ||muL||^2 loses every digit to cancellation.
    rng = RngState(11).stream("md-kernel")
    d, n_classes, n_probes = 96, 3, 24
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eig = np.logspace(0.0, 8.0, d)
    prec = (q * eig) @ q.T
    prec = (prec + prec.T) / 2.0
    means = 3.0 * rng.standard_normal((n_classes, d))
    u = rng.standard_normal((n_probes, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    x = means[np.arange(n_probes) % n_classes] + 1e-7 * u

    got = whitened_sq(x, means, precision_factor(prec))

    diffs = x.astype(np.longdouble)[:, None, :] - means.astype(np.longdouble)[None]
    oracle = np.einsum("ncd,de,nce->nc", diffs, prec.astype(np.longdouble), diffs)
    norm_p = float(np.max(eig))
    dist2 = np.sum(diffs.astype(np.float64) ** 2, axis=2)
    err = np.abs(got.astype(np.longdouble) - oracle).astype(np.float64)
    assert got.shape == (n_probes, n_classes)
    assert np.all(err <= 1e-12 * norm_p * dist2)


def test_precision_factor_rejects_indefinite_precision():
    with pytest.raises(NotPositiveDefinite):
        precision_factor(np.diag([1.0, -1.0]))


def test_task_stats_factor_their_precision_once(monkeypatch):
    rng = RngState(6).stream("factor")
    root = rng.standard_normal((5, 5))
    precision = root @ root.T + np.eye(5)
    stats = trainer.TaskStats(1, rng.standard_normal((3, 5)), precision, 1.0, 1.0)
    assert stats.precision_factor.tobytes() == np.linalg.cholesky(precision).tobytes()
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda m: calls.append(m) or cholesky(m))
    x = rng.standard_normal((7, 5))
    got = scoring.md_score(x, dataclasses.replace(stats, beta_md=2.0))
    assert calls == []  # the MD score and ``replace`` reuse the factor
    d2 = np.min(whitened_sq(x, stats.class_means, precision_factor(precision)), axis=1)
    assert got.tobytes() == (1.0 / np.maximum(d2, scoring.MD_FLOOR)).tobytes()
    with pytest.raises(NotPositiveDefinite):  # refused where the factor is computed
        trainer.TaskStats(1, np.zeros((1, 2)), np.diag([1.0, -1.0]), 1.0, 1.0)


# --- KNN distance -----------------------------------------------------------

def raw_kth_distance(queries, index, k):
    """The KNN kernel over raw rows: the queries as ``knn_queries`` builds
    them and the index rows normalized once."""
    return scoring.knn_kth_distance(scoring.knn_queries(queries),
                                    scoring.normalize_rows(index), k)


def test_knn_distance_hand_geometry():
    # index on two orthogonal unit axes; query on the first
    index = np.array([[1.0, 0.0], [0.0, 1.0]])
    q = np.array([[2.0, 0.0]])  # normalizes onto the first axis
    d1 = raw_kth_distance(q, index, 1)
    assert math.isclose(d1[0], 0.0, abs_tol=1e-12)
    d2 = raw_kth_distance(q, index, 2)
    assert math.isclose(d2[0], math.sqrt(2.0), rel_tol=1e-12)


def test_knn_distance_fewer_than_k_uses_farthest():
    index = np.array([[1.0, 0.0], [0.0, 1.0]])
    d9 = raw_kth_distance(np.array([[1.0, 0.0]]), index, 9)
    assert math.isclose(d9[0], math.sqrt(2.0), rel_tol=1e-12)


def test_knn_distance_refuses_k_below_one_and_an_empty_index():
    queries = scoring.knn_queries(np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="k must be >= 1"):
        scoring.knn_kth_distance(queries, np.array([[0.0, 1.0]]), 0)
    with pytest.raises(EmptyBufferView):
        scoring.knn_kth_distance(queries, np.empty((0, 2)), 5)


def test_knn_distance_bounded_on_sphere():
    rng = RngState(7).stream("knn")
    q = rng.standard_normal((40, 5))
    b = rng.standard_normal((30, 5))
    for k in (1, 5, 30):
        d = raw_kth_distance(q, b, k)
        assert np.all(d >= 0)
        assert np.all(d <= 2.0 + 1e-12)


def test_knn_distance_matches_bruteforce():
    rng = RngState(8).stream("knn2")
    for _ in range(30):
        m = int(rng.integers(1, 12))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(1, 8))
        q = rng.standard_normal((5, d))
        b = rng.standard_normal((m, d))
        got = raw_kth_distance(q, b, k)
        qn = q / np.linalg.norm(q, axis=1, keepdims=True)
        bn = b / np.linalg.norm(b, axis=1, keepdims=True)
        for i in range(5):
            dists = sorted(float(np.linalg.norm(qn[i] - bn[j])) for j in range(m))
            expect = dists[min(k, m) - 1]
            assert math.isclose(got[i], expect, rel_tol=0, abs_tol=1e-9)


def unit_sphere_d2(queries, index):
    q = scoring.normalize_rows(queries)
    b = scoring.normalize_rows(index)
    return 2.0 - 2.0 * (q @ b.T)


def sorted_kth_distance(d2, k):
    """The full-sort k-th distance, kept as the reference for the partition."""
    d2 = np.sort(np.maximum(d2, 0.0), axis=1)
    return np.sqrt(d2[:, min(k, d2.shape[1]) - 1])


def grid_rows(n, d):
    """Rows on a coarse grid of coordinates, so tied and repeated distances
    are common."""
    return hnp.arrays(
        np.float64, (n, d), elements=st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])
    )


@pytest.mark.parametrize("k_vs_n", ["below", "equal", "above"])
@settings(max_examples=60, deadline=None)
@given(draws=st.data())
def test_knn_partition_matches_full_sort_bitwise(k_vs_n, draws):
    d = draws.draw(st.integers(1, 4))
    n = draws.draw(st.integers(2 if k_vs_n == "below" else 1, 12))
    if k_vs_n == "below":
        k = draws.draw(st.integers(1, n - 1))
    elif k_vs_n == "equal":
        k = n
    else:
        k = n + draws.draw(st.integers(1, 5))
    queries = draws.draw(grid_rows(draws.draw(st.integers(1, 6)), d))
    index = draws.draw(grid_rows(n, d))
    d2 = unit_sphere_d2(queries, index)
    expected = sorted_kth_distance(d2, k)
    assert np.array_equal(raw_kth_distance(queries, index, k), expected)
    assert np.array_equal(kth_distance(d2, k), expected)


def real_rows(n, d):
    """Real-valued rows, a few of them repeats of the first so that ties
    between distinct index positions occur too."""
    rows = hnp.arrays(np.float64, (n, d), elements=st.floats(-1e3, 1e3, width=64))
    return st.tuples(rows, st.lists(st.integers(0, n - 1), max_size=4)).map(
        lambda pair: _repeat_first_row(*pair))


def _repeat_first_row(rows, positions):
    rows[positions] = rows[0]
    return rows


@pytest.mark.parametrize("k_vs_n", ["below", "equal", "above"])
@settings(max_examples=40, deadline=None)
@given(draws=st.data())
def test_knn_selection_on_real_rows_matches_full_sort_bitwise(k_vs_n, draws):
    d = draws.draw(st.integers(1, 6))
    m = draws.draw(st.integers(2 if k_vs_n == "below" else 1, 300))
    k = draws.draw({"below": st.integers(1, m - 1), "equal": st.just(m),
                    "above": st.integers(m + 1, m + 5)}[k_vs_n])
    queries = draws.draw(real_rows(draws.draw(st.integers(1, 8)), d))
    index = draws.draw(real_rows(m, d))
    kept = queries.tobytes(), index.tobytes()
    expected = sorted_kth_distance(unit_sphere_d2(queries, index), k)
    assert raw_kth_distance(queries, index, k).tobytes() == expected.tobytes()
    assert (queries.tobytes(), index.tobytes()) == kept


def reference_mahalanobis_sq(x, means, precision):
    """Each class's whitened differences in one expression, as written."""
    chol = np.linalg.cholesky(precision)
    return np.stack([np.sum(((x - mu) @ chol) ** 2, axis=1) for mu in means], axis=1)


@settings(max_examples=80, deadline=None)
@given(draws=st.data())
def test_whitened_sq_matches_the_one_expression_form_bitwise(draws):
    # Shapes reach the GEMM's blocked kernels, where a difference buffer in
    # another memory layout than ``x - mu`` can move the last bit.
    d = draws.draw(st.integers(1, 64))
    n = draws.draw(st.integers(1, 120))
    c = draws.draw(st.integers(1, 4))
    rng = RngState(draws.draw(st.integers(0, 2**32 - 1)))
    root = rng.uniform(-4.0, 4.0, (d, d))
    precision = root @ root.T + d * np.eye(d)
    means = rng.uniform(-4.0, 4.0, (c, d))
    x = rng.uniform(-4.0, 4.0, (n, d))
    for row, cls in draws.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                  st.integers(0, c - 1)), max_size=3)):
        x[row] = means[cls]  # a row exactly on a centroid
    layout = draws.draw(st.sampled_from(["C", "F", "column-slice"]))
    if layout == "F":
        x = np.asfortranarray(x)
    elif layout == "column-slice":
        wide = np.zeros((n, 2 * d))
        wide[:, ::2] = x
        x = wide[:, ::2]
    expected = reference_mahalanobis_sq(x, means, precision)
    assert whitened_sq(x, means, precision_factor(precision)).tobytes() == expected.tobytes()


#: The magnitude bound under which ``numerics.flush_subnormals`` keeps every
#: distance's bits: features, class means and factor entries.
FLUSH_BOUND = 1e6


def wide_values(rng, shape, share):
    """Standard normal entries, about ``share`` of them replaced by a random
    sign times 10^u, u uniform on [-320, log10(FLUSH_BOUND)]: tiny normal
    and subnormal values are common."""
    spread = (np.where(rng.uniform(0.0, 1.0, shape) < 0.5, -1.0, 1.0)
              * 10.0 ** rng.uniform(-320.0, math.log10(FLUSH_BOUND), shape))
    return np.where(rng.uniform(0.0, 1.0, shape) < share, spread, rng.standard_normal(shape))


def random_subnormals(rng, shape):
    bits = (rng.integers(1, 1 << 52, shape).astype(np.uint64)
            | rng.integers(0, 2, shape).astype(np.uint64) << np.uint64(63))
    return bits.view(np.float64)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(draws=st.data())
def test_flushing_subnormal_operands_keeps_every_distance_bit(draws):
    d, n, c, m, k = (draws.draw(st.integers(lo, hi))
                     for lo, hi in ((2, 48), (1, 40), (1, 4), (1, 60), (1, 6)))
    wide = draws.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    share = draws.draw(st.sampled_from([0.02, 0.2, 0.5]))
    rng = RngState(draws.draw(st.integers(0, 2**32 - 1)))

    def sprinkle(a, allowed):
        """Subnormals at about ``share`` of ``a``'s ``allowed`` entries, one at least."""
        hit = allowed & (rng.uniform(0.0, 1.0, a.shape) < share)
        cells = np.flatnonzero(allowed)
        hit.flat[cells[rng.integers(0, cells.size)]] = True
        a[hit] = random_subnormals(rng, a.shape)[hit]

    means = wide_values(rng, (c, d), wide)
    sprinkle(means, np.ones(means.shape, bool))
    factor = np.tril(wide_values(rng, (d, d), wide))
    np.fill_diagonal(factor, np.abs(factor.diagonal()))
    sprinkle(factor, np.tri(d, dtype=bool))
    # unit index rows whose sprinkled entries were 0 before the normalization
    index = wide_values(rng, (m, d), wide)
    holes = rng.uniform(0.0, 1.0, (m, d)) < share
    kept = rng.integers(0, d, m)  # a normal entry in every row
    holes[np.arange(m), kept] = False
    holes[0, (kept[0] + 1) % d] = True
    index[holes] = 0.0
    index = scoring.normalize_rows(index)
    index[holes] = random_subnormals(rng, (m, d))[holes]
    x = wide_values(rng, (n, d), wide)
    for row, cls in draws.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                  st.integers(0, c - 1)), max_size=3)):
        x[row] = means[cls]  # a row exactly on a centroid, subnormals included

    flushed = [flush_subnormals(a.copy()) for a in (means, factor, index)]
    for a, b in zip((means, factor, index), flushed):
        assert a.tobytes() != b.tobytes()  # never vacuous
    f_means, f_factor, f_index = flushed
    assert (whitened_sq(x, means, factor).tobytes()
            == whitened_sq(x, f_means, f_factor).tobytes())
    stats = [trainer.TaskStats(1, mu, factor @ factor.T, 1.0, 1.0, precision_factor=lf)
             for mu, lf in ((means, factor), (f_means, f_factor))]
    assert (scoring.md_score(x, stats[0]).tobytes()
            == scoring.md_score(x, stats[1]).tobytes())
    queries = scoring.knn_queries(x)
    assert (scoring.knn_kth_distance(queries, index, k).tobytes()
            == scoring.knn_kth_distance(queries, f_index, k).tobytes())


# --- composed score ---------------------------------------------------------

def test_tpl_score_equal_routes():
    out = scoring.tpl_score(np.array([2.0]), np.array([2.0]), np.array([0.0]), 1.0, 1.0)
    assert math.isclose(out[0], 2.0 + math.log(2.0), rel_tol=1e-12)
    out_min = scoring.tpl_score(
        np.array([2.0]), np.array([2.0]), np.array([0.0]), 1.0, 1.0, "algorithm1"
    )
    assert math.isclose(out_min[0], 2.0 - math.log(2.0), rel_tol=1e-12)


def test_tpl_score_bounds_both_variants():
    rng = RngState(9).stream("tpl")
    mls = rng.standard_normal(100) * 5
    md = np.abs(rng.standard_normal(100)) * 3
    knn = np.abs(rng.standard_normal(100))
    b1, b2 = 0.7, 1.3
    routes = np.stack([b1 * mls, b2 * md + knn])
    hi = np.max(routes, axis=0)
    lo = np.min(routes, axis=0)
    canon = scoring.tpl_score(mls, md, knn, b1, b2, "canonical")
    soft = scoring.tpl_score(mls, md, knn, b1, b2, "algorithm1")
    assert np.all(canon >= hi - 1e-12)
    assert np.all(canon <= hi + math.log(2) + 1e-12)
    assert np.all(soft <= lo + 1e-12)
    assert np.all(soft >= lo - math.log(2) - 1e-12)
    assert np.all(canon >= soft - 1e-12)


def test_tpl_score_monotone_in_each_route():
    base = scoring.tpl_score(np.array([1.0]), np.array([2.0]), np.array([0.5]), 1.0, 1.0)
    up_mls = scoring.tpl_score(np.array([1.5]), np.array([2.0]), np.array([0.5]), 1.0, 1.0)
    up_knn = scoring.tpl_score(np.array([1.0]), np.array([2.0]), np.array([0.9]), 1.0, 1.0)
    assert up_mls[0] > base[0]
    assert up_knn[0] > base[0]


def test_tpl_score_stable_for_extreme_inputs():
    out = scoring.tpl_score(
        np.array([1e6, -1e6]), np.array([1e12, 1e-12]), np.array([2.0, 0.0]), 1.0, 1.0
    )
    assert np.all(np.isfinite(out))


# --- posterior --------------------------------------------------------------

def test_task_posterior_single_task_pinned():
    post = scoring.task_posterior(np.array([[3.7]]), 0.05)
    assert post.tolist() == [[1.0]]


def test_task_posterior_shift_invariant():
    s = np.array([[1.0, 2.0, 0.0]])
    a = scoring.task_posterior(s, 0.05)
    b = scoring.task_posterior(s + 55.5, 0.05)
    assert np.allclose(a, b, atol=1e-12)
    assert math.isclose(float(a.sum()), 1.0, abs_tol=1e-12)


def test_task_posterior_low_temperature_sharpens():
    s = np.array([[1.0, 1.2]])
    sharp = scoring.task_posterior(s, 0.05)
    flat = scoring.task_posterior(s, 10.0)
    assert sharp[0, 1] > flat[0, 1]
    assert sharp[0, 1] > 0.97


# --- end-to-end prediction --------------------------------------------------

def test_bundle_shapes_and_determinism(small_run, small_stream):
    ctx = scoring.context_from_run(small_run)
    x = small_stream.tasks[0].test_x[:10]
    b1 = scoring.compute_bundle(ctx, x)
    b2 = scoring.compute_bundle(ctx, x)
    assert b1.mls.shape == (10, 2)
    assert np.array_equal(b1.knn_dist, b2.knn_dist)
    assert np.array_equal(b1.md, b2.md)
    for w in b1.wp:
        assert np.allclose(np.sum(w, axis=1), 1.0, atol=1e-12)


def test_predict_accuracy_on_easy_stream(small_run, small_stream):
    ctx = scoring.context_from_run(small_run)
    correct = 0
    total = 0
    for task in small_stream.tasks:
        pred = scoring.predict(ctx, task.test_x)
        correct += int(np.sum(pred.global_class == task.test_y))
        total += task.test_y.shape[0]
    assert correct / total >= 0.9


def test_predict_outputs_consistent(small_run, small_stream):
    ctx = scoring.context_from_run(small_run)
    x = small_stream.tasks[1].test_x[:7]
    pred = scoring.predict(ctx, x)
    assert pred.global_class.shape == (7,)
    assert set(pred.task_id.tolist()) <= {1, 2}
    assert np.all((pred.p_task > 0) & (pred.p_task <= 1.0))
    assert np.allclose(np.sum(pred.posterior, axis=1), 1.0, atol=1e-12)
    # the predicted class must belong to the predicted task
    for g, t in zip(pred.global_class, pred.task_id):
        assert g in small_stream.task(int(t)).classes


def test_predict_score_kind_variants_agree_on_shape(small_run, small_stream):
    ctx = scoring.context_from_run(small_run)
    x = small_stream.tasks[0].test_x[:5]
    for kind in scoring.SCORE_KINDS:
        pred = scoring.predict(ctx, x, score_kind=kind)
        assert pred.global_class.shape == (5,)


def test_predict_tie_breaks_lexicographically(small_run, small_stream):
    # calibration (0, 0.5) collapses every class value to 0.5: the earliest
    # task and class in declaration order must win
    ctx = scoring.context_from_run(small_run)
    ctx.calibration = {1: (0.0, 0.5), 2: (0.0, 0.5)}
    pred = scoring.predict(ctx, small_stream.tasks[1].test_x[:4])
    assert np.all(pred.task_id == 1)
    assert np.all(pred.global_class == small_stream.task(1).classes[0])


def test_score_matrix_kind_selection(small_run, small_stream):
    ctx = scoring.context_from_run(small_run)
    x = small_stream.tasks[0].test_x[:6]
    bundle = scoring.compute_bundle(ctx, x)
    lr = scoring.task_score_matrix(ctx, bundle, "lr")
    for j, t in enumerate(bundle.task_ids):
        st = small_run.stats[t]
        expect = st.beta_md * bundle.md[:, j] + bundle.knn_dist[:, j]
        assert np.allclose(lr[:, j], expect, atol=1e-12)
    knn = scoring.task_score_matrix(ctx, bundle, "knn")
    assert np.allclose(knn, -bundle.knn_own, atol=1e-12)
    with pytest.raises(ValueError):
        scoring.task_score_matrix(ctx, bundle, "bogus")


def test_knn_indexes_point_in_opposite_directions(small_run, small_stream):
    # an in-task sample sits close to its own task's replay features and far
    # from the other task's, so d_own < d_cross for most test points
    ctx = scoring.context_from_run(small_run)
    for j, d in enumerate(small_stream.tasks):
        bundle = scoring.compute_bundle(ctx, d.test_x)
        closer = np.mean(bundle.knn_own[:, j] < bundle.knn_dist[:, j])
        assert closer >= 0.9


def test_bundle_msp_is_the_row_max_of_the_real_class_softmax(small_run, small_stream):
    ctx = scoring.context_from_run(small_run)
    x = small_stream.tasks[0].test_x[:10]
    bundle = scoring.compute_bundle(ctx, x)
    # the spare unit's logit must not leak into MSP
    net = copy.deepcopy(ctx.net)
    for t in bundle.task_ids:
        net.heads[t].bias[len(ctx.task_classes[t])] += 1e6
    bumped = scoring.compute_bundle(dataclasses.replace(ctx, net=net), x)
    for j, t in enumerate(bundle.task_ids):
        c = len(ctx.task_classes[t])
        _, logits = hat_mlp.forward(ctx.net, x, t)
        assert logits.shape[1] == c + 1
        msp = bundle.msp[:, j]
        assert np.array_equal(msp, softmax(logits[:, :c]).max(-1))
        assert np.array_equal(msp, bundle.wp[j].max(-1))
        assert np.array_equal(bumped.msp[:, j], msp)
        assert np.all((msp > 1 / c - 1e-12) & (msp <= 1.0))


# --- one replay pass and one softmax per task -------------------------------

@pytest.fixture(scope="module")
def three_task_stream():
    return data.generate_gaussian_stream(
        n_tasks=3, classes_per_task=2, dim=6, separation=6.0,
        samples_per_class_train=40, samples_per_class_test=10, rng=RngState(4),
    )


@pytest.fixture(scope="module")
def three_task_run(three_task_stream):
    cfg = trainer.TrainConfig(
        epochs=4, batch_size=32, hidden_widths=(16, 16), buffer_capacity=60
    )
    return trainer.run_sequence(three_task_stream, cfg, seed=5, calibrate=False)


def test_build_context_splits_the_buffer_by_source_task(three_task_run):
    run = three_task_run
    ctx = scoring.context_from_run(run)
    buf = run.buffer
    for t in ctx.task_ids:
        mine = buf.tasks == t
        assert list(dict.fromkeys(buf.labels[mine].tolist())) == list(ctx.task_classes[t])
        for rows, index in ((mine, ctx.own_index[t]), (~mine, ctx.knn_index[t])):
            # each subset forwarded on its own, in buffer order
            expect = scoring.normalize_rows(hat_mlp.forward(run.net, buf.x[rows], t)[0])
            assert index.shape == (np.count_nonzero(rows), run.net.feature_dim)
            np.testing.assert_allclose(index, expect, rtol=0, atol=1e-12)


def test_build_context_forwards_the_buffer_once_per_task(three_task_run, monkeypatch):
    calls = []
    features = hat_mlp.features

    def counting(net, x, task_id):
        calls.append(task_id)
        return features(net, x, task_id)

    monkeypatch.setattr(hat_mlp, "features", counting)
    run = three_task_run
    ctx = scoring.build_context(run.net, run.stats, run.buffer, run.config, run.task_classes)
    assert sorted(calls) == ctx.task_ids == [1, 2, 3]
    # a finished run's context reads the index built once after the last task
    calls.clear()
    scoring.context_from_run(run)
    assert calls == []


def test_predict_runs_one_softmax_per_task_plus_the_posterior(three_task_run,
                                                              three_task_stream,
                                                              monkeypatch):
    ctx = scoring.context_from_run(three_task_run)
    x = three_task_stream.tasks[0].test_x
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return softmax(*args, **kwargs)

    monkeypatch.setattr(scoring, "softmax", counting)
    scoring.predict(ctx, x)
    assert len(calls) == ctx.n_tasks() + 1 == 4


# --- a bundle scores only the kinds it is built for -------------------------

@pytest.mark.parametrize("variant", ["canonical", "algorithm1"])
def test_predict_for_one_kind_matches_the_full_bundle_bitwise(three_task_run,
                                                              three_task_stream, variant):
    ctx = dataclasses.replace(scoring.context_from_run(three_task_run), variant=variant)
    x = np.concatenate([d.test_x for d in three_task_stream.tasks])
    full = scoring.compute_bundle(ctx, x)
    for kind in scoring.SCORE_KINDS:
        got = scoring.predict(ctx, x, kind)
        want = scoring.predict_from_bundle(ctx, full, kind)
        for field in dataclasses.fields(scoring.Predictions):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), (kind, field.name)


def test_bundle_without_the_knn_kind_refuses_it(three_task_run, three_task_stream):
    ctx = scoring.context_from_run(three_task_run)
    x = three_task_stream.tasks[1].test_x
    bundle = scoring.compute_bundle(ctx, x, kinds=("tpl",))
    assert bundle.knn_own is None
    with pytest.raises(ValueError, match="without the 'knn' kind"):
        scoring.task_score_matrix(ctx, bundle, "knn")
    full = scoring.compute_bundle(ctx, x)
    for name in ("mls", "md", "knn_dist"):
        assert getattr(bundle, name).tobytes() == getattr(full, name).tobytes()


def reference_bundle(ctx, x):
    """Every score of every task, one public kernel per score and task, as
    ``compute_bundle`` computed them before it skipped unread scores."""
    columns = {name: [] for name in ("mls", "msp", "ebo", "md", "knn_dist", "knn_own")}
    for t in ctx.task_ids:
        feats, logits = hat_mlp.forward(ctx.net, x, t)
        c = len(ctx.task_classes[t])
        columns["mls"].append(scoring.mls_score(logits, c))
        columns["msp"].append(np.max(softmax(logits[:, :c]), axis=-1))
        columns["ebo"].append(scoring.ebo_score(logits, c))
        columns["md"].append(scoring.md_score(feats, ctx.stats[t]))
        queries = scoring.knn_queries(feats)
        columns["knn_dist"].append(scoring.knn_kth_distance(queries, ctx.knn_index[t], ctx.k))
        columns["knn_own"].append(scoring.knn_kth_distance(queries, ctx.own_index[t], ctx.k))
    return {name: np.stack(cols, axis=1) for name, cols in columns.items()}


@pytest.mark.parametrize("variant", ["canonical", "algorithm1"])
def test_the_all_kinds_bundle_equals_the_per_task_kernels(variant, three_task_run,
                                                          three_task_stream):
    ctx = dataclasses.replace(scoring.context_from_run(three_task_run), variant=variant)
    x, _, _ = data.pooled_test_rows(three_task_stream.tasks)
    bundle = scoring.compute_bundle(ctx, x)
    for name, want in reference_bundle(ctx, x).items():
        assert getattr(bundle, name).tobytes() == want.tobytes(), name
    predict_bundle = scoring.compute_bundle(ctx, x, ("tpl",))
    assert predict_bundle.msp is None and predict_bundle.ebo is None
    assert (scoring.predict(ctx, x).calibrated.tobytes()
            == scoring.predict_from_bundle(ctx, bundle).calibrated.tobytes())


@pytest.mark.parametrize("kind", scoring.SCORE_KINDS)
def test_a_bundle_holds_only_the_scores_its_kind_reads(kind, three_task_run,
                                                       three_task_stream):
    ctx = scoring.context_from_run(three_task_run)
    x = three_task_stream.tasks[2].test_x
    full = scoring.compute_bundle(ctx, x)
    bundle = scoring.compute_bundle(ctx, x, (kind,))
    for name in ("mls", "msp", "ebo", "md", "knn_dist", "knn_own"):
        got = getattr(bundle, name)
        if name in scoring.SCORE_FIELDS[kind]:
            assert got.tobytes() == getattr(full, name).tobytes(), name
        else:
            assert got is None, name
    for j, probs in enumerate(bundle.wp):
        assert probs.tobytes() == full.wp[j].tobytes()
    assert (scoring.task_score_matrix(ctx, bundle, kind).tobytes()
            == scoring.task_score_matrix(ctx, full, kind).tobytes())
    for other in scoring.SCORE_KINDS:
        if not set(scoring.SCORE_FIELDS[other]) <= set(scoring.SCORE_FIELDS[kind]):
            with pytest.raises(ValueError, match=f"without the '{other}' kind"):
                scoring.task_score_matrix(ctx, bundle, other)


def test_predict_searches_one_knn_index_per_task(three_task_run, three_task_stream,
                                                 monkeypatch):
    ctx = scoring.context_from_run(three_task_run)
    x = three_task_stream.tasks[0].test_x
    calls = []
    search = scoring.knn_kth_distance

    def counting(queries, index, k):
        calls.append(index.shape[0])
        return search(queries, index, k)

    monkeypatch.setattr(scoring, "knn_kth_distance", counting)
    scoring.predict(ctx, x)
    assert calls == [ctx.knn_index[t].shape[0] for t in ctx.task_ids]
    calls.clear()
    scoring.predict(ctx, x, "knn")
    assert calls == [ctx.own_index[t].shape[0] for t in ctx.task_ids]
    calls.clear()
    scoring.compute_bundle(ctx, x)
    assert len(calls) == 2 * ctx.n_tasks()


def test_a_bundle_normalizes_each_tasks_queries_once(three_task_run, three_task_stream,
                                                      monkeypatch):
    ctx = scoring.context_from_run(three_task_run)
    x = three_task_stream.tasks[1].test_x
    want = scoring.compute_bundle(ctx, x)
    normalized = []
    normalize = scoring.normalize_rows
    monkeypatch.setattr(scoring, "normalize_rows",
                        lambda feats: normalized.append(feats.shape) or normalize(feats))
    got = scoring.compute_bundle(ctx, x)
    assert normalized == [(x.shape[0], three_task_run.net.feature_dim)] * ctx.n_tasks()
    for j, t in enumerate(ctx.task_ids):
        queries = scoring.knn_queries(hat_mlp.features(ctx.net, x, t))
        for name, index in (("knn_dist", ctx.knn_index[t]), ("knn_own", ctx.own_index[t])):
            column = getattr(got, name)[:, j]
            assert column.tobytes() == getattr(want, name)[:, j].tobytes()
            assert (column.tobytes()
                    == scoring.knn_kth_distance(queries, index, ctx.k).tobytes()), (t, name)


# --- working set ---------------------------------------------------------------

def desk_shaped_context():
    """A context of the README demo's shape: 5 tasks of 2 classes, 16 → 64 → 64,
    160 cross-task and 40 own replay rows per task."""
    rng = RngState(2).stream("desk")
    net = hat_mlp.new_hat_mlp(16, (64, 64), 400.0, RngState(3))
    stats, knn, own = {}, {}, {}
    for t in range(1, 6):
        hat_mlp.add_task(net, t, 2, RngState(3 + t))
        hat_mlp.consolidate_mask(net, t)
        root = rng.standard_normal((64, 64))
        stats[t] = scoring.TaskStats(t, rng.standard_normal((2, 64)),
                                     root @ root.T / 64 + np.eye(64), 1.0, 1.0)
        knn[t] = scoring.normalize_rows(rng.standard_normal((160, 64)))
        own[t] = scoring.normalize_rows(rng.standard_normal((40, 64)))
    classes = {t: (2 * t - 2, 2 * t - 1) for t in stats}
    return scoring.indexed_context(net, stats, (knn, own),
                                   trainer.TrainConfig(hidden_widths=(64, 64)), classes)


@pytest.mark.parametrize("kinds", [("tpl",), scoring.SCORE_KINDS], ids=["tpl", "all-kinds"])
def test_a_bundle_holds_one_tasks_temporaries_at_a_time(kinds):
    # numpy reports its allocations to tracemalloc.  The peak is one task's
    # negated queries and largest KNN Gram, beside the input rows and the
    # bundle's outputs: a task's features, logits and queries are freed
    # before the next task forwards
    ctx = desk_shaped_context()
    x = RngState(4).stream("x").standard_normal((4096, 16))
    tracemalloc.start()
    try:
        bundle = scoring.compute_bundle(ctx, x, kinds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in (bundle.mls, bundle.msp, bundle.ebo, bundle.md,
                                      bundle.knn_dist, bundle.knn_own, *bundle.wp)
                  if a is not None)
    queries = x.shape[0] * ctx.net.feature_dim * 8
    gram = x.shape[0] * max(ctx.knn_index[t].shape[0] for t in ctx.task_ids) * 8
    assert peak < 1.1 * (queries + gram + x.nbytes + outputs)
