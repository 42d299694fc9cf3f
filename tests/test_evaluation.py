import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import pearsonr, rankdata

from tpl import data, evaluation, hat_mlp, scoring, trainer
from tpl.data import label_positions
from tpl.errors import (
    DegenerateVariance,
    EmptyClassList,
    EmptyTestSet,
    MissingNclPrefix,
    NonFiniteLoss,
)
from tpl.numerics import RngState


@pytest.fixture(scope="module")
def stream():
    return data.generate_gaussian_stream(
        n_tasks=2, classes_per_task=2, dim=6, separation=6.0,
        samples_per_class_train=40, samples_per_class_test=20, rng=RngState(2),
    )


@pytest.fixture(scope="module")
def run(stream):
    cfg = trainer.TrainConfig(
        epochs=20, batch_size=32, hidden_widths=(24, 24), buffer_capacity=80,
        calibration_epochs=30,
    )
    return trainer.run_sequence(stream, cfg, seed=11)


@pytest.fixture(scope="module")
def ncl(run, stream):
    return evaluation.build_ncl_reference(stream, run.config, seed=11)


# --- AUC --------------------------------------------------------------------

def brute_auc(ind, ood):
    wins = 0.0
    for a in ind:
        for b in ood:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(ind) * len(ood))


def test_ood_auc_perfect_separation():
    assert evaluation.ood_auc([3.0, 4.0, 5.0], [0.0, 1.0, 2.0]) == 1.0
    assert evaluation.ood_auc([0.0, 1.0], [3.0, 4.0]) == 0.0


def test_ood_auc_all_ties():
    assert evaluation.ood_auc([1.0, 1.0], [1.0, 1.0, 1.0]) == 0.5


def test_ood_auc_matches_bruteforce():
    gen = RngState(4).stream("auc")
    for _ in range(10):
        ind = np.round(gen.standard_normal(25), 1)  # rounding forces ties
        ood = np.round(gen.standard_normal(31), 1)
        got = evaluation.ood_auc(ind, ood)
        assert math.isclose(got, brute_auc(ind.tolist(), ood.tolist()), abs_tol=1e-12)


def test_ood_auc_complement_identity():
    gen = RngState(5).stream("auc2")
    a = gen.standard_normal(40)
    b = gen.standard_normal(17) + 0.3
    total = evaluation.ood_auc(a, b) + evaluation.ood_auc(b, a)
    assert math.isclose(total, 1.0, abs_tol=1e-12)


def test_ood_auc_invariant_under_monotone_transform():
    gen = RngState(6).stream("auc3")
    a = gen.standard_normal(30)
    b = gen.standard_normal(30) - 0.5
    base = evaluation.ood_auc(a, b)
    assert evaluation.ood_auc(np.exp(a), np.exp(b)) == base
    assert evaluation.ood_auc(a**3, b**3) == base


#: Scores that tie often, with both infinities and both zeros among them.
TIED_SCORES = st.lists(
    st.one_of(st.sampled_from([-math.inf, -1.5, -0.0, 0.0, 0.25, 1.5, math.inf]),
              st.floats(allow_nan=False)),
    min_size=1, max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(ind=TIED_SCORES, ood=TIED_SCORES)
def test_ood_auc_is_the_pairwise_definition_exactly(ind, ood):
    """P(x > y) + P(x = y) / 2 over all n·m pairs, as an exact fraction
    rounded once: the counting form must return exactly that float."""
    twice_wins = sum(2 * (a > b) + (a == b) for a in ind for b in ood)
    assert evaluation.ood_auc(ind, ood) == float(Fraction(twice_wins, 2 * len(ind) * len(ood)))


def test_ood_auc_equals_the_rank_sum_bit_for_bit():
    gen = RngState(8).stream("auc4")
    for i in range(200):
        n, m = 1 + i % 17, 1 + (7 * i) % 23
        a, b = gen.standard_normal(n), gen.standard_normal(m)
        if i % 2:  # rounding forces ties
            a, b = np.round(a, 1), np.round(b, 1)
        ranks = rankdata(np.concatenate([a, b]))
        rank_sum = float(np.sum(ranks[:n]))
        assert evaluation.ood_auc(a, b) == (rank_sum - n * (n + 1) / 2.0) / (n * m)


@pytest.mark.parametrize("ind,ood", [([math.nan, 1.0], [0.0]), ([1.0], [0.0, math.nan]),
                                     ([math.nan], [math.nan])])
def test_ood_auc_with_a_nan_is_nan(ind, ood):
    assert math.isnan(evaluation.ood_auc(ind, ood))


def test_ood_auc_empty_side():
    with pytest.raises(EmptyClassList):
        evaluation.ood_auc([], [1.0])
    with pytest.raises(EmptyClassList):
        evaluation.ood_auc([1.0], [])


# --- correlation ------------------------------------------------------------

def test_correlation_exact_line():
    r, slope = evaluation.auc_acc_correlation([(0.0, 0.0), (1.0, 2.0), (2.0, 4.0)])
    assert math.isclose(r, 1.0, abs_tol=1e-12)
    assert math.isclose(slope, 2.0, abs_tol=1e-12)


def test_correlation_antisymmetric():
    r, _ = evaluation.auc_acc_correlation([(0.0, 3.0), (1.0, 2.0), (2.0, 1.0)])
    assert math.isclose(r, -1.0, abs_tol=1e-12)


def test_correlation_matches_reference_formulas():
    gen = RngState(7).stream("corr")
    a = gen.standard_normal(10)
    b = 0.6 * a + 0.2 * gen.standard_normal(10)
    pairs = list(zip(a.tolist(), b.tolist()))
    r, slope = evaluation.auc_acc_correlation(pairs)
    assert math.isclose(r, pearsonr(a, b).statistic, abs_tol=1e-12)
    assert math.isclose(slope, np.polyfit(a, b, 1)[0], abs_tol=1e-10)


def test_correlation_rejects_degenerate_and_short():
    with pytest.raises(DegenerateVariance):
        evaluation.auc_acc_correlation([(1.0, 0.0), (1.0, 1.0), (1.0, 2.0)])
    with pytest.raises(ValueError):
        evaluation.auc_acc_correlation([(0.0, 0.0), (1.0, 1.0)])


# --- forgetting arithmetic --------------------------------------------------

def hand_reference():
    per_task = {1: {1: 0.9}, 2: {1: 0.7, 2: 0.8}}
    ncl = evaluation.NclReference(
        per_task={1: {1: 0.95}, 2: {1: 0.85, 2: 0.9}},
        pooled={1: 0.95, 2: 0.875},
    )
    return per_task, ncl


def test_forgetting_hand_built_table():
    per_task, ncl = hand_reference()
    f_last, f_aia = evaluation.forgetting_rates(per_task, ncl)
    # prefix 1 rate 0.05, prefix 2 rate (0.15 + 0.10)/2 = 0.125
    assert math.isclose(f_last, 0.125, abs_tol=1e-12)
    assert math.isclose(f_aia, (0.05 + 0.125) / 2, abs_tol=1e-12)


def test_forgetting_zero_when_no_gap():
    per_task = {1: {1: 0.9}, 2: {1: 0.7, 2: 0.8}}
    ncl = evaluation.NclReference(per_task=per_task, pooled={})
    assert evaluation.forgetting_rates(per_task, ncl) == (0.0, 0.0)


def test_forgetting_missing_prefix():
    per_task, ncl = hand_reference()
    del ncl.per_task[2]
    with pytest.raises(MissingNclPrefix):
        evaluation.forgetting_rates(per_task, ncl)
    incomplete = evaluation.NclReference(
        per_task={1: {1: 0.95}, 2: {2: 0.9}}, pooled={}
    )
    with pytest.raises(MissingNclPrefix):
        evaluation.forgetting_rates(per_task, incomplete)


# --- accuracies on a real run -----------------------------------------------

def test_cil_and_til_accuracy_high_on_separable_run(run, stream):
    ctx = scoring.context_from_run(run)
    acc = evaluation.cil_accuracy(ctx, list(stream.tasks))
    assert acc >= 0.9
    assert min(evaluation.til_accuracies(ctx.net, stream.tasks).values()) >= 0.95


def test_cil_accuracy_empty_inputs(run, stream):
    ctx = scoring.context_from_run(run)
    with pytest.raises(EmptyTestSet):
        evaluation.cil_accuracy(ctx, [])
    d = stream.tasks[0]
    empty = dataclasses.replace(
        d, test_x=np.empty((0, d.dim)), test_y=np.empty(0, dtype=np.int64)
    )
    with pytest.raises(EmptyTestSet):
        evaluation.til_accuracies(ctx.net, [empty])


def test_random_relabeling_drops_to_chance(run, stream):
    # scrambling task-1 test labels uniformly over its 2 classes should pull
    # accuracy to ~0.5 (3-sigma binomial margin for n=40)
    ctx = scoring.context_from_run(run)
    d = stream.task(1)
    gen = RngState(9).stream("relabel")
    scrambled = np.asarray(d.classes)[gen.integers(0, 2, d.test_y.shape[0])]
    fake = dataclasses.replace(d, test_y=scrambled)
    acc = evaluation.cil_accuracy(ctx, [fake])
    assert abs(acc - 0.5) <= 3 * math.sqrt(0.25 / d.test_y.shape[0])


def test_trajectory_matches_per_task_breakdown(run, stream):
    trajectory, per_task = evaluation.accuracy_trajectory(run, stream)
    for k, t in enumerate(run.task_ids()):
        seen = [d for d in stream.tasks if d.task_id <= t]
        sizes = [d.test_y.shape[0] for d in seen]
        pooled = sum(
            per_task[t][d.task_id] * n for d, n in zip(seen, sizes)
        ) / sum(sizes)
        assert math.isclose(trajectory[k], pooled, abs_tol=1e-12)


# --- reference model --------------------------------------------------------

def test_ncl_reference_deterministic(run, stream):
    a = evaluation.train_ncl_reference(stream, 2, run.config, seed=11)
    b = evaluation.train_ncl_reference(stream, 2, run.config, seed=11)
    assert a == b


def test_ncl_reference_accurate_and_gates_inert(run, stream):
    accs, pooled = evaluation.train_ncl_reference(stream, 1, run.config, seed=11)
    assert accs[1] >= 0.95
    assert pooled == accs[1]


def test_ncl_reference_all_prefixes(ncl, run):
    assert sorted(ncl.per_task) == [1, 2]
    assert sorted(ncl.per_task[2]) == [1, 2]
    assert ncl.pooled[2] >= 0.9


def test_ncl_missing_prefix_raises(run, stream):
    with pytest.raises(MissingNclPrefix):
        evaluation.train_ncl_reference(stream, 0, run.config, seed=1)


_KEY = evaluation._POOLED_HEAD_KEY


def _pinned_train_ncl_reference(stream, prefix, cfg, seed):
    """The reference as first written: a gated trunk with every embedding
    pinned at ``EMBEDDING_CLAMP``.  Returns the network as well."""
    tasks = [d for d in stream.tasks if d.task_id <= prefix]
    if not tasks:
        raise MissingNclPrefix(f"stream has no tasks at or below {prefix}")
    pooled_classes = [c for d in tasks for c in d.classes]
    x = np.concatenate([d.train_x for d in tasks])
    y = label_positions(np.concatenate([d.train_y for d in tasks]), pooled_classes)

    root = RngState(seed).stream(f"ncl-{prefix}")
    net = hat_mlp.new_hat_mlp(
        stream.dim, tuple(cfg.hidden_widths), cfg.s_max, root.stream("init")
    )
    hat_mlp.add_task(net, _KEY, len(pooled_classes), root.stream("head"))
    for e in net.embeddings[_KEY]:
        e[:] = hat_mlp.EMBEDDING_CLAMP

    state = hat_mlp.init_momentum(net, _KEY)
    n = x.shape[0]
    for epoch in range(cfg.epochs):
        perm = root.stream(f"shuffle-epoch-{epoch}").permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            hat_mlp.train_step(
                net, x[idx], y[idx], _KEY, cfg.s_max, 0.0, cfg.learning_rate,
                cfg.momentum, state, mask_others=True,
            )

    hits = [evaluation._head_hits(net, _KEY, pooled_classes, d) for d in tasks]
    accs = {d.task_id: float(np.mean(h)) for d, h in zip(tasks, hits)}
    return net, accs, float(np.mean(np.concatenate(hits)))


def _built_nets(fn, *args):
    """``fn(*args)`` and every network it built through ``hat_mlp.new_hat_mlp``."""
    nets = []
    new = hat_mlp.new_hat_mlp

    def record(*a, **k):
        nets.append(new(*a, **k))
        return nets[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hat_mlp, "new_hat_mlp", record)
        return fn(*args), nets


def _reference_bits(net, accs, pooled):
    head = net.heads[_KEY]
    arrays = [*net.weights, *net.biases, head.weight, head.bias]
    return ([a.tobytes() for a in arrays], sorted(accs),
            [np.float64(v).tobytes() for _, v in sorted(accs.items())],
            np.float64(pooled).tobytes())


def _assert_matches_pinned(stream, prefix, cfg, seed, net, accs, pooled):
    assert net.embeddings[_KEY] == []
    assert _reference_bits(net, accs, pooled) == _reference_bits(
        *_pinned_train_ncl_reference(stream, prefix, cfg, seed))


@settings(max_examples=100, deadline=None)
@given(
    dim=st.integers(1, 6),
    widths=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    n_tasks=st.integers(1, 3),
    classes_per_task=st.integers(1, 3),
    batch_size=st.integers(1, 40),
    epochs=st.integers(1, 3),
    s_max=st.floats(7.0, 1000.0),
    seed=st.integers(0, 2**32 - 1),
    extra=st.data(),
)
def test_ungated_reference_matches_the_pinned_gates_bit_for_bit(
        dim, widths, n_tasks, classes_per_task, batch_size, epochs, s_max, seed, extra):
    # above s_max of about 6.12, sigmoid(6 * s_max) rounds to 1.0, so the
    # pinned gates were exactly open and the ungated trunk computes the same bits
    stream = data.generate_gaussian_stream(n_tasks, classes_per_task, dim, 3.0,
                                           extra.draw(st.integers(1, 8)), 2, RngState(seed))
    prefix = extra.draw(st.integers(1, n_tasks))
    cfg = trainer.TrainConfig(epochs=epochs, batch_size=batch_size,
                              hidden_widths=tuple(widths), s_max=s_max)
    (accs, pooled), (net,) = _built_nets(
        evaluation.train_ncl_reference, stream, prefix, cfg, seed)
    _assert_matches_pinned(stream, prefix, cfg, seed, net, accs, pooled)


@pytest.mark.parametrize("seed", [1, 7])
def test_desk_reference_matches_the_pinned_gates_bit_for_bit(seed):
    # the README demo config, as ``eval --ncl`` trains it at every prefix
    stream = data.generate_gaussian_stream(5, 2, 16, 6.0, 200, 100, RngState(seed))
    cfg = trainer.TrainConfig()
    ncl, nets = _built_nets(evaluation.build_ncl_reference, stream, cfg, seed)
    assert [d.task_id for d in stream.tasks] == sorted(ncl.per_task) == [1, 2, 3, 4, 5]
    for t, net in zip(sorted(ncl.per_task), nets):
        _assert_matches_pinned(stream, t, cfg, seed, net, ncl.per_task[t], ncl.pooled[t])


def test_a_diverging_reference_stops_at_its_first_non_finite_loss():
    # the README demo stream; any RuntimeWarning fails this suite
    stream = data.generate_gaussian_stream(5, 2, 16, 6.0, 200, 100, RngState(1))
    cfg = dataclasses.replace(trainer.TrainConfig(), learning_rate=1e300, epochs=2)
    with pytest.raises(NonFiniteLoss, match=r"^joint reference for prefix 2, epoch 1: "
                                            r"training loss is nan; lower the learning_rate"):
        evaluation.train_ncl_reference(stream, 2, cfg, 1)


def test_the_reference_names_the_epoch_of_the_non_finite_loss(run, stream, monkeypatch):
    # 160 pooled rows in batches of 32: the sixth step is epoch 2's first
    losses = iter([1.0] * 5 + [math.inf])
    monkeypatch.setattr(hat_mlp, "train_step", lambda *a, **k: next(losses))
    with pytest.raises(NonFiniteLoss, match=r"^joint reference for prefix 2, epoch 2: "
                                            r"training loss is inf;"):
        evaluation.train_ncl_reference(stream, 2, run.config, 11)


def test_reference_is_ungated_at_every_s_max(run, stream):
    # pinned gates passed activations through exactly only once
    # sigmoid(6 * s_max) rounded to 1.0; below that they drifted with s_max
    bits = []
    for s_max in (2.0, 6.0, 400.0):
        cfg = dataclasses.replace(run.config, s_max=s_max)
        (accs, pooled), (net,) = _built_nets(
            evaluation.train_ncl_reference, stream, 2, cfg, 11)
        bits.append(_reference_bits(net, accs, pooled))
    assert bits[0] == bits[1] == bits[2]


# --- report -----------------------------------------------------------------

def test_compute_report_consistent(run, stream, ncl):
    report = evaluation.compute_report(run, stream, ncl)
    assert len(report.trajectory) == 2
    assert report.a_last == report.trajectory[-1]
    assert abs(report.a_aia - (report.trajectory[0] + report.trajectory[1]) / 2) < 1e-12
    assert report.ood_mean >= 0.8
    assert report.f_cil_last is not None
    json.dumps(report.as_dict())  # must be serializable as-is


def test_compute_report_single_task_skips_detection_auc():
    stream = data.generate_gaussian_stream(
        n_tasks=1, classes_per_task=2, dim=6, separation=6.0,
        samples_per_class_train=40, samples_per_class_test=20, rng=RngState(2),
    )
    cfg = trainer.TrainConfig(
        epochs=8, batch_size=32, hidden_widths=(24,), buffer_capacity=40,
        calibration_epochs=10,
    )
    report = evaluation.compute_report(trainer.run_sequence(stream, cfg, seed=11), stream)
    assert report.ood == {}
    assert report.ood_mean is None
    assert len(report.trajectory) == 1


def test_forgetting_identity_with_equal_test_sizes(run, stream, ncl):
    # every task has 40 test samples, so the Last-style rate must equal the
    # pooled-accuracy gap exactly
    report = evaluation.compute_report(run, stream, ncl)
    gap = ncl.pooled[2] - report.a_last
    assert abs(report.f_cil_last - gap) <= 1e-12
