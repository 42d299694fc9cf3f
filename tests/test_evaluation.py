import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.stats import pearsonr

from tpl import data, evaluation, scoring, trainer
from tpl.errors import (
    DegenerateVariance,
    EmptyClassList,
    EmptyTestSet,
    MissingNclPrefix,
)
from tpl.numerics import RngState


@pytest.fixture(scope="module")
def run():
    stream = data.generate_gaussian_stream(
        n_tasks=2, classes_per_task=2, dim=6, separation=6.0,
        samples_per_class_train=40, samples_per_class_test=20, rng=RngState(2),
    )
    cfg = trainer.TrainConfig(
        epochs=20, batch_size=32, hidden_widths=(24, 24), buffer_capacity=80,
        calibration_epochs=30,
    )
    return trainer.run_sequence(stream, cfg, seed=11)


@pytest.fixture(scope="module")
def ncl(run):
    return evaluation.build_ncl_reference(run.stream, run.config, seed=11)


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

def test_cil_and_til_accuracy_high_on_separable_run(run):
    ctx = scoring.context_from_run(run)
    acc = evaluation.cil_accuracy(ctx, list(run.stream.tasks))
    assert acc >= 0.9
    for d in run.stream.tasks:
        assert evaluation.til_accuracy(ctx, d.task_id, d) >= 0.95


def test_cil_accuracy_empty_inputs(run):
    ctx = scoring.context_from_run(run)
    with pytest.raises(EmptyTestSet):
        evaluation.cil_accuracy(ctx, [])
    d = run.stream.tasks[0]
    empty = dataclasses.replace(
        d, test_x=np.empty((0, d.dim)), test_y=np.empty(0, dtype=np.int64)
    )
    with pytest.raises(EmptyTestSet):
        evaluation.til_accuracy(ctx, d.task_id, empty)


def test_random_relabeling_drops_to_chance(run):
    # scrambling task-1 test labels uniformly over its 2 classes should pull
    # accuracy to ~0.5 (3-sigma binomial margin for n=40)
    ctx = scoring.context_from_run(run)
    d = run.stream.task(1)
    gen = RngState(9).stream("relabel")
    scrambled = np.asarray(d.classes)[gen.integers(0, 2, d.test_y.shape[0])]
    fake = dataclasses.replace(d, test_y=scrambled)
    acc = evaluation.cil_accuracy(ctx, [fake])
    assert abs(acc - 0.5) <= 3 * math.sqrt(0.25 / d.test_y.shape[0])


def test_trajectory_matches_per_task_breakdown(run):
    trajectory, per_task = evaluation.accuracy_trajectory(run)
    for k, t in enumerate(run.task_ids()):
        seen = [d for d in run.stream.tasks if d.task_id <= t]
        sizes = [d.test_y.shape[0] for d in seen]
        pooled = sum(
            per_task[t][d.task_id] * n for d, n in zip(seen, sizes)
        ) / sum(sizes)
        assert math.isclose(trajectory[k], pooled, abs_tol=1e-12)


# --- reference model --------------------------------------------------------

def test_ncl_reference_deterministic(run):
    a = evaluation.train_ncl_reference(run.stream, 2, run.config, seed=11)
    b = evaluation.train_ncl_reference(run.stream, 2, run.config, seed=11)
    assert a == b


def test_ncl_reference_accurate_and_gates_inert(run):
    accs, pooled = evaluation.train_ncl_reference(run.stream, 1, run.config, seed=11)
    assert accs[1] >= 0.95
    assert pooled == accs[1]


def test_ncl_reference_all_prefixes(ncl, run):
    assert sorted(ncl.per_task) == [1, 2]
    assert sorted(ncl.per_task[2]) == [1, 2]
    assert ncl.pooled[2] >= 0.9


def test_ncl_missing_prefix_raises(run):
    with pytest.raises(MissingNclPrefix):
        evaluation.train_ncl_reference(run.stream, 0, run.config, seed=1)


# --- report -----------------------------------------------------------------

def test_compute_report_consistent(run, ncl):
    report = evaluation.compute_report(run, ncl)
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
    report = evaluation.compute_report(trainer.run_sequence(stream, cfg, seed=11))
    assert report.ood == {}
    assert report.ood_mean is None
    assert len(report.trajectory) == 1


def test_compute_report_uses_a_stored_trajectory(run):
    stored = evaluation.accuracy_trajectory(run)
    fresh = evaluation.compute_report(run)
    assert evaluation.compute_report(run, trajectory=stored) == fresh
    fake = ([0.5, 0.25], {1: {1: 0.5}, 2: {1: 0.0, 2: 0.5}})
    report = evaluation.compute_report(run, trajectory=fake)
    assert report.trajectory == [0.5, 0.25]
    assert report.per_task == fake[1]
    assert report.til == fresh.til


def test_forgetting_identity_with_equal_test_sizes(run, ncl):
    # every task has 40 test samples, so the Last-style rate must equal the
    # pooled-accuracy gap exactly
    report = evaluation.compute_report(run, ncl)
    gap = ncl.pooled[2] - report.a_last
    assert abs(report.f_cil_last - gap) <= 1e-12
