import math

import numpy as np
import pytest

from tpl import calibration, data, scoring, trainer
from tpl.numerics import RngState


def make_run(n_tasks, *, calibrate=False, seed=11, capacity=200):
    stream = data.generate_gaussian_stream(
        n_tasks=n_tasks, classes_per_task=2, dim=6, separation=6.0,
        samples_per_class_train=40, samples_per_class_test=20, rng=RngState(2),
    )
    cfg = trainer.TrainConfig(
        epochs=6, batch_size=32, hidden_widths=(16, 16), buffer_capacity=capacity,
        calibration_epochs=40,
    )
    return trainer.run_sequence(stream, cfg, seed=seed, calibrate=calibrate)


@pytest.fixture(scope="module")
def two_task_run():
    return make_run(2)


def net_bytes(net):
    return b"".join(w.tobytes() for w in net.weights) + b"".join(
        h.weight.tobytes() for h in net.heads.values()
    )


def fit(run, epochs=40, lr=0.01, seed=5):
    return calibration.fit_calibration(
        run, epochs, run.config.calibration_batch, lr, RngState(seed)
    )


def test_single_task_returns_identity():
    run = make_run(1)
    assert fit(run) == {1: (1.0, 0.0)}


def test_uncalibrated_run_holds_the_identity(two_task_run):
    assert two_task_run.calibration == {1: (1.0, 0.0), 2: (1.0, 0.0)}


def test_zero_epochs_returns_identity(two_task_run):
    assert fit(two_task_run, epochs=0) == {1: (1.0, 0.0), 2: (1.0, 0.0)}


def test_empty_buffer_returns_identity():
    run = make_run(2, capacity=0)
    assert fit(run) == {1: (1.0, 0.0), 2: (1.0, 0.0)}


def test_fitted_objective_never_regresses(two_task_run):
    fitted = fit(two_task_run)
    # the monitored objective over the whole buffer, fitted vs identity
    base, tpos, ordered = calibration._combined_values(two_task_run)
    s1, s2 = (np.array([fitted[t][i] for t in ordered]) for i in (0, 1))
    identity = calibration._objective(base, tpos, np.ones_like(s1), np.zeros_like(s2))
    assert calibration._objective(base, tpos, s1, s2) <= identity + 1e-9
    for s1, s2 in fitted.values():
        assert math.isfinite(s1) and math.isfinite(s2)


def test_base_values_equal_the_per_sample_formula():
    # reference: WP_y * P(t_y|x) per buffer sample, from the bundle and the
    # posterior directly; calibration reads it from an uncalibrated predict
    run = make_run(3)
    base, tpos, ordered = calibration._combined_values(run)
    x, y, sample_task = run.buffer.x, run.buffer.labels, run.buffer.tasks
    ctx = scoring.context_from_run(run, calibrated=False)
    bundle = scoring.compute_bundle(ctx, x)
    post = scoring.task_posterior(
        scoring.task_score_matrix(ctx, bundle, "tpl"), ctx.temperature
    )
    pos = {t: j for j, t in enumerate(bundle.task_ids)}
    expect_base = np.zeros(x.shape[0])
    expect_tpos = np.zeros(x.shape[0], dtype=np.int64)
    for i in range(x.shape[0]):
        t = int(sample_task[i])
        j = ctx.task_classes[t].index(int(y[i]))
        expect_tpos[i] = pos[t]
        expect_base[i] = bundle.wp[pos[t]][i, j] * post[i, pos[t]]
    assert ordered == bundle.task_ids == [1, 2, 3]
    assert np.array_equal(tpos, expect_tpos)
    assert np.array_equal(base, expect_base)


def test_network_untouched_by_fitting(two_task_run):
    before = net_bytes(two_task_run.net)
    fit(two_task_run)
    assert net_bytes(two_task_run.net) == before


def test_fit_deterministic(two_task_run):
    a = fit(two_task_run, seed=9)
    b = fit(two_task_run, seed=9)
    assert a == b


def test_sgd_single_step_hand_check():
    # one full batch, one epoch: p = [0.2, 0.4], so
    #   dL/ds1 = -(0.2/0.2 + 0.4/0.4)/2 = -1
    #   dL/ds2 = -(1/0.2 + 1/0.4)/2   = -3.75
    base = np.array([0.2, 0.4])
    tpos = np.zeros(2, dtype=np.int64)
    s1, s2, best = calibration._sgd_fit(
        base, tpos, 1, epochs=1, batch=2, lr=0.1, rng=RngState(0)
    )
    assert math.isclose(s1[0], 1.1, rel_tol=1e-12)
    assert math.isclose(s2[0], 0.375, rel_tol=1e-12)
    expect = -(math.log(1.1 * 0.2 + 0.375) + math.log(1.1 * 0.4 + 0.375)) / 2
    assert math.isclose(best, expect, rel_tol=1e-12)


def test_sgd_best_obj_matches_returned_params():
    rng = RngState(3).stream("base")
    base = rng.uniform(0.01, 0.9, 60)
    tpos = (np.arange(60) % 3).astype(np.int64)
    s1, s2, best = calibration._sgd_fit(
        base, tpos, 3, epochs=10, batch=16, lr=0.05, rng=RngState(1)
    )
    recomputed = calibration._objective(base, tpos, s1, s2)
    identity = calibration._objective(base, tpos, np.ones(3), np.zeros(3))
    assert math.isclose(best, recomputed, rel_tol=1e-12)
    assert best <= identity + 1e-9


def test_clamped_samples_contribute_no_gradient():
    # a zero combined value is floor-clamped; alone it must leave the
    # parameters exactly at identity
    s1, s2, _ = calibration._sgd_fit(
        np.array([0.0]), np.zeros(1, dtype=np.int64), 1,
        epochs=3, batch=1, lr=0.5, rng=RngState(0),
    )
    assert s1[0] == 1.0
    assert s2[0] == 0.0


def test_fit_argument_validation(two_task_run):
    with pytest.raises(ValueError):
        calibration.fit_calibration(two_task_run, -1, 64, 0.01, RngState(0))
    with pytest.raises(ValueError):
        calibration.fit_calibration(two_task_run, 1, 0, 0.01, RngState(0))
    with pytest.raises(ValueError):
        calibration.fit_calibration(two_task_run, 1, 64, 0.0, RngState(0))


def test_run_sequence_invokes_calibration():
    run = make_run(2, calibrate=True, seed=12)
    assert run.calibration is not None
    assert sorted(run.calibration) == [1, 2]
    for s1, s2 in run.calibration.values():
        assert math.isfinite(s1) and math.isfinite(s2)
