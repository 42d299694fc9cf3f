import math

import numpy as np
import pytest

from tpl import data, hat_mlp, trainer
from tpl.errors import DegenerateCovariance, EmptyTrainingSet
from tpl.numerics import RngState


def quick_cfg(**kw):
    args = dict(epochs=8, batch_size=32, hidden_widths=(24, 24), buffer_capacity=40)
    args.update(kw)
    return trainer.TrainConfig(**args)


def two_task_stream(seed=1, dim=8, per_class=60):
    return data.generate_gaussian_stream(
        n_tasks=2, classes_per_task=2, dim=dim, separation=6.0,
        samples_per_class_train=per_class, samples_per_class_test=30,
        rng=RngState(seed),
    )


def til_accuracy(net, dataset):
    _, logits = hat_mlp.forward(net, dataset.test_x, dataset.task_id)
    pred = np.argmax(logits[:, : dataset.n_classes], axis=1)
    truth = data.label_positions(dataset.test_y, dataset.classes)
    return float(np.mean(pred == truth))


# --- replay buffer ----------------------------------------------------------

def buffer_dataset(classes, per_class=20, dim=3, task_id=1, seed=0):
    rng = RngState(seed).stream(f"bufdata-{task_id}")
    xs, ys = [], []
    for c in classes:
        xs.append(rng.standard_normal((per_class, dim)) + 10.0 * c)
        ys.append(np.full(per_class, c, dtype=np.int64))
    return data.TaskDataset(
        task_id=task_id, classes=tuple(classes),
        train_x=np.concatenate(xs), train_y=np.concatenate(ys),
        test_x=np.empty((0, dim)), test_y=np.empty(0, dtype=np.int64),
    )


def test_buffer_initial_fill_splits_capacity():
    buf = trainer.ReplayBuffer(10)
    buf.update(buffer_dataset([0, 1]), RngState(1))
    assert buf.class_counts() == {0: 5, 1: 5}
    assert len(buf) == 10


def test_buffer_rebalances_on_new_task():
    buf = trainer.ReplayBuffer(10)
    buf.update(buffer_dataset([0, 1], task_id=1), RngState(1))
    buf.update(buffer_dataset([2, 3], task_id=2, seed=2), RngState(2))
    counts = buf.class_counts()
    # 10 over 4 classes: earliest-seen classes carry the remainder
    assert counts == {0: 3, 1: 3, 2: 2, 3: 2}
    assert len(buf) == 10
    assert max(counts.values()) - min(counts.values()) <= 1


def test_buffer_below_one_row_per_class_keeps_the_earliest_classes():
    # classes past the capacity get quota 0 and no rows; later tasks change nothing
    buf = trainer.ReplayBuffer(3)
    buf.update(buffer_dataset([0, 1], task_id=1), RngState(1))
    assert buf.class_counts() == {0: 2, 1: 1}
    for t, classes in ((2, [2, 3]), (3, [4, 5])):
        buf.update(buffer_dataset(classes, task_id=t, seed=t), RngState(t))
        assert buf.class_counts() == {0: 1, 1: 1, 2: 1}
        assert buf.tasks.tolist() == [1, 1, 2]


def test_buffer_counts_never_differ_by_more_than_one():
    for cap in [1, 3, 7, 10, 50]:
        buf = trainer.ReplayBuffer(cap)
        rng = RngState(cap)
        for t, classes in enumerate([[0, 1], [2, 3, 4], [5], [6, 7]], start=1):
            buf.update(
                buffer_dataset(classes, task_id=t, per_class=60, seed=t), rng.stream(str(t))
            )
            counts = buf.class_counts()
            assert len(buf) <= cap
            if counts:
                assert max(counts.values()) - min(counts.values()) <= 1


def test_buffer_truncation_keeps_stored_subset():
    buf = trainer.ReplayBuffer(8)
    ds1 = buffer_dataset([0, 1], task_id=1)
    buf.update(ds1, RngState(3))
    before = {(c, tuple(r)) for c, r in zip(buf.labels.tolist(), buf.x)}
    buf.update(buffer_dataset([2, 3], task_id=2, seed=4), RngState(4))
    # rows grouped by class in arrival order, each tagged with its source task
    assert buf.labels.tolist() == [0, 0, 1, 1, 2, 2, 3, 3]
    assert buf.tasks.tolist() == [1, 1, 1, 1, 2, 2, 2, 2]
    assert buf.x.shape == (8, 3)
    assert all((c, tuple(r)) in before for c, r in zip(buf.labels[:4].tolist(), buf.x[:4]))


def test_buffer_deterministic():
    a = trainer.ReplayBuffer(6)
    b = trainer.ReplayBuffer(6)
    for buf in (a, b):
        buf.update(buffer_dataset([0, 1], task_id=1), RngState(7))
        buf.update(buffer_dataset([2], task_id=2, seed=8), RngState(8))
    for name in ("x", "labels", "tasks"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_buffer_zero_capacity_stays_empty():
    buf = trainer.ReplayBuffer(0)
    buf.update(buffer_dataset([0, 1]), RngState(9))
    assert len(buf) == 0


# --- training one task ------------------------------------------------------

def test_train_first_task_reaches_high_accuracy():
    stream = two_task_stream()
    cfg = quick_cfg()
    net = hat_mlp.new_hat_mlp(stream.dim, cfg.hidden_widths, cfg.s_max, RngState(0))
    hat_mlp.add_task(net, 1, 2, RngState(0).stream("t1"))
    history = trainer.train_task(net, stream.tasks[0], trainer.ReplayBuffer(0), cfg, RngState(10))
    assert len(history) == cfg.epochs
    assert til_accuracy(net, stream.tasks[0]) >= 0.99


def test_train_loss_settles():
    stream = two_task_stream()
    cfg = quick_cfg(epochs=12)
    net = hat_mlp.new_hat_mlp(stream.dim, cfg.hidden_widths, cfg.s_max, RngState(0))
    hat_mlp.add_task(net, 1, 2, RngState(0).stream("t1"))
    history = trainer.train_task(net, stream.tasks[0], trainer.ReplayBuffer(0), cfg, RngState(10))
    # tail of the loss curve is nonincreasing within 5%
    for prev, cur in zip(history[-3:], history[-2:]):
        assert cur <= prev * 1.05


def test_train_first_task_leaves_spare_unit_at_init():
    stream = two_task_stream()
    cfg = quick_cfg(epochs=2)
    net = hat_mlp.new_hat_mlp(stream.dim, cfg.hidden_widths, cfg.s_max, RngState(0))
    hat_mlp.add_task(net, 1, 2, RngState(0).stream("t1"))
    spare_w = net.heads[1].weight[2].copy()
    spare_b = float(net.heads[1].bias[2])
    trainer.train_task(net, stream.tasks[0], trainer.ReplayBuffer(0), cfg, RngState(10))
    assert np.array_equal(net.heads[1].weight[2], spare_w)
    assert net.heads[1].bias[2] == spare_b


def test_train_empty_dataset_rejected():
    stream = two_task_stream()
    cfg = quick_cfg()
    net = hat_mlp.new_hat_mlp(stream.dim, cfg.hidden_widths, cfg.s_max, RngState(0))
    hat_mlp.add_task(net, 1, 2, RngState(0).stream("t1"))
    empty = data.TaskDataset(
        task_id=1, classes=(0, 1),
        train_x=np.empty((0, stream.dim)), train_y=np.empty(0, dtype=np.int64),
        test_x=np.empty((0, stream.dim)), test_y=np.empty(0, dtype=np.int64),
    )
    with pytest.raises(EmptyTrainingSet):
        trainer.train_task(net, empty, trainer.ReplayBuffer(0), cfg, RngState(1))


def test_second_task_does_not_disturb_first():
    stream = two_task_stream()
    cfg = quick_cfg()
    run = trainer.run_sequence(stream, cfg, seed=3)
    cp1 = run.checkpoint_for(1)
    acc_then = til_accuracy(cp1.net, stream.tasks[0])
    acc_now = til_accuracy(run.net, stream.tasks[0])
    assert abs(acc_now - acc_then) <= 0.002
    _, logits_then = hat_mlp.forward(cp1.net, stream.tasks[0].test_x, 1)
    _, logits_now = hat_mlp.forward(run.net, stream.tasks[0].test_x, 1)
    assert float(np.max(np.abs(logits_now - logits_then))) <= 1e-3


# --- task statistics --------------------------------------------------------

def test_fit_gaussian_stats_matches_direct_formula():
    rng = RngState(20).stream("stats")
    feats = rng.standard_normal((40, 3))
    labels = np.array([0, 1] * 20)
    means, precision = trainer.fit_gaussian_stats(feats, labels, 2, ridge=0.0)
    for c in (0, 1):
        assert np.allclose(means[c], feats[labels == c].mean(axis=0), atol=1e-12)
    scatter = np.zeros((3, 3))
    for c in (0, 1):
        centered = feats[labels == c] - feats[labels == c].mean(axis=0)
        scatter += centered.T @ centered
    scatter /= 40
    assert np.allclose(precision @ scatter, np.eye(3), atol=1e-8)


def test_fit_gaussian_stats_requires_every_class():
    feats = np.ones((4, 2))
    labels = np.zeros(4, dtype=np.int64)
    with pytest.raises(DegenerateCovariance):
        trainer.fit_gaussian_stats(feats, labels, 2, ridge=1e-6)


def test_compute_task_stats_invariants():
    stream = two_task_stream()
    cfg = quick_cfg()
    run = trainer.run_sequence(stream, cfg, seed=5)
    for t, stats in run.stats.items():
        task = stream.task(t)
        assert stats.class_means.shape == (task.n_classes, cfg.hidden_widths[-1])
        assert np.array_equal(stats.precision, stats.precision.T)
        assert np.isfinite(stats.beta_mls) and stats.beta_mls > 0
        assert np.isfinite(stats.beta_md) and stats.beta_md > 0


# --- full sequence ----------------------------------------------------------

def test_run_sequence_produces_checkpoints_and_buffer():
    stream = two_task_stream()
    cfg = quick_cfg()
    run = trainer.run_sequence(stream, cfg, seed=6)
    assert [cp.task_id for cp in run.checkpoints] == [1, 2]
    assert len(run.buffer) <= cfg.buffer_capacity
    counts = run.buffer.class_counts()
    assert set(counts) == {0, 1, 2, 3}
    # checkpoint 1 buffer only knows task 1's classes
    assert set(run.checkpoint_for(1).buffer.class_counts()) == {0, 1}


def test_checkpoint_buffer_keeps_its_bytes_after_later_tasks():
    # a checkpoint shares the buffer's arrays, so later updates must replace
    # them, never write into them: each checkpoint's buffer is byte-equal to
    # the final buffer of a run that stopped at that task
    stream = data.generate_gaussian_stream(
        n_tasks=3, classes_per_task=2, dim=6, separation=6.0,
        samples_per_class_train=30, samples_per_class_test=0, rng=RngState(3),
    )
    cfg = quick_cfg(epochs=1, buffer_capacity=20)
    run = trainer.run_sequence(stream, cfg, seed=4, calibrate=False)
    for n in (1, 2):
        prefix = data.TaskStream(tasks=stream.tasks[:n])
        want = trainer.run_sequence(prefix, cfg, seed=4, calibrate=False).buffer
        got = run.checkpoint_for(n).buffer
        assert len(got) == 20 and set(got.labels.tolist()) == set(range(2 * n))
        for name in ("x", "labels", "tasks"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), (n, name)


def test_checkpoints_never_release_claimed_capacity():
    """Across a 3-task run, the cumulative masks only grow, and what a
    finished task owns stays bit-equal at every later checkpoint: its head,
    its embeddings, and each protected unit's bias and its weights from
    protected inputs (the input layer's inputs all count as protected)."""
    stream = data.generate_gaussian_stream(
        n_tasks=3, classes_per_task=2, dim=6, separation=6.0,
        samples_per_class_train=40, samples_per_class_test=0, rng=RngState(8),
    )
    run = trainer.run_sequence(stream, quick_cfg(epochs=4), seed=8, calibrate=False)
    nets = [cp.net for cp in run.checkpoints]
    frozen = 0
    for i, then in enumerate(nets):
        for now in nets[i + 1:]:
            for past, later in zip(then.past_masks, now.past_masks):
                assert np.all(later >= past)
            for t in then.task_ids():
                assert now.heads[t].weight.tobytes() == then.heads[t].weight.tobytes()
                assert now.heads[t].bias.tobytes() == then.heads[t].bias.tobytes()
                assert [e.tobytes() for e in now.embeddings[t]] == [
                    e.tobytes() for e in then.embeddings[t]]
            prev = np.ones(then.input_dim, dtype=bool)
            for l, past in enumerate(then.past_masks):
                units = past == 1.0
                block = np.ix_(units, prev)
                assert now.biases[l][units].tobytes() == then.biases[l][units].tobytes()
                assert now.weights[l][block].tobytes() == then.weights[l][block].tobytes()
                frozen += now.weights[l][block].size
                prev = units
    assert frozen > 0  # the run protected some capacity


def test_run_sequence_deterministic():
    stream = two_task_stream()
    cfg = quick_cfg(epochs=3)
    a = trainer.run_sequence(stream, cfg, seed=9)
    b = trainer.run_sequence(stream, cfg, seed=9)
    for l in range(len(a.net.weights)):
        assert np.array_equal(a.net.weights[l], b.net.weights[l])
    for t in (1, 2):
        assert np.array_equal(a.stats[t].class_means, b.stats[t].class_means)
        assert a.stats[t].beta_mls == b.stats[t].beta_mls
        assert a.loss_history[t] == b.loss_history[t]
    c = trainer.run_sequence(stream, cfg, seed=10)
    assert not np.array_equal(a.net.weights[0], c.net.weights[0])


def test_config_validation():
    with pytest.raises(ValueError):
        trainer.TrainConfig(score_variant="bogus").validate()
    with pytest.raises(ValueError):
        trainer.TrainConfig(posterior_temperature=0.0).validate()
    trainer.TrainConfig().validate()


def test_s_max_is_bounded_where_the_annealing_compensation_overflows():
    # 2·s_max² is the largest finite float at the bound and inf one ulp above it
    assert trainer.MAX_S_MAX == pytest.approx(9.4808e153, rel=1e-5)
    assert math.isfinite(2 * trainer.MAX_S_MAX * trainer.MAX_S_MAX)
    above = math.nextafter(trainer.MAX_S_MAX, math.inf)
    assert 2 * above * above == math.inf
    trainer.TrainConfig(s_max=trainer.MAX_S_MAX).validate()
    with pytest.raises(ValueError, match=r"s_max must be at most .*9\.4808e\+153"):
        trainer.TrainConfig(s_max=above).validate()
