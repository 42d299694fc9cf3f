import copy
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tpl import cli, hat_mlp
from tpl.errors import DimensionMismatch, ShapeMismatch, UngatedTask, UnknownTask
from tpl.numerics import RngState


def tiny_net(widths=(3,), input_dim=2, s_max=400.0, seed=0):
    net = hat_mlp.new_hat_mlp(input_dim, widths, s_max, RngState(seed))
    hat_mlp.add_task(net, 1, 2, RngState(seed).stream("task1"))
    return net


# --- attention --------------------------------------------------------------

def test_attention_zero_embedding_is_half():
    net = tiny_net()
    net.embeddings[1] = [np.zeros(3)]
    a = hat_mlp.attention(net, 1, 13.0)
    assert np.allclose(a[0], 0.5, atol=1e-15)


def test_attention_saturates_at_inference_scale():
    net = tiny_net()
    net.embeddings[1] = [np.array([6.0, -6.0, 0.1])]
    a = hat_mlp.attention(net, 1, net.s_max)[0]
    assert a[0] == 1.0
    assert a[1] == 0.0
    assert a[2] > 0.999999


def test_attention_monotone_in_scale():
    net = tiny_net()
    net.embeddings[1] = [np.array([0.5, -0.5, 0.0])]
    lo = hat_mlp.attention(net, 1, 0.1)[0]
    hi = hat_mlp.attention(net, 1, 50.0)[0]
    assert hi[0] > lo[0]
    assert hi[1] < lo[1]
    assert lo[2] == hi[2] == 0.5


def test_attention_unknown_task():
    net = tiny_net()
    with pytest.raises(UnknownTask):
        hat_mlp.attention(net, 9, 1.0)


# --- forward ----------------------------------------------------------------

def test_forward_repeatable_and_batch_consistent():
    net = tiny_net(widths=(4, 3), input_dim=5, seed=3)
    x = RngState(7).stream("x").standard_normal((6, 5))
    f1, l1 = hat_mlp.forward(net, x, 1)
    f2, l2 = hat_mlp.forward(net, x, 1)
    assert np.array_equal(f1, f2) and np.array_equal(l1, l2)
    f_row, l_row = hat_mlp.forward(net, x[2:3], 1)
    assert np.allclose(f_row[0], f1[2], atol=1e-15)
    assert np.allclose(l_row[0], l1[2], atol=1e-15)


def test_features_in_place_match_the_one_expression_form_bitwise():
    # each layer's bias, ReLU and gate are applied in place to its product:
    # the bits are those of ``maximum(h @ w.T + b, 0) * a``, and x is kept
    net = tiny_net(widths=(7, 5, 6), input_dim=4, seed=5)
    for l, e in enumerate(net.embeddings[1]):
        e[:] = RngState(8).stream(f"e{l}").standard_normal(e.shape)
    _randomize_biases(net, 1, 10)
    x = RngState(9).stream("x").standard_normal((11, 4))
    kept = x.copy()
    h = x
    for w, b, a in zip(net.weights, net.biases, hat_mlp.attention(net, 1, net.s_max)):
        h = np.maximum(h @ w.T + b, 0.0) * a
    assert hat_mlp.features(net, x, 1).tobytes() == h.tobytes()
    assert x.tobytes() == kept.tobytes()


def test_forward_fully_gated_off_leaves_only_bias():
    net = tiny_net(widths=(3,), input_dim=2)
    net.embeddings[1] = [np.full(3, -6.0)]
    x = np.array([[1.0, -2.0]])
    feats, logits = hat_mlp.forward(net, x, 1)  # gates at s_max
    assert np.all(feats == 0.0)
    assert np.allclose(logits[0], net.heads[1].bias, atol=1e-15)


def test_forward_rejects_bad_input():
    net = tiny_net()
    with pytest.raises(DimensionMismatch):
        hat_mlp.forward(net, np.zeros((2, 7)), 1)
    with pytest.raises(DimensionMismatch):  # a single row is a [1, input_dim] batch
        hat_mlp.forward(net, np.zeros(2), 1)
    with pytest.raises(UnknownTask):  # the task is checked before the shape
        hat_mlp.forward(net, np.zeros(7), 5)


# --- annealing --------------------------------------------------------------

def test_anneal_endpoints():
    assert math.isclose(hat_mlp.anneal_s(1, 10, 400.0), 1.0 / 400.0)
    assert math.isclose(hat_mlp.anneal_s(10, 10, 400.0), 400.0)
    mid = hat_mlp.anneal_s(5, 9, 400.0)
    assert math.isclose(mid, 1 / 400 + (400 - 1 / 400) * 0.5)


def test_anneal_single_batch_epoch():
    assert hat_mlp.anneal_s(1, 1, 400.0) == 400.0


def test_anneal_rejects_out_of_range():
    with pytest.raises(ValueError):
        hat_mlp.anneal_s(0, 5, 400.0)
    with pytest.raises(ValueError):
        hat_mlp.anneal_s(6, 5, 400.0)


# --- the step's core: loss and gradients --------------------------------------

def _core_loss(net, x, y, task_id, s, reg_weight, state, mask_others=False):
    """``train_step``'s batch loss, without its update; the gradients are left
    in ``state.grads``."""
    loss, _ = hat_mlp._loss_and_gradients(net, x, y, task_id, s, reg_weight, mask_others,
                                          state)
    return loss


def _reg_loss(net, task_id, s):
    """The gate regularizer: the loss it adds to a batch at weight 1."""
    state = hat_mlp.init_momentum(net, task_id)
    x, y = np.zeros((1, net.input_dim)), np.array([0])
    return (_core_loss(net, x, y, task_id, s, 1.0, state)
            - _core_loss(net, x, y, task_id, s, 0.0, state))


def test_reg_loss_fresh_net_is_mean_gate():
    net = tiny_net(widths=(4, 2), input_dim=3, seed=1)
    hat_mlp.add_task(net, 2, 2, RngState(5))
    gates = hat_mlp.attention(net, 2, 7.0)
    expect = sum(float(np.sum(a)) for a in gates) / 6.0
    assert math.isclose(_reg_loss(net, 2, 7.0), expect, rel_tol=1e-12)


def test_reg_loss_zero_when_capacity_exhausted():
    net = tiny_net()
    net.past_masks = [np.ones(3)]
    assert _reg_loss(net, 1, 5.0) == 0.0


def test_reg_loss_counts_only_free_units():
    net = tiny_net()
    net.embeddings[1] = [np.array([6.0, 6.0, -6.0])]
    net.past_masks = [np.array([1.0, 0.0, 0.0])]
    # free units: gate values sigmoid(s_max*6)=1 and 0 -> num=1, den=2
    assert math.isclose(_reg_loss(net, 1, net.s_max), 0.5, rel_tol=1e-12)


# --- gradients vs central differences ---------------------------------------

def _param_grad_pairs(net, task_id, grads):
    head = net.heads[task_id]
    pairs = list(zip(net.weights, grads.weights))
    pairs += list(zip(net.biases, grads.biases))
    pairs += list(zip(net.embeddings[task_id], grads.embeddings))
    pairs += [(head.weight, grads.head_weight), (head.bias, grads.head_bias)]
    return pairs


def _randomize_biases(net, task_id, seed):
    # zero-init biases put pre-activations exactly on the ReLU kink for dead
    # samples, where central differences are invalid; move to a generic point
    rng = RngState(seed).stream("bias-jitter")
    for b in net.biases:
        b += 0.1 * rng.standard_normal(b.shape)
    net.heads[task_id].bias += 0.1 * rng.standard_normal(net.heads[task_id].bias.shape)


def _check_gradients(net, x, y, task_id, s, mu, mask_others):
    state = hat_mlp.init_momentum(net, task_id)
    loss = _core_loss(net, x, y, task_id, s, mu, state, mask_others)
    assert np.isfinite(loss)
    # the workspace is overwritten by every loss below: keep the analytic copy
    pairs = [(arr, grad.copy()) for arr, grad in _param_grad_pairs(net, task_id, state.grads)]
    for arr, grad in pairs:
        flat = arr.ravel()      # a view: the net's arrays are views of the state's buffers
        gflat = grad.ravel()
        for i in range(flat.size):
            h = 1e-6 * max(1.0, abs(flat[i]))
            orig = flat[i]
            flat[i] = orig + h
            up = _core_loss(net, x, y, task_id, s, mu, state, mask_others)
            flat[i] = orig - h
            dn = _core_loss(net, x, y, task_id, s, mu, state, mask_others)
            flat[i] = orig
            numeric = (up - dn) / (2 * h)
            assert abs(gflat[i] - numeric) <= 1e-4 * max(1e-3, abs(gflat[i]), abs(numeric)), (
                f"grad mismatch at entry {i}: analytic {gflat[i]}, numeric {numeric}"
            )


def test_gradcheck_two_layer_net():
    # 2-3-2 trunk + 2-class head: 29 parameters, all checked entrywise
    net = hat_mlp.new_hat_mlp(2, (3, 2), 400.0, RngState(11))
    hat_mlp.add_task(net, 1, 2, RngState(12))
    _randomize_biases(net, 1, 14)
    rng = RngState(13).stream("data")
    x = rng.standard_normal((5, 2))
    y = np.array([0, 1, 2, 0, 1])  # includes the everything-else label
    _check_gradients(net, x, y, 1, s=3.0, mu=0.75, mask_others=False)


def test_gradcheck_with_protected_capacity():
    net = hat_mlp.new_hat_mlp(2, (3, 2), 400.0, RngState(21))
    hat_mlp.add_task(net, 1, 2, RngState(22))
    net.past_masks = [np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0])]
    _randomize_biases(net, 1, 24)
    rng = RngState(23).stream("data")
    x = rng.standard_normal((4, 2))
    y = np.array([0, 1, 0, 1])
    _check_gradients(net, x, y, 1, s=7.0, mu=0.75, mask_others=False)


def test_gradcheck_first_task_masked_softmax():
    net = hat_mlp.new_hat_mlp(2, (3,), 400.0, RngState(31))
    hat_mlp.add_task(net, 1, 2, RngState(32))
    _randomize_biases(net, 1, 34)
    rng = RngState(33).stream("data")
    x = rng.standard_normal((4, 2))
    y = np.array([0, 1, 1, 0])
    _check_gradients(net, x, y, 1, s=2.0, mu=0.5, mask_others=True)


def test_gradcheck_ungated_task():
    net = hat_mlp.new_hat_mlp(2, (3, 2), 4.0, RngState(35))
    hat_mlp.add_task(net, 1, 2, RngState(36), gated=False)
    _randomize_biases(net, 1, 38)
    rng = RngState(37).stream("data")
    x = rng.standard_normal((5, 2))
    y = np.array([0, 1, 1, 0, 1])
    _check_gradients(net, x, y, 1, s=4.0, mu=0.0, mask_others=True)


# --- the update --------------------------------------------------------------

def _stepped(net, task_id, steps=1, s=5.0, reg_weight=0.75, lr=0.1, momentum=0.9,
             mask_others=False, seed=0):
    """Take ``steps`` train steps of ``task_id`` on seeded random batches of 8
    rows; returns the training state."""
    state = hat_mlp.init_momentum(net, task_id)
    rng = RngState(seed).stream("batches")
    n_labels = net.heads[task_id].n_classes + (0 if mask_others else 1)
    for _ in range(steps):
        x = rng.standard_normal((8, net.input_dim))
        y = rng.integers(0, n_labels, 8)
        hat_mlp.train_step(net, x, y, task_id, s, reg_weight, lr, momentum, state,
                           mask_others=mask_others)
    return state


def test_first_task_leaves_others_unit_untouched():
    net = tiny_net(seed=5)
    head = net.heads[1]
    before = _bits([head.weight[2], head.bias[2:]])
    state = _stepped(net, 1, steps=5, mask_others=True, seed=6)
    assert np.all(state.grads.head_weight[2] == 0.0) and state.grads.head_bias[2] == 0.0
    assert _bits([head.weight[2], head.bias[2:]]) == before
    assert not np.array_equal(head.weight[:2], tiny_net(seed=5).heads[1].weight[:2])


def test_train_step_freezes_protected_rows():
    net = tiny_net(widths=(3, 2), input_dim=2, seed=9)
    net.past_masks = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0])]
    for b in net.biases:
        b[:] = 1.0  # every unit active: every free entry has a gradient
    w0_before = net.weights[0].copy()
    b0_before = net.biases[0].copy()
    _stepped(net, 1, steps=3, seed=10)
    # protected unit 0 of layer 1: incoming weights and bias frozen
    assert net.weights[0][0].tobytes() == w0_before[0].tobytes()
    assert net.biases[0][:1].tobytes() == b0_before[:1].tobytes()
    # free units moved
    assert np.all(net.weights[0][1:] != w0_before[1:])
    assert np.all(net.biases[0][1:] != b0_before[1:])


def test_train_step_interlayer_min_rule():
    net = tiny_net(widths=(3, 2), input_dim=2, seed=9)
    net.past_masks = [np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0])]
    for b in net.biases:
        b[:] = 1.0
    w1_before = net.weights[1].copy()
    _stepped(net, 1, steps=3, momentum=0.0, seed=11)
    # row 0 (protected out-unit): entry from protected in-unit 0 frozen,
    # entries from free in-units 1,2 move (min rule)
    assert net.weights[1][0, 0].tobytes() == w1_before[0, 0].tobytes()
    assert np.all(net.weights[1][0, 1:] != w1_before[0, 1:])
    # row 1 (free out-unit): everything moves
    assert np.all(net.weights[1][1] != w1_before[1])


def test_train_step_momentum_accumulates():
    net = tiny_net(seed=2)
    state = hat_mlp.init_momentum(net, 1)
    x, y = RngState(13).stream("x").standard_normal((8, 2)), np.array([0, 1, 2, 0] * 2)
    # at lr 0 nothing moves, so both steps take the same gradient g
    hat_mlp.train_step(net, x, y, 1, 5.0, 0.75, 0.0, 0.9, state)
    g = [state.trunk_velocity.copy(), state.task_velocity.copy()]
    assert all(v.any() for v in g)
    hat_mlp.train_step(net, x, y, 1, 5.0, 0.75, 0.0, 0.9, state)
    assert _velocity_bits(state) == _bits([v * 0.9 + v for v in g])


def test_train_step_clamps_embeddings():
    net = tiny_net(seed=4)
    _stepped(net, 1, s=1.0, lr=1e6, momentum=0.0, seed=12)
    e = net.embeddings[1][0]
    assert np.all(np.abs(e) <= hat_mlp.EMBEDDING_CLAMP)
    assert np.any(np.abs(e) == hat_mlp.EMBEDDING_CLAMP)


def test_momentum_state_refused_after_consolidation_or_for_another_task():
    net = tiny_net(widths=(3, 2), input_dim=2, seed=9)
    hat_mlp.add_task(net, 2, 2, RngState(10))
    x, y = RngState(11).stream("x").standard_normal((4, 2)), np.array([0, 1, 2, 0])
    state = hat_mlp.init_momentum(net, 1)
    hat_mlp.train_step(net, x, y, 1, 5.0, 0.75, 0.1, 0.9, state)
    with pytest.raises(ShapeMismatch, match="another task"):
        hat_mlp.train_step(net, x, y, 2, 5.0, 0.75, 0.1, 0.9, state)
    hat_mlp.consolidate_mask(net, 1)
    with pytest.raises(ShapeMismatch, match="init_momentum"):
        hat_mlp.train_step(net, x, y, 1, 5.0, 0.75, 0.1, 0.9, state)
    fresh = hat_mlp.init_momentum(net, 2)
    assert all(p is q for p, q in zip(fresh.past_masks, net.past_masks))
    hat_mlp.train_step(net, x, y, 2, 5.0, 0.75, 0.1, 0.9, fresh)


# --- consolidation ----------------------------------------------------------

def test_consolidate_binarizes_and_accumulates():
    net = tiny_net(widths=(4,), input_dim=2)
    hat_mlp.add_task(net, 2, 2, RngState(8))
    net.embeddings[1] = [np.array([6.0, -6.0, 0.2, -0.2])]
    hat_mlp.consolidate_mask(net, 1)
    assert net.past_masks[0].tolist() == [1.0, 0.0, 1.0, 0.0]
    net.embeddings[2] = [np.array([-6.0, 6.0, -6.0, -6.0])]
    hat_mlp.consolidate_mask(net, 2)
    assert net.past_masks[0].tolist() == [1.0, 1.0, 1.0, 0.0]


def test_first_task_has_empty_cumulative_mask():
    net = tiny_net(widths=(5, 4), input_dim=3)
    assert all(np.all(m == 0.0) for m in net.past_masks)


# --- ungated tasks ----------------------------------------------------------

def _relu_trunk(net, x):
    h = x
    for w, b in zip(net.weights, net.biases):
        h = np.maximum(h @ w.T + b, 0.0)
    return h


def _ungated_step(net, x, y, reg_weight, mask_others):
    """A ``train_step`` at lr 0: it computes the loss and moves nothing."""
    state = hat_mlp.init_momentum(net, 1)
    return hat_mlp.train_step(net, x, y, 1, net.s_max, reg_weight, 0.0, 0.9, state,
                              mask_others=mask_others)


UNGATED_ENTRIES = {
    # readers of the trunk: every layer, no gate
    "features": lambda net, x, y, path: hat_mlp.features(net, x, 1),
    "forward": lambda net, x, y, path: hat_mlp.forward(net, x, 1)[0],
    "train_step": lambda net, x, y, path: _ungated_step(net, x, y, 0.0, True),
    # readers of the gates: there are none to read
    "attention": lambda net, x, y, path: hat_mlp.attention(net, 1, net.s_max),
    "consolidate_mask": lambda net, x, y, path: hat_mlp.consolidate_mask(net, 1),
    "regularized train_step": lambda net, x, y, path: _ungated_step(net, x, y, 0.75, False),
    "save_model": lambda net, x, y, path: cli.save_model(path, net),
}


@pytest.mark.parametrize("entry", sorted(UNGATED_ENTRIES))
def test_ungated_task_reads_the_whole_trunk_or_raises(entry, tmp_path):
    # an ungated task has an empty embedding list: a zip over it must never
    # cut the trunk short
    net = hat_mlp.new_hat_mlp(5, (3, 4, 2), 400.0, RngState(60))
    hat_mlp.add_task(net, 1, 3, RngState(61), gated=False)
    assert net.embeddings[1] == []
    _randomize_biases(net, 1, 62)
    x = RngState(63).stream("x").standard_normal((7, 5))
    y = np.array([0, 1, 2, 0, 1, 2, 0])
    trunk = _relu_trunk(net, x)
    path = tmp_path / "model.bin"
    before = _bits(net.weights, net.biases, net.past_masks)
    if entry in ("features", "forward"):
        assert UNGATED_ENTRIES[entry](net, x, y, path).tobytes() == trunk.tobytes()
    elif entry == "train_step":
        loss = UNGATED_ENTRIES[entry](net, x, y, path)
        logits = (trunk @ net.heads[1].weight.T + net.heads[1].bias)[:, :3]
        ce = np.mean(np.log(np.exp(logits).sum(axis=1)) - logits[np.arange(7), y])
        assert math.isclose(loss, ce, rel_tol=1e-12)
    else:
        with pytest.raises(UngatedTask):
            UNGATED_ENTRIES[entry](net, x, y, path)
        assert not path.exists()
    assert _bits(net.weights, net.biases, net.past_masks) == before


def test_mask_scales_are_skipped_only_where_nothing_is_claimed():
    net = tiny_net(widths=(3, 2), input_dim=2)
    assert hat_mlp.init_momentum(net, 1).scale is None
    net.past_masks = [np.array([0.0, 1.0, 0.0]), np.zeros(2)]
    state = hat_mlp.init_momentum(net, 1)
    w0, w1, b0, b1 = hat_mlp._split(state.scale, [(3, 2), (2, 3), (3,), (2,)])
    assert w0.tolist() == [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]
    assert b0.tolist() == [1.0, 0.0, 1.0]
    assert np.all(w1 == 1.0) and np.all(b1 == 1.0)


# --- zero interference ------------------------------------------------------

def test_zero_interference_after_consolidation():
    net = hat_mlp.new_hat_mlp(4, (8, 6), 400.0, RngState(40))
    hat_mlp.add_task(net, 1, 2, RngState(41))
    # saturate task 1's gates so its capacity claim is exact
    net.embeddings[1] = [
        np.array([6.0, 6.0, 6.0, -6.0, -6.0, -6.0, 6.0, -6.0]),
        np.array([6.0, -6.0, 6.0, -6.0, 6.0, -6.0]),
    ]
    hat_mlp.consolidate_mask(net, 1)

    probe = RngState(42).stream("probe").standard_normal((16, 4))
    _, logits_before = hat_mlp.forward(net, probe, 1)

    hat_mlp.add_task(net, 2, 2, RngState(43))
    state = hat_mlp.init_momentum(net, 2)
    data_rng = RngState(44).stream("task2")
    for step in range(50):
        x = data_rng.standard_normal((8, 4))
        y = data_rng.integers(0, 3, 8)
        s = hat_mlp.anneal_s((step % 10) + 1, 10, net.s_max)
        hat_mlp.train_step(net, x, y, 2, s, 0.75, 0.05, 0.9, state)

    _, logits_after = hat_mlp.forward(net, probe, 1)
    drift = float(np.max(np.abs(logits_after - logits_before)))
    assert drift <= 1e-3
    # with saturated gates the drift is not merely small, it is exactly zero
    assert drift == 0.0


def test_training_still_moves_free_capacity():
    net = hat_mlp.new_hat_mlp(4, (8,), 400.0, RngState(50))
    hat_mlp.add_task(net, 1, 2, RngState(51))
    rng = RngState(52).stream("d")
    x = rng.standard_normal((32, 4))
    y = (x[:, 0] > 0).astype(np.int64)
    state = hat_mlp.init_momentum(net, 1)
    # each returned loss is the one before that step's update
    losses = [hat_mlp.train_step(net, x, y, 1, 10.0, 0.0, 0.1, 0.9, state, mask_others=True)
              for _ in range(61)]
    assert losses[-1] < losses[0]


# --- the reference step: the same formulas, one array at a time --------------

def _ref_sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_reference_on_special_values():
    specials = np.array([
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
        5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, -2.2250738585072014e-308,
        1e308, -1e308, np.finfo(np.float64).max, -np.finfo(np.float64).max,
        36.7, -36.7, 709.8, -709.8, 745.2, -745.2, 1.0, -1.0,
    ])
    payload_nans = np.array([0x7FF8000000000123, 0xFFF8000000000456], dtype=np.uint64)
    x = np.concatenate([specials, payload_nans.view(np.float64)])
    expect = _ref_sigmoid(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hat_mlp._sigmoid(x)
    assert got.tobytes() == expect.tobytes()
    wide = np.random.default_rng(3).standard_normal(10_000) * 400.0
    assert hat_mlp._sigmoid(wide).tobytes() == _ref_sigmoid(wide).tobytes()


def _ref_loss_and_gradients(net, x, y, task_id, s, reg_weight, mask_others):
    head = net.heads[task_id]
    n_out = head.n_classes + 1
    embeddings = net.embeddings[task_id]
    gates = ([_ref_sigmoid(s * e) for e in embeddings] if embeddings
             else [None] * net.n_layers)
    batch = x.shape[0]
    rows = np.arange(batch)

    inputs, relus = [], []
    h = x
    for w, b, a in zip(net.weights, net.biases, gates):
        inputs.append(h)
        r = h @ w.T
        r += b
        relus.append(np.maximum(r, 0.0, out=r))
        h = r if a is None else r * a
    logits = h @ head.weight.T
    logits += head.bias

    active = head.n_classes if mask_others else n_out
    sub = logits[:, :active]
    shifted = sub - sub.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    total = expv.sum(axis=1)
    nll = -(shifted[rows, y] - np.log(total))
    ce = float(nll.mean())

    dlogits = np.zeros_like(logits)
    np.divide(expv, total[:, None], out=dlogits[:, :active])
    dlogits[rows, y] -= 1.0
    dlogits /= batch

    g_head_w = dlogits.T @ h
    g_head_b = dlogits.sum(axis=0)
    dh = dlogits @ head.weight

    reg = 0.0
    if reg_weight != 0.0:
        num = den = 0.0
        for a, past in zip(gates, net.past_masks):
            free = 1.0 - past
            num += float((a * free).sum())
            den += float(free.sum())
        den = max(den, hat_mlp._REG_DENOM_FLOOR)
        reg = num / den
    g_weights, g_biases, g_embeds = [], [], []
    for l in range(net.n_layers - 1, -1, -1):
        a, r = gates[l], relus[l]
        if a is not None:
            one_minus_a = 1.0 - a
            ge = (dh * r).sum(axis=0) * s * a * one_minus_a
            if reg_weight != 0.0:
                ge += reg_weight * (1.0 - net.past_masks[l]) / den * s * a * one_minus_a
            g_embeds.append(ge)
        du = dh if a is None else dh * a
        du *= r > 0.0
        g_weights.append(du.T @ inputs[l])
        g_biases.append(du.sum(axis=0))
        if l > 0:
            dh = du @ net.weights[l]

    return ce + reg_weight * reg, types.SimpleNamespace(
        weights=g_weights[::-1], biases=g_biases[::-1], embeddings=g_embeds[::-1],
        head_weight=g_head_w, head_bias=g_head_b,
    )


def _ref_init_momentum(net, task_id):
    head = net.heads[task_id]
    prev = [np.ones(net.input_dim), *net.past_masks[:-1]]
    return types.SimpleNamespace(
        weight_scales=[1.0 - np.minimum.outer(p, q) if p.any() else None
                       for p, q in zip(net.past_masks, prev)],
        bias_scales=[1.0 - p if p.any() else None for p in net.past_masks],
        weights=[np.zeros_like(w) for w in net.weights],
        biases=[np.zeros_like(b) for b in net.biases],
        embeddings=[np.zeros_like(e) for e in net.embeddings[task_id]],
        head_weight=np.zeros_like(head.weight),
        head_bias=np.zeros_like(head.bias),
    )


def _ref_update(net, grads, task_id, s, lr, momentum, state):
    head = net.heads[task_id]
    for v, g, scale, param in zip(
        [*state.weights, *state.biases, state.head_weight, state.head_bias],
        [*grads.weights, *grads.biases, grads.head_weight, grads.head_bias],
        [*state.weight_scales, *state.bias_scales, None, None],
        [*net.weights, *net.biases, head.weight, head.bias],
    ):
        v *= momentum
        v += g if scale is None else g * scale
        param -= lr * v

    for e, v, g in zip(net.embeddings[task_id], state.embeddings, grads.embeddings):
        se = np.minimum(np.maximum(s * e, -hat_mlp._COSH_CLIP), hat_mlp._COSH_CLIP)
        ee = np.minimum(np.maximum(e, -hat_mlp._COSH_CLIP), hat_mlp._COSH_CLIP)
        comp = (net.s_max / s) * (np.cosh(se) + 1.0) / (np.cosh(ee) + 1.0)
        v *= momentum
        v += g * comp
        e -= lr * v
        np.maximum(e, -hat_mlp.EMBEDDING_CLAMP, out=e)
        np.minimum(e, hat_mlp.EMBEDDING_CLAMP, out=e)


def _bits(*groups):
    return [np.asarray(a, dtype=np.float64).tobytes() for g in groups for a in g]


def _all_bits(net):
    """Every array of the network, every task's head and embeddings included."""
    heads = [a for t in net.task_ids() for a in (net.heads[t].weight, net.heads[t].bias)]
    embeddings = [e for t in net.task_ids() for e in net.embeddings[t]]
    return _bits(net.weights, net.biases, heads, embeddings, net.past_masks)


def _velocity_bits(state):
    if isinstance(state, hat_mlp.MomentumState):
        return _bits([state.trunk_velocity, state.task_velocity])
    return _bits([np.concatenate([a.ravel() for a in (*state.weights, *state.biases)]),
                  np.concatenate([a.ravel() for a in (*state.embeddings, state.head_weight,
                                                      state.head_bias)])])


S_MAX = 400.0


def _two_task_net(input_dim, widths, n_classes, gated, protect, seed):
    """Task 2 of a net whose task 1 (gates drawn over [-6, 6]) was consolidated
    when ``protect`` is set."""
    net = hat_mlp.new_hat_mlp(input_dim, tuple(widths), S_MAX, RngState(seed))
    if protect:
        hat_mlp.add_task(net, 1, n_classes, RngState(seed).stream("task1"))
        rng = RngState(seed).stream("gates1")
        net.embeddings[1] = [rng.uniform(-6.0, 6.0, w) for w in widths]
        hat_mlp.consolidate_mask(net, 1)
    hat_mlp.add_task(net, 2, n_classes, RngState(seed).stream("task2"), gated=gated)
    return net


def _annealed(steps):
    return [hat_mlp.anneal_s(i, steps, S_MAX) for i in range(1, steps + 1)]


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    input_dim=st.integers(1, 6),
    widths=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    n_classes=st.integers(1, 12),
    gated=st.booleans(),
    consolidated=st.booleans(),
    protect=st.floats(0.0, 1.0),
    reg_weight=st.sampled_from([0.0, 0.75]) | st.floats(1e-3, 5.0),
    mask_others=st.booleans(),
    batch=st.integers(1, 40),
    scales=(st.integers(1, 5).map(_annealed)
            | st.lists(st.floats(1.0 / S_MAX, S_MAX), min_size=1, max_size=4)),
    lr=st.sampled_from([0.005, 0.5, 1e300]) | st.floats(1e-4, 1.0),
    momentum=st.sampled_from([0.0, 0.9]) | st.floats(0.0, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
def test_train_step_matches_the_reference_bit_for_bit(
        input_dim, widths, n_classes, gated, consolidated, protect, reg_weight, mask_others,
        batch, scales, lr, momentum, seed):
    # lr 1e300 diverges: nan and inf must come out with the same bits too
    reg_weight = reg_weight if gated else 0.0
    rng = RngState(seed).stream("draws")
    net = _two_task_net(input_dim, widths, n_classes, gated, consolidated, seed)
    net.past_masks = [np.maximum(p, rng.uniform(0.0, 1.0, w) < protect)
                      for p, w in zip(net.past_masks, widths)]
    if gated:  # drawn beyond the clamp
        net.embeddings[2] = [rng.uniform(-8.0, 8.0, w) for w in widths]
    for b in net.biases:
        b += 0.1 * rng.standard_normal(b.shape)
    ref = copy.deepcopy(net)
    state = hat_mlp.init_momentum(net, 2)
    ref_state = _ref_init_momentum(ref, 2)
    assert _all_bits(net) == _all_bits(ref)
    n_labels = n_classes if mask_others else n_classes + 1
    for s in scales:
        x = rng.standard_normal((batch, input_dim)) * 3.0
        y = rng.integers(0, n_labels, batch)
        with np.errstate(over="ignore", invalid="ignore"):
            loss = hat_mlp.train_step(net, x, y, 2, s, reg_weight, lr, momentum, state,
                                      mask_others=mask_others)
            ref_loss, ref_grads = _ref_loss_and_gradients(ref, x, y, 2, s, reg_weight,
                                                          mask_others)
            _ref_update(ref, ref_grads, 2, s, lr, momentum, ref_state)
        assert _bits([loss]) == _bits([ref_loss])
        assert _all_bits(net) == _all_bits(ref)
        assert _velocity_bits(state) == _velocity_bits(ref_state)


# --- the training state -------------------------------------------------------

def test_init_momentum_keeps_every_value_and_makes_views_of_two_buffers():
    net = _two_task_net(5, (4, 3), 2, True, True, seed=70)
    before = _all_bits(net)
    state = hat_mlp.init_momentum(net, 2)
    assert _all_bits(net) == before
    head = net.heads[2]
    for a in (*net.weights, *net.biases):
        assert a.base is state.trunk
    for a in (*net.embeddings[2], head.weight, head.bias):
        assert a.base is state.task
    assert state.n_gates == 4 + 3
    assert state.trunk.size == sum(a.size for a in (*net.weights, *net.biases))
    # task 1's arrays are not the state's
    assert all(not np.shares_memory(e, state.task) for e in net.embeddings[1])


def _rebind(net, what):
    if what == "embeddings":
        net.embeddings[2][0] = net.embeddings[2][0].copy()
    elif what == "head":
        net.heads[2].bias = net.heads[2].bias.copy()
    elif what == "head_weight":
        net.heads[2].weight = net.heads[2].weight.copy()
    else:
        getattr(net, what)[-1] = getattr(net, what)[-1].copy()


def _stepped_two_task_net(gated):
    """Task 2 of a two-task net after one step (nonzero velocities), the
    state, and the step's batch."""
    net = _two_task_net(3, (4, 3), 2, gated, True, seed=71)
    state = hat_mlp.init_momentum(net, 2)
    x = RngState(72).stream("x").standard_normal((6, 3))
    y = np.array([0, 1, 2, 0, 1, 2])
    hat_mlp.train_step(net, x, y, 2, 5.0, 0.75 if gated else 0.0, 0.1, 0.9, state)
    return net, state, x, y


@pytest.mark.parametrize("what", ["weights", "biases", "embeddings", "head", "head_weight"])
def test_a_rebound_array_stales_the_training_state(what):
    net, state, x, y = _stepped_two_task_net(gated=True)
    _rebind(net, what)
    before = _all_bits(net)
    velocity = _velocity_bits(state)
    with pytest.raises(ShapeMismatch, match="rebound after init_momentum"):
        hat_mlp.train_step(net, x, y, 2, 5.0, 0.75, 0.1, 0.9, state)
    assert _all_bits(net) == before
    assert _velocity_bits(state) == velocity
    fresh = hat_mlp.init_momentum(net, 2)
    hat_mlp.train_step(net, x, y, 2, 5.0, 0.75, 0.1, 0.9, fresh)


# (gated, labels, s, reg_weight, mask_others, error, message)
REFUSED_BATCHES = {
    "label above the everything-else unit": (True, [0, 1, 3], 5.0, 0.75, False,
                                             ShapeMismatch, "labels outside"),
    "negative label": (True, [0, -1, 2], 5.0, 0.75, False, ShapeMismatch, "labels outside"),
    "everything-else label under mask_others": (True, [0, 1, 2], 5.0, 0.75, True,
                                                ShapeMismatch, "everything-else"),
    "zero gate scale": (True, [0, 1, 2], 0.0, 0.75, False, ValueError, "positive"),
    "negative gate scale": (True, [0, 1, 2], -5.0, 0.75, False, ValueError, "positive"),
    "regularized ungated task": (False, [0, 1, 2], 5.0, 0.75, False, UngatedTask,
                                 "no gates"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_BATCHES))
def test_a_refused_batch_writes_nothing(case):
    gated, labels, s, reg_weight, mask_others, error, message = REFUSED_BATCHES[case]
    net, state, x, _ = _stepped_two_task_net(gated)
    before = _all_bits(net)
    velocity = _velocity_bits(state)
    assert any(v.any() for v in (state.trunk_velocity, state.task_velocity))
    with pytest.raises(error, match=message):
        hat_mlp.train_step(net, x[:3], np.array(labels), 2, s, reg_weight, 0.1, 0.9, state,
                           mask_others=mask_others)
    assert _all_bits(net) == before
    assert _velocity_bits(state) == velocity


# (rows of the stepped batch, labels, task, error, message)
MALFORMED_BATCHES = {
    "rows not a matrix": (lambda x: x[0], [0], 2, ShapeMismatch, "bad batch shapes"),
    "more labels than rows": (lambda x: x[:3], [0, 1, 2, 0], 2, ShapeMismatch,
                              "bad batch shapes"),
    "empty batch": (lambda x: x[:0], [], 2, ShapeMismatch, "bad batch shapes"),
    "wrong feature width": (lambda x: x[:3, :2], [0, 1, 2], 2, DimensionMismatch,
                            "2 features, expected 3"),
    "unknown task": (lambda x: x[:3], [0, 1, 2], 3, UnknownTask, "not registered"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BATCHES))
def test_a_malformed_batch_writes_nothing(case):
    rows, labels, task_id, error, message = MALFORMED_BATCHES[case]
    net, state, x, _ = _stepped_two_task_net(gated=True)
    before = _all_bits(net)
    velocity = _velocity_bits(state)
    with pytest.raises(error, match=message):
        hat_mlp.train_step(net, rows(x), np.array(labels, dtype=np.int64), task_id, 5.0, 0.75,
                           0.1, 0.9, state)
    assert _all_bits(net) == before
    assert _velocity_bits(state) == velocity


@pytest.mark.parametrize("case", ["state of another task", "state from before a consolidation"])
def test_a_refused_state_writes_nothing(case):
    net, state, x, y = _stepped_two_task_net(gated=True)
    task_id = 2
    if case == "state of another task":
        task_id = 1
    else:
        hat_mlp.consolidate_mask(net, 2)
    before = _all_bits(net)
    velocity = _velocity_bits(state)
    with pytest.raises(ShapeMismatch, match="call init_momentum again"):
        hat_mlp.train_step(net, x, np.minimum(y, 1), task_id, 5.0, 0.75, 0.1, 0.9, state)
    assert _all_bits(net) == before
    assert _velocity_bits(state) == velocity
