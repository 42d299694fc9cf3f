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


# --- regularizer ------------------------------------------------------------

def _reg_loss(net, task_id, s):
    """The gate regularizer: the loss it adds to a batch at weight 1."""
    x, y = np.zeros((1, net.input_dim)), np.array([0])
    with_reg, _ = hat_mlp.batch_loss_and_gradients(net, x, y, task_id, s, 1.0)
    without, _ = hat_mlp.batch_loss_and_gradients(net, x, y, task_id, s, 0.0)
    return with_reg - without


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
    loss, grads = hat_mlp.batch_loss_and_gradients(
        net, x, y, task_id, s, mu, mask_others=mask_others
    )
    assert np.isfinite(loss)
    for arr, grad in _param_grad_pairs(net, task_id, grads):
        flat = arr.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            h = 1e-6 * max(1.0, abs(flat[i]))
            orig = flat[i]
            flat[i] = orig + h
            up, _ = hat_mlp.batch_loss_and_gradients(
                net, x, y, task_id, s, mu, mask_others=mask_others
            )
            flat[i] = orig - h
            dn, _ = hat_mlp.batch_loss_and_gradients(
                net, x, y, task_id, s, mu, mask_others=mask_others
            )
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


def test_first_task_leaves_others_unit_untouched():
    net = tiny_net(seed=5)
    rng = RngState(6).stream("d")
    x = rng.standard_normal((8, 2))
    y = np.array([0, 1] * 4)
    _, grads = hat_mlp.batch_loss_and_gradients(net, x, y, 1, 5.0, 0.75, mask_others=True)
    assert np.all(grads.head_weight[2] == 0.0)
    assert grads.head_bias[2] == 0.0
    with pytest.raises(ShapeMismatch):
        hat_mlp.batch_loss_and_gradients(
            net, x, np.array([0, 1, 2, 0, 0, 0, 0, 0]), 1, 5.0, 0.75, mask_others=True
        )


# --- masked updates ---------------------------------------------------------

def make_grads(net, task_id, fill=1.0):
    head = net.heads[task_id]
    return hat_mlp.Gradients(
        weights=[np.full_like(w, fill) for w in net.weights],
        biases=[np.full_like(b, fill) for b in net.biases],
        embeddings=[np.zeros_like(e) for e in net.embeddings[task_id]],
        head_weight=np.zeros_like(head.weight),
        head_bias=np.zeros_like(head.bias),
        s=net.s_max,
    )


def test_masked_update_freezes_protected_rows():
    net = tiny_net(widths=(3, 2), input_dim=2, seed=9)
    net.past_masks = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0])]
    w0_before = net.weights[0].copy()
    b0_before = net.biases[0].copy()
    state = hat_mlp.init_momentum(net, 1)
    hat_mlp.masked_gradient_update(net, make_grads(net, 1), 1, 0.1, 0.9, state)
    # protected unit 0 of layer 1: incoming weights and bias frozen
    assert np.array_equal(net.weights[0][0], w0_before[0])
    assert net.biases[0][0] == b0_before[0]
    # free units moved
    assert not np.array_equal(net.weights[0][1], w0_before[1])
    assert net.biases[0][1] != b0_before[1]


def test_masked_update_interlayer_min_rule():
    net = tiny_net(widths=(3, 2), input_dim=2, seed=9)
    net.past_masks = [np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0])]
    w1_before = net.weights[1].copy()
    state = hat_mlp.init_momentum(net, 1)
    hat_mlp.masked_gradient_update(net, make_grads(net, 1), 1, 0.1, 0.0, state)
    # row 0 (protected out-unit): entry from protected in-unit 0 frozen,
    # entries from free in-units 1,2 move (min rule)
    assert net.weights[1][0, 0] == w1_before[0, 0]
    assert net.weights[1][0, 1] != w1_before[0, 1]
    # row 1 (free out-unit): everything moves
    assert np.all(net.weights[1][1] != w1_before[1])


def test_masked_update_momentum_accumulates():
    net = tiny_net(seed=2)
    state = hat_mlp.init_momentum(net, 1)
    g = make_grads(net, 1)
    w_before = net.weights[0].copy()
    hat_mlp.masked_gradient_update(net, g, 1, 0.1, 0.9, state)
    step1 = w_before - net.weights[0]
    w_mid = net.weights[0].copy()
    hat_mlp.masked_gradient_update(net, g, 1, 0.1, 0.9, state)
    step2 = w_mid - net.weights[0]
    # velocity: g then 0.9 g + g = 1.9 g
    assert np.allclose(step2, 1.9 * step1, atol=1e-12)


def test_masked_update_clamps_embeddings():
    net = tiny_net(seed=4)
    g = make_grads(net, 1)
    g.embeddings = [np.full(3, -100.0)]
    g.s = 1.0
    state = hat_mlp.init_momentum(net, 1)
    hat_mlp.masked_gradient_update(net, g, 1, 10.0, 0.0, state)
    assert np.all(net.embeddings[1][0] <= 6.0)
    assert np.all(net.embeddings[1][0] >= -6.0)


def test_masked_update_rejects_bad_structure():
    net = tiny_net()
    g = make_grads(net, 1)
    g.weights = [np.zeros((1, 1))]
    with pytest.raises(ShapeMismatch):
        hat_mlp.masked_gradient_update(net, g, 1, 0.1, 0.9, hat_mlp.init_momentum(net, 1))


def _trained_arrays(net, task_id):
    head = net.heads[task_id]
    return [*net.weights, *net.biases, *net.embeddings[task_id], head.weight, head.bias]


def _short(arrays):
    return arrays[:-1]


def _one_entry(arrays):
    return [np.ones(1) for _ in arrays]


@pytest.mark.parametrize("field, damage", [
    ("weights", _short),
    ("weights", lambda ws: [w.T for w in ws]),
    ("biases", _short),
    ("biases", _one_entry),        # (1,) would broadcast and move every bias alike
    ("embeddings", _short),
    ("embeddings", _one_entry),
    ("head_weight", lambda w: w[:-1]),
    ("head_bias", lambda b: b[:1]),
])
def test_masked_update_checks_every_gradient_field(field, damage):
    net = tiny_net(widths=(3, 2), input_dim=2, seed=9)
    g = make_grads(net, 1)
    setattr(g, field, damage(getattr(g, field)))
    before = [a.copy() for a in _trained_arrays(net, 1)]
    with pytest.raises(ShapeMismatch, match=field):
        hat_mlp.masked_gradient_update(net, g, 1, 0.1, 0.9, hat_mlp.init_momentum(net, 1))
    assert all(np.array_equal(a, b) for a, b in zip(before, _trained_arrays(net, 1)))


def test_momentum_state_refused_after_consolidation_or_for_another_task():
    net = tiny_net(widths=(3, 2), input_dim=2, seed=9)
    hat_mlp.add_task(net, 2, 2, RngState(10))
    state = hat_mlp.init_momentum(net, 1)
    hat_mlp.masked_gradient_update(net, make_grads(net, 1), 1, 0.1, 0.9, state)
    with pytest.raises(ShapeMismatch, match="another task"):
        hat_mlp.masked_gradient_update(net, make_grads(net, 2), 2, 0.1, 0.9, state)
    hat_mlp.consolidate_mask(net, 1)
    with pytest.raises(ShapeMismatch, match="init_momentum"):
        hat_mlp.masked_gradient_update(net, make_grads(net, 1), 1, 0.1, 0.9, state)
    fresh = hat_mlp.init_momentum(net, 2)
    assert all(p is q for p, q in zip(fresh.past_masks, net.past_masks))
    hat_mlp.masked_gradient_update(net, make_grads(net, 2), 2, 0.1, 0.9, fresh)


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


UNGATED_ENTRIES = {
    # readers of the trunk: every layer, no gate
    "features": lambda net, x, y, path: hat_mlp.features(net, x, 1),
    "forward": lambda net, x, y, path: hat_mlp.forward(net, x, 1)[0],
    "batch_loss_and_gradients": lambda net, x, y, path: hat_mlp.batch_loss_and_gradients(
        net, x, y, 1, net.s_max, 0.0, mask_others=True),
    # readers of the gates: there are none to read
    "attention": lambda net, x, y, path: hat_mlp.attention(net, 1, net.s_max),
    "consolidate_mask": lambda net, x, y, path: hat_mlp.consolidate_mask(net, 1),
    "regularized batch_loss_and_gradients":
        lambda net, x, y, path: hat_mlp.batch_loss_and_gradients(net, x, y, 1, 5.0, 0.75),
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
    elif entry == "batch_loss_and_gradients":
        loss, g = UNGATED_ENTRIES[entry](net, x, y, path)
        logits = (trunk @ net.heads[1].weight.T + net.heads[1].bias)[:, :3]
        ce = np.mean(np.log(np.exp(logits).sum(axis=1)) - logits[np.arange(7), y])
        assert math.isclose(loss, ce, rel_tol=1e-12)
        assert [a.shape for a in g.weights] == [w.shape for w in net.weights]
        assert [a.shape for a in g.biases] == [b.shape for b in net.biases]
        assert g.embeddings == []
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
        _, grads = hat_mlp.batch_loss_and_gradients(net, x, y, 2, s, 0.75)
        hat_mlp.masked_gradient_update(net, grads, 2, 0.05, 0.9, state)

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
    first_loss, _ = hat_mlp.batch_loss_and_gradients(net, x, y, 1, 10.0, 0.0, mask_others=True)
    for _ in range(60):
        loss, grads = hat_mlp.batch_loss_and_gradients(net, x, y, 1, 10.0, 0.0, mask_others=True)
        hat_mlp.masked_gradient_update(net, grads, 1, 0.1, 0.9, state)
    assert loss < first_loss


# --- reference step: the formulas the step functions were first written with --

def _ref_sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _ref_gate_reg_terms(gates, past_masks):
    num = 0.0
    den = 0.0
    for a, past in zip(gates, past_masks):
        free = 1.0 - past
        num += float(np.sum(a * free))
        den += float(np.sum(free))
    return num, max(den, hat_mlp._REG_DENOM_FLOOR)


def _ref_batch_loss_and_gradients(net, x, y, task_id, s, reg_weight, mask_others=False):
    net.require_task(task_id)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ShapeMismatch(f"bad batch shapes x {x.shape}, y {y.shape}")
    head = net.heads[task_id]
    n_out = head.n_classes + 1
    if np.any(y < 0) or np.any(y >= n_out):
        raise ShapeMismatch(f"labels outside 0..{n_out - 1}")
    if mask_others and np.any(y == head.n_classes):
        raise ShapeMismatch("everything-else label present while masked out")

    batch = x.shape[0]
    gates = [_ref_sigmoid(s * e) for e in net.embeddings[task_id]]
    embeds = net.embeddings[task_id]

    pre_acts, inputs, relus = [], [], []
    h = x
    for w, b, a in zip(net.weights, net.biases, gates):
        inputs.append(h)
        u = h @ w.T + b
        r = np.maximum(u, 0.0)
        pre_acts.append(u)
        relus.append(r)
        h = r * a
    logits = h @ head.weight.T + head.bias

    active = head.n_classes if mask_others else n_out
    sub = logits[:, :active]
    shifted = sub - np.max(sub, axis=1, keepdims=True)
    expv = np.exp(shifted)
    probs = expv / np.sum(expv, axis=1, keepdims=True)
    nll = -(shifted[np.arange(batch), y] - np.log(np.sum(expv, axis=1)))
    ce = float(np.mean(nll))

    dlogits = np.zeros_like(logits)
    dlogits[:, :active] = probs
    dlogits[np.arange(batch), y] -= 1.0
    dlogits /= batch

    g_head_w = dlogits.T @ h
    g_head_b = dlogits.sum(axis=0)
    dh = dlogits @ head.weight

    g_weights = [np.zeros_like(w) for w in net.weights]
    g_biases = [np.zeros_like(b) for b in net.biases]
    g_embeds = [np.zeros_like(e) for e in embeds]
    for l in range(net.n_layers - 1, -1, -1):
        a = gates[l]
        da = np.sum(dh * relus[l], axis=0)
        du = dh * a * (pre_acts[l] > 0.0)
        g_weights[l] = du.T @ inputs[l]
        g_biases[l] = du.sum(axis=0)
        g_embeds[l] = da * s * a * (1.0 - a)
        if l > 0:
            dh = du @ net.weights[l]

    reg = 0.0
    if reg_weight != 0.0:
        num, den = _ref_gate_reg_terms(gates, net.past_masks)
        reg = num / den
        for l, (a, past) in enumerate(zip(gates, net.past_masks)):
            g_embeds[l] += reg_weight * (1.0 - past) / den * s * a * (1.0 - a)

    loss = ce + reg_weight * reg
    return loss, hat_mlp.Gradients(
        weights=g_weights, biases=g_biases, embeddings=g_embeds,
        head_weight=g_head_w, head_bias=g_head_b, s=float(s),
    )


def _ref_init_momentum(net, task_id):
    head = net.heads[task_id]
    return types.SimpleNamespace(
        weights=[np.zeros_like(w) for w in net.weights],
        biases=[np.zeros_like(b) for b in net.biases],
        embeddings=[np.zeros_like(e) for e in net.embeddings[task_id]],
        head_weight=np.zeros_like(head.weight),
        head_bias=np.zeros_like(head.bias),
    )


def _ref_masked_gradient_update(net, grads, task_id, lr, momentum, state):
    head = net.heads[task_id]
    embeds = net.embeddings[task_id]
    prev_mask = np.ones(net.input_dim)
    for l in range(net.n_layers):
        past = net.past_masks[l]
        w_scale = 1.0 - np.minimum.outer(past, prev_mask)
        gw = grads.weights[l] * w_scale
        gb = grads.biases[l] * (1.0 - past)
        state.weights[l] = momentum * state.weights[l] + gw
        state.biases[l] = momentum * state.biases[l] + gb
        net.weights[l] -= lr * state.weights[l]
        net.biases[l] -= lr * state.biases[l]
        prev_mask = past

    s = grads.s
    for l, e in enumerate(embeds):
        se = np.clip(s * e, -hat_mlp._COSH_CLIP, hat_mlp._COSH_CLIP)
        ee = np.clip(e, -hat_mlp._COSH_CLIP, hat_mlp._COSH_CLIP)
        comp = (net.s_max / s) * (np.cosh(se) + 1.0) / (np.cosh(ee) + 1.0)
        ge = grads.embeddings[l] * comp
        state.embeddings[l] = momentum * state.embeddings[l] + ge
        e -= lr * state.embeddings[l]
        np.clip(e, -hat_mlp.EMBEDDING_CLAMP, hat_mlp.EMBEDDING_CLAMP, out=e)

    state.head_weight = momentum * state.head_weight + grads.head_weight
    state.head_bias = momentum * state.head_bias + grads.head_bias
    head.weight -= lr * state.head_weight
    head.bias -= lr * state.head_bias


def _bits(*groups):
    return [np.asarray(a, dtype=np.float64).tobytes() for g in groups for a in g]


def _net_bits(net, task_id):
    head = net.heads[task_id]
    return _bits(net.weights, net.biases, net.embeddings[task_id],
                 [head.weight, head.bias], net.past_masks)


def _state_bits(state):
    if isinstance(state, hat_mlp.MomentumState):
        return _bits([state.trunk_velocity, state.task_velocity])
    return _bits([np.concatenate([a.ravel() for a in (*state.weights, *state.biases)]),
                  np.concatenate([a.ravel() for a in (*state.embeddings, state.head_weight,
                                                      state.head_bias)])])


def _grad_bits(loss, g):
    return _bits([loss], g.weights, g.biases, g.embeddings, [g.head_weight, g.head_bias, g.s])


S_MAX = 400.0


@settings(max_examples=120, deadline=None)
@given(
    input_dim=st.integers(1, 6),
    widths=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    n_classes=st.integers(1, 12),
    batch=st.integers(1, 40),
    scales=st.lists(st.floats(1.0 / S_MAX, S_MAX), min_size=1, max_size=4),
    mask_others=st.booleans(),
    reg_weight=st.sampled_from([0.0, 0.75]) | st.floats(1e-3, 5.0),
    lr=st.floats(1e-4, 1.0),
    momentum=st.floats(0.0, 0.99),
    protect=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_matches_reference_bit_for_bit(input_dim, widths, n_classes, batch, scales,
                                            mask_others, reg_weight, lr, momentum,
                                            protect, seed):
    rng = np.random.default_rng(seed)
    net = hat_mlp.new_hat_mlp(input_dim, tuple(widths), S_MAX, RngState(seed))
    hat_mlp.add_task(net, 1, n_classes, RngState(seed).stream("head"))
    net.past_masks = [(rng.random(w) < protect).astype(np.float64) for w in widths]
    net.embeddings[1] = [rng.uniform(-8.0, 8.0, w) for w in widths]
    for b in net.biases:
        b += 0.1 * rng.standard_normal(b.shape)
    ref = hat_mlp.HatMlp(
        input_dim=net.input_dim, hidden_widths=net.hidden_widths, s_max=net.s_max,
        weights=[w.copy() for w in net.weights], biases=[b.copy() for b in net.biases],
        embeddings={1: [e.copy() for e in net.embeddings[1]]},
        heads={1: hat_mlp.TaskHead(n_classes, net.heads[1].weight.copy(),
                                   net.heads[1].bias.copy())},
        past_masks=[m.copy() for m in net.past_masks],
    )
    state = hat_mlp.init_momentum(net, 1)
    ref_state = _ref_init_momentum(ref, 1)
    n_labels = n_classes if mask_others else n_classes + 1
    for s in scales:
        x = rng.standard_normal((batch, input_dim)) * 3.0
        y = rng.integers(0, n_labels, batch)
        loss, grads = hat_mlp.batch_loss_and_gradients(net, x, y, 1, s, reg_weight,
                                                       mask_others=mask_others)
        ref_loss, ref_grads = _ref_batch_loss_and_gradients(ref, x, y, 1, s, reg_weight,
                                                            mask_others=mask_others)
        assert _grad_bits(loss, grads) == _grad_bits(ref_loss, ref_grads)
        hat_mlp.masked_gradient_update(net, grads, 1, lr, momentum, state)
        _ref_masked_gradient_update(ref, ref_grads, 1, lr, momentum, ref_state)
        assert _net_bits(net, 1) == _net_bits(ref, 1)
        assert _state_bits(state) == _state_bits(ref_state)


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


# --- the per-array step: train_step's reference ------------------------------
# ``batch_loss_and_gradients`` and ``masked_gradient_update`` as they were
# before a step ran over flat per-task buffers, one array at a time.

def _per_array_batch_loss_and_gradients(net, x, y, task_id, s, reg_weight, mask_others):
    head = net.heads[task_id]
    n_out = head.n_classes + 1
    embeddings = net.embeddings[task_id]
    gates = ([hat_mlp._sigmoid(s * e) for e in embeddings] if embeddings
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

    return ce + reg_weight * reg, hat_mlp.Gradients(
        weights=g_weights[::-1], biases=g_biases[::-1], embeddings=g_embeds[::-1],
        head_weight=g_head_w, head_bias=g_head_b, s=float(s),
    )


def _per_array_init_momentum(net, task_id):
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


def _per_array_masked_gradient_update(net, grads, task_id, lr, momentum, state):
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

    s = grads.s
    for e, v, g in zip(net.embeddings[task_id], state.embeddings, grads.embeddings):
        se = np.minimum(np.maximum(s * e, -hat_mlp._COSH_CLIP), hat_mlp._COSH_CLIP)
        ee = np.minimum(np.maximum(e, -hat_mlp._COSH_CLIP), hat_mlp._COSH_CLIP)
        comp = (net.s_max / s) * (np.cosh(se) + 1.0) / (np.cosh(ee) + 1.0)
        v *= momentum
        v += g * comp
        e -= lr * v
        np.maximum(e, -hat_mlp.EMBEDDING_CLAMP, out=e)
        np.minimum(e, hat_mlp.EMBEDDING_CLAMP, out=e)


def _all_bits(net):
    """Every array of the network, every task's head and embeddings included."""
    heads = [a for t in net.task_ids() for a in (net.heads[t].weight, net.heads[t].bias)]
    embeddings = [e for t in net.task_ids() for e in net.embeddings[t]]
    return _bits(net.weights, net.biases, heads, embeddings, net.past_masks)


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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    input_dim=st.integers(1, 6),
    widths=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    n_classes=st.integers(1, 4),
    gated=st.booleans(),
    protect=st.booleans(),
    reg_weight=st.sampled_from([0.0, 0.75]),
    mask_others=st.booleans(),
    batch=st.integers(1, 40),
    steps=st.integers(1, 5),
    anneal=st.booleans(),
    lr=st.sampled_from([0.005, 0.5, 1e300]),
    momentum=st.sampled_from([0.0, 0.9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_train_step_matches_the_per_array_step_bit_for_bit(
        input_dim, widths, n_classes, gated, protect, reg_weight, mask_others, batch,
        steps, anneal, lr, momentum, seed):
    # lr 1e300 diverges: nan and inf must come out with the same bits too
    reg_weight = reg_weight if gated else 0.0
    net = _two_task_net(input_dim, widths, n_classes, gated, protect, seed)
    ref, pair = copy.deepcopy(net), copy.deepcopy(net)
    assert _all_bits(net) == _all_bits(ref)
    state = hat_mlp.init_momentum(net, 2)
    pair_state = hat_mlp.init_momentum(pair, 2)
    ref_state = _per_array_init_momentum(ref, 2)
    assert _all_bits(net) == _all_bits(ref)
    rng = RngState(seed).stream("batches")
    n_labels = n_classes if mask_others else n_classes + 1
    for i in range(1, steps + 1):
        s = hat_mlp.anneal_s(i, steps, S_MAX) if anneal else S_MAX
        x = rng.standard_normal((batch, input_dim)) * 3.0
        y = rng.integers(0, n_labels, batch)
        with np.errstate(over="ignore", invalid="ignore"):
            loss = hat_mlp.train_step(net, x, y, 2, s, reg_weight, lr, momentum, state,
                                      mask_others=mask_others)
            ref_loss, ref_grads = _per_array_batch_loss_and_gradients(
                ref, x, y, 2, s, reg_weight, mask_others)
            _per_array_masked_gradient_update(ref, ref_grads, 2, lr, momentum, ref_state)
            pair_loss, grads = hat_mlp.batch_loss_and_gradients(
                pair, x, y, 2, s, reg_weight, mask_others=mask_others)
            hat_mlp.masked_gradient_update(pair, grads, 2, lr, momentum, pair_state)
        assert _bits([loss]) == _bits([ref_loss]) == _bits([pair_loss])
        assert _all_bits(net) == _all_bits(ref) == _all_bits(pair)


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
    else:
        getattr(net, what)[-1] = getattr(net, what)[-1].copy()


@pytest.mark.parametrize("what", ["weights", "biases", "embeddings", "head"])
@pytest.mark.parametrize("step", ["train_step", "masked_gradient_update"])
def test_a_rebound_array_stales_the_training_state(what, step):
    net = _two_task_net(3, (4, 3), 2, True, True, seed=71)
    state = hat_mlp.init_momentum(net, 2)
    x = RngState(72).stream("x").standard_normal((6, 3))
    y = np.array([0, 1, 2, 0, 1, 2])
    hat_mlp.train_step(net, x, y, 2, 5.0, 0.75, 0.1, 0.9, state)
    _rebind(net, what)
    before = _all_bits(net)
    velocity = _bits([state.trunk_velocity, state.task_velocity])
    with pytest.raises(ShapeMismatch, match="rebound after init_momentum"):
        if step == "train_step":
            hat_mlp.train_step(net, x, y, 2, 5.0, 0.75, 0.1, 0.9, state)
        else:
            hat_mlp.masked_gradient_update(net, make_grads(net, 2), 2, 0.1, 0.9, state)
    assert _all_bits(net) == before
    assert _bits([state.trunk_velocity, state.task_velocity]) == velocity
    fresh = hat_mlp.init_momentum(net, 2)
    hat_mlp.train_step(net, x, y, 2, 5.0, 0.75, 0.1, 0.9, fresh)
