"""Task-gated MLP with hard attention masks and from-scratch backprop.

Each task owns a sigmoid gate per hidden unit, ``a_l = sigmoid(s * e_l)``,
applied multiplicatively after the ReLU.  Units claimed by earlier tasks are
recorded in a cumulative binary mask; gradients into their incoming weights
and biases are scaled to zero so finished tasks cannot be disturbed.  The gate
scale ``s`` anneals from ``1/s_max`` to ``s_max`` within every epoch;
inference always runs at ``s_max``, where surviving gates are effectively
binary.

Layout conventions: weights are ``[out, in]``; batches are ``[B, dim]`` rows.
All arrays are float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ShapeMismatch, UnknownTask
from .numerics import RngState

#: Embeddings are clamped to this band after every update.
EMBEDDING_CLAMP = 6.0

#: cosh argument cap inside the gradient compensation (avoids overflow).
_COSH_CLIP = 50.0

#: Floor for the sparsity-regularizer denominator once capacity fills up.
_REG_DENOM_FLOOR = 1e-12


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class TaskHead:
    """Per-task linear classifier over the final hidden features.

    Holds ``n_classes + 1`` output rows; the extra last row is the
    "everything else" unit used only while training with replay data.
    """

    n_classes: int
    weight: np.ndarray
    bias: np.ndarray


@dataclass
class HatMlp:
    input_dim: int
    hidden_widths: tuple[int, ...]
    s_max: float
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    embeddings: dict[int, list[np.ndarray]] = field(default_factory=dict)
    heads: dict[int, TaskHead] = field(default_factory=dict)
    past_masks: list[np.ndarray] = field(default_factory=list)

    @property
    def feature_dim(self) -> int:
        return self.hidden_widths[-1]

    @property
    def n_layers(self) -> int:
        return len(self.hidden_widths)

    def task_ids(self) -> list[int]:
        return sorted(self.heads)

    def require_task(self, task_id: int) -> None:
        if task_id not in self.heads:
            raise UnknownTask(f"task {task_id} not registered (have {self.task_ids()})")


@dataclass
class Gradients:
    """Gradients of one batch loss, for the shared trunk plus one task's head
    and embeddings.  ``s`` records the gate scale the batch ran at (needed by
    the update step to undo the annealed gate slope)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    embeddings: list[np.ndarray]
    head_weight: np.ndarray
    head_bias: np.ndarray
    s: float


@dataclass
class MomentumState:
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    embeddings: list[np.ndarray]
    head_weight: np.ndarray
    head_bias: np.ndarray


def new_hat_mlp(
    input_dim: int,
    hidden_widths: tuple[int, ...],
    s_max: float,
    rng: RngState,
) -> HatMlp:
    """Fresh trunk with no tasks: fan-in-scaled uniform weights, zero biases,
    empty cumulative masks."""
    if input_dim < 1 or not hidden_widths or any(w < 1 for w in hidden_widths):
        raise ValueError("need a positive input dim and hidden widths")
    if s_max <= 1:
        raise ValueError("s_max must exceed 1")
    wrng = rng.stream("trunk-init")
    weights, biases, past = [], [], []
    fan_in = input_dim
    for width in hidden_widths:
        lim = 1.0 / np.sqrt(fan_in)
        weights.append(wrng.uniform(-lim, lim, (width, fan_in)))
        biases.append(np.zeros(width))
        past.append(np.zeros(width))
        fan_in = width
    return HatMlp(
        input_dim=input_dim,
        hidden_widths=tuple(hidden_widths),
        s_max=float(s_max),
        weights=weights,
        biases=biases,
        past_masks=past,
    )


def add_task(net: HatMlp, task_id: int, n_classes: int, rng: RngState) -> None:
    """Register a task: a head with ``n_classes + 1`` outputs and fresh gate
    embeddings drawn from U[0, 2] (gates start open at low s)."""
    if task_id in net.heads:
        raise ValueError(f"task {task_id} already registered")
    if n_classes < 1:
        raise ValueError("a task needs at least one class")
    hrng = rng.stream(f"head-init-{task_id}")
    erng = rng.stream(f"embedding-init-{task_id}")
    lim = 1.0 / np.sqrt(net.feature_dim)
    net.heads[task_id] = TaskHead(
        n_classes=n_classes,
        weight=hrng.uniform(-lim, lim, (n_classes + 1, net.feature_dim)),
        bias=np.zeros(n_classes + 1),
    )
    net.embeddings[task_id] = [erng.uniform(0.0, 2.0, w) for w in net.hidden_widths]


def attention(net: HatMlp, task_id: int, s: float) -> list[np.ndarray]:
    """Per-layer gate vectors ``sigmoid(s * e_l)`` for one task."""
    net.require_task(task_id)
    if s <= 0:
        raise ValueError("gate scale s must be positive")
    return [_sigmoid(s * e) for e in net.embeddings[task_id]]


def forward(
    net: HatMlp, x: np.ndarray, task_id: int, s: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Masked forward pass; returns (features, logits).

    ``s`` defaults to ``s_max`` (the inference setting).  A 1-D input is
    treated as a single sample and 1-D outputs are returned for it.
    """
    net.require_task(task_id)
    if s is None:
        s = net.s_max
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionMismatch(
            f"input has shape {x.shape}, expected [B, {net.input_dim}]"
        )
    gates = attention(net, task_id, s)
    h = x
    for w, b, a in zip(net.weights, net.biases, gates):
        h = np.maximum(h @ w.T + b, 0.0) * a
    head = net.heads[task_id]
    logits = h @ head.weight.T + head.bias
    if single:
        return h[0], logits[0]
    return h, logits


def _gate_reg_terms(
    gates: list[np.ndarray], past_masks: list[np.ndarray]
) -> tuple[float, float]:
    """Numerator and floored denominator of the gate regularizer."""
    num = 0.0
    den = 0.0
    for a, past in zip(gates, past_masks):
        free = 1.0 - past
        num += float(np.sum(a * free))
        den += float(np.sum(free))
    return num, max(den, _REG_DENOM_FLOOR)


def hat_reg_loss(net: HatMlp, task_id: int, s: float) -> float:
    """Sparsity pressure on gates over still-free capacity:
    ``sum_l a_l . (1 - past_l) / max(sum_l sum(1 - past_l), floor)``."""
    num, den = _gate_reg_terms(attention(net, task_id, s), net.past_masks)
    return num / den


def anneal_s(batch_index: int, batches_per_epoch: int, s_max: float) -> float:
    """Linear within-epoch schedule from ``1/s_max`` (batch 1) to ``s_max``
    (last batch); a single-batch epoch runs at ``s_max``."""
    if batch_index < 1 or batch_index > batches_per_epoch:
        raise ValueError(
            f"batch_index {batch_index} outside 1..{batches_per_epoch}"
        )
    if batches_per_epoch == 1:
        return float(s_max)
    lo = 1.0 / s_max
    frac = (batch_index - 1) / (batches_per_epoch - 1)
    return lo + (s_max - lo) * frac


def batch_loss_and_gradients(
    net: HatMlp,
    x: np.ndarray,
    y: np.ndarray,
    task_id: int,
    s: float,
    reg_weight: float,
    mask_others: bool = False,
) -> tuple[float, Gradients]:
    """Mean cross-entropy (+ gate regularizer) over a batch, with analytic
    gradients for the trunk, this task's head, and this task's embeddings.

    ``y`` holds within-task class indices; index ``n_classes`` is the
    everything-else unit.  With ``mask_others`` the last logit is excluded
    from the softmax entirely (used on the first task, where no replay data
    exists and that unit must stay untouched).
    """
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
    gates = attention(net, task_id, s)
    embeds = net.embeddings[task_id]

    # forward, keeping what backward needs
    pre_acts: list[np.ndarray] = []   # u_l = W h + b
    inputs: list[np.ndarray] = []     # h_{l-1} feeding layer l
    relus: list[np.ndarray] = []      # relu(u_l), pre-gate
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
    # The probabilities and the loss share one pass of exponentials: taking
    # them from ``numerics.softmax`` and ``numerics.log_sum_exp`` would
    # exponentiate twice, about 8% of this function's time.
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
        da = np.sum(dh * relus[l], axis=0)              # through the gate
        du = dh * a * (pre_acts[l] > 0.0)
        g_weights[l] = du.T @ inputs[l]
        g_biases[l] = du.sum(axis=0)
        g_embeds[l] = da * s * a * (1.0 - a)
        if l > 0:
            dh = du @ net.weights[l]

    reg = 0.0
    if reg_weight != 0.0:
        num, den = _gate_reg_terms(gates, net.past_masks)
        reg = num / den
        for l, (a, past) in enumerate(zip(gates, net.past_masks)):
            g_embeds[l] += reg_weight * (1.0 - past) / den * s * a * (1.0 - a)

    loss = ce + reg_weight * reg
    return loss, Gradients(
        weights=g_weights,
        biases=g_biases,
        embeddings=g_embeds,
        head_weight=g_head_w,
        head_bias=g_head_b,
        s=float(s),
    )


def init_momentum(net: HatMlp, task_id: int) -> MomentumState:
    net.require_task(task_id)
    head = net.heads[task_id]
    return MomentumState(
        weights=[np.zeros_like(w) for w in net.weights],
        biases=[np.zeros_like(b) for b in net.biases],
        embeddings=[np.zeros_like(e) for e in net.embeddings[task_id]],
        head_weight=np.zeros_like(head.weight),
        head_bias=np.zeros_like(head.bias),
    )


def masked_gradient_update(
    net: HatMlp,
    grads: Gradients,
    task_id: int,
    lr: float,
    momentum: float,
    state: MomentumState,
) -> HatMlp:
    """One SGD-with-momentum step that cannot move protected capacity.

    Trunk weight gradients are scaled by ``1 - min(past_out, past_in)`` per
    entry (the input layer's "previous" mask is all-ones), biases by
    ``1 - past_out``.  The head and the task's own embeddings are unscaled;
    embedding gradients get the annealing compensation
    ``(s_max/s) * (cosh(s e)+1)/(cosh(e)+1)`` and embeddings are clamped to
    ``[-6, 6]`` afterwards.
    """
    net.require_task(task_id)
    head = net.heads[task_id]
    embeds = net.embeddings[task_id]
    if (
        len(grads.weights) != net.n_layers
        or grads.head_weight.shape != head.weight.shape
        or any(g.shape != w.shape for g, w in zip(grads.weights, net.weights))
        or any(g.shape != e.shape for g, e in zip(grads.embeddings, embeds))
    ):
        raise ShapeMismatch("gradient structure does not match the network")

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
        se = np.clip(s * e, -_COSH_CLIP, _COSH_CLIP)
        ee = np.clip(e, -_COSH_CLIP, _COSH_CLIP)
        comp = (net.s_max / s) * (np.cosh(se) + 1.0) / (np.cosh(ee) + 1.0)
        ge = grads.embeddings[l] * comp
        state.embeddings[l] = momentum * state.embeddings[l] + ge
        e -= lr * state.embeddings[l]
        np.clip(e, -EMBEDDING_CLAMP, EMBEDDING_CLAMP, out=e)

    state.head_weight = momentum * state.head_weight + grads.head_weight
    state.head_bias = momentum * state.head_bias + grads.head_bias
    head.weight -= lr * state.head_weight
    head.bias -= lr * state.head_bias
    return net


def consolidate_mask(net: HatMlp, task_id: int) -> None:
    """Fold the task's binarized gates (threshold 0.5 at ``s_max``) into the
    cumulative protection masks."""
    gates = attention(net, task_id, net.s_max)
    for l, a in enumerate(gates):
        net.past_masks[l] = np.maximum(net.past_masks[l], (a > 0.5).astype(np.float64))
