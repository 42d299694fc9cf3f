"""Task-gated MLP with hard attention masks and from-scratch backprop.

Each task owns a sigmoid gate per hidden unit, ``a_l = sigmoid(s * e_l)``,
applied multiplicatively after the ReLU.  Units claimed by earlier tasks are
recorded in a cumulative binary mask; gradients into their incoming weights
and biases are scaled to zero so finished tasks cannot be disturbed.  The gate
scale ``s`` anneals from ``1/s_max`` to ``s_max`` within every epoch of
training (``batch_loss_and_gradients``).  Inference (``features`` and
``forward``) has no ``s``: it always runs at ``s_max``, where surviving gates
are effectively binary, and takes ``[B, input_dim]`` batches only.  A task
registered with ``gated=False`` has no gates at all: its trunk is a plain
ReLU MLP (the jointly trained reference is one).

Layout conventions: weights are ``[out, in]``; batches are ``[B, dim]`` rows.
All arrays are float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, ShapeMismatch, UngatedTask, UnknownTask
from .numerics import RngState

#: Embeddings are clamped to this band after every update.
EMBEDDING_CLAMP = 6.0

#: cosh argument cap inside the gradient compensation (avoids overflow).
_COSH_CLIP = 50.0

#: Floor for the sparsity-regularizer denominator once capacity fills up.
_REG_DENOM_FLOOR = 1e-12


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic: ``1/(1+e)`` for ``x >= 0``, else ``e/(1+e)``,
    with ``e = exp(-|x|)`` (``minimum(x, -x)`` keeps a nan's sign bit)."""
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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
    embeddings: dict[int, list[np.ndarray]] = field(default_factory=dict)  # [] if ungated
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
    """Momentum buffers and mask gradient scales, valid for one task: built
    by ``init_momentum`` once that task's masks are fixed, and refused by
    ``masked_gradient_update`` for another task or once ``net.past_masks``
    are not the arrays it was built from (``consolidate_mask`` replaces them)."""

    task_id: int
    past_masks: list[np.ndarray]      # the very arrays the scales came from
    # None where past_l claims no unit, so the scale is 1 everywhere
    weight_scales: list[np.ndarray | None]   # 1 - min.outer(past_l, past_{l-1})
    bias_scales: list[np.ndarray | None]     # 1 - past_l
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


def add_task(
    net: HatMlp, task_id: int, n_classes: int, rng: RngState, gated: bool = True
) -> None:
    """Register a task: a head with ``n_classes + 1`` outputs and fresh gate
    embeddings drawn from U[0, 2] (gates start open at low s).  With
    ``gated=False`` the task gets no embeddings (an empty list): its units pass
    their ReLU outputs through as they are, and it has no gate to train,
    regularize or consolidate."""
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
    net.embeddings[task_id] = (
        [erng.uniform(0.0, 2.0, w) for w in net.hidden_widths] if gated else []
    )


def attention(net: HatMlp, task_id: int, s: float) -> list[np.ndarray]:
    """Per-layer gate vectors ``sigmoid(s * e_l)`` for one gated task."""
    net.require_task(task_id)
    if not net.embeddings[task_id]:
        raise UngatedTask(f"task {task_id} has no gates")
    if s <= 0:
        raise ValueError("gate scale s must be positive")
    return [_sigmoid(s * e) for e in net.embeddings[task_id]]


def _layer_gates(net: HatMlp, task_id: int, s: float) -> list[np.ndarray | None]:
    """``attention``'s gates, or ``None`` for every layer of an ungated task."""
    net.require_task(task_id)
    if not net.embeddings[task_id]:
        return [None] * net.n_layers
    return attention(net, task_id, s)


def features(net: HatMlp, x: np.ndarray, task_id: int) -> np.ndarray:
    """Masked trunk features [B, feature_dim] of a [B, input_dim] batch, the
    part of ``forward`` before the task head.  The gates are taken at
    ``s_max``, the inference setting."""
    h = x
    for w, b, a in zip(net.weights, net.biases, _layer_gates(net, task_id, net.s_max)):
        h = np.maximum(h @ w.T + b, 0.0)
        if a is not None:
            h *= a
    return h


def forward(net: HatMlp, x: np.ndarray, task_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Masked forward pass of a [B, input_dim] batch at ``s_max``; returns
    (features, logits)."""
    net.require_task(task_id)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise DimensionMismatch(
            f"input has shape {x.shape}, expected [B, {net.input_dim}]"
        )
    h = features(net, x, task_id)
    head = net.heads[task_id]
    return h, h @ head.weight.T + head.bias


def _gate_reg_terms(
    gates: list[np.ndarray], past_masks: list[np.ndarray]
) -> tuple[float, float]:
    """Numerator and floored denominator of the gate regularizer, the
    sparsity pressure on gates over still-free capacity
    ``sum_l a_l . (1 - past_l) / max(sum_l sum(1 - past_l), floor)``."""
    num = 0.0
    den = 0.0
    for a, past in zip(gates, past_masks):
        free = 1.0 - past
        num += float((a * free).sum())
        den += float(free.sum())
    return num, max(den, _REG_DENOM_FLOOR)


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
    exists and that unit must stay untouched).  An ungated task has no
    embedding gradients and takes no regularizer (``UngatedTask`` otherwise).
    """
    net.require_task(task_id)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ShapeMismatch(f"bad batch shapes x {x.shape}, y {y.shape}")
    head = net.heads[task_id]
    n_out = head.n_classes + 1
    y_max = y.max()
    if y.min() < 0 or y_max >= n_out:
        raise ShapeMismatch(f"labels outside 0..{n_out - 1}")
    if mask_others and y_max == head.n_classes:
        raise ShapeMismatch("everything-else label present while masked out")

    gates = _layer_gates(net, task_id, s)
    if reg_weight != 0.0 and gates[0] is None:
        raise UngatedTask(f"task {task_id} has no gates to regularize")

    batch = x.shape[0]
    rows = np.arange(batch)

    # forward, keeping what backward needs
    inputs: list[np.ndarray] = []     # h_{l-1} feeding layer l
    relus: list[np.ndarray] = []      # relu(W h + b), pre-gate
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
    # The probabilities and the loss share one pass of exponentials and one
    # row sum: taking them from ``numerics.softmax`` and
    # ``numerics.log_sum_exp`` would exponentiate twice.
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
        num, den = _gate_reg_terms(gates, net.past_masks)
        reg = num / den
    g_weights, g_biases, g_embeds = [], [], []
    for l in range(net.n_layers - 1, -1, -1):
        a, r = gates[l], relus[l]
        if a is not None:
            one_minus_a = 1.0 - a
            ge = (dh * r).sum(axis=0) * s * a * one_minus_a   # through the gate
            if reg_weight != 0.0:
                ge += reg_weight * (1.0 - net.past_masks[l]) / den * s * a * one_minus_a
            g_embeds.append(ge)
        du = dh if a is None else dh * a   # dh is not read again: scaling it in place is safe
        du *= r > 0.0
        g_weights.append(du.T @ inputs[l])
        g_biases.append(du.sum(axis=0))
        if l > 0:
            dh = du @ net.weights[l]

    loss = ce + reg_weight * reg
    return loss, Gradients(
        weights=g_weights[::-1],
        biases=g_biases[::-1],
        embeddings=g_embeds[::-1],
        head_weight=g_head_w,
        head_bias=g_head_b,
        s=float(s),
    )


def init_momentum(net: HatMlp, task_id: int) -> MomentumState:
    """Zero momentum and the mask scales for training ``task_id``; call it
    after the task's masks are fixed and use it until its ``consolidate_mask``."""
    net.require_task(task_id)
    head = net.heads[task_id]
    prev = [np.ones(net.input_dim), *net.past_masks[:-1]]
    return MomentumState(
        task_id=task_id,
        past_masks=list(net.past_masks),
        weight_scales=[1.0 - np.minimum.outer(p, q) if p.any() else None
                       for p, q in zip(net.past_masks, prev)],
        bias_scales=[1.0 - p if p.any() else None for p in net.past_masks],
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
    ``1 - past_out`` (both held by ``state``, ``None`` where they are 1).  The
    head and the task's own embeddings are unscaled; embedding gradients get
    the annealing compensation ``(s_max/s) * (cosh(s e)+1)/(cosh(e)+1)`` and
    embeddings are clamped to ``[-6, 6]`` afterwards.  An ungated task has no
    embeddings to update.
    """
    net.require_task(task_id)
    head = net.heads[task_id]
    for name, got, want in (
        ("weights", grads.weights, net.weights),
        ("biases", grads.biases, net.biases),
        ("embeddings", grads.embeddings, net.embeddings[task_id]),
        ("head_weight", [grads.head_weight], [head.weight]),
        ("head_bias", [grads.head_bias], [head.bias]),
    ):
        if [np.shape(g) for g in got] != [w.shape for w in want]:
            raise ShapeMismatch(f"gradient {name} does not match the network")
    if state.task_id != task_id or [*map(id, state.past_masks)] != [*map(id, net.past_masks)]:
        raise ShapeMismatch("momentum state is for another task or replaced masks; "
                            "call init_momentum again")

    for v, g, scale, param in zip(
        [*state.weights, *state.biases, state.head_weight, state.head_bias],
        [*grads.weights, *grads.biases, grads.head_weight, grads.head_bias],
        [*state.weight_scales, *state.bias_scales, None, None],
        [*net.weights, *net.biases, head.weight, head.bias],
    ):
        v *= momentum
        v += g if scale is None else g * scale   # g * 1.0 would be g bit for bit
        param -= lr * v

    s = grads.s
    for e, v, g in zip(net.embeddings[task_id], state.embeddings, grads.embeddings):
        se = np.minimum(np.maximum(s * e, -_COSH_CLIP), _COSH_CLIP)
        ee = np.minimum(np.maximum(e, -_COSH_CLIP), _COSH_CLIP)
        comp = (net.s_max / s) * (np.cosh(se) + 1.0) / (np.cosh(ee) + 1.0)
        v *= momentum
        v += g * comp
        e -= lr * v
        np.maximum(e, -EMBEDDING_CLAMP, out=e)
        np.minimum(e, EMBEDDING_CLAMP, out=e)
    return net


def consolidate_mask(net: HatMlp, task_id: int) -> None:
    """Fold the task's binarized gates (threshold 0.5 at ``s_max``) into the
    cumulative protection masks (``UngatedTask`` for a task without gates)."""
    gates = attention(net, task_id, net.s_max)
    for l, a in enumerate(gates):
        net.past_masks[l] = np.maximum(net.past_masks[l], (a > 0.5).astype(np.float64))
