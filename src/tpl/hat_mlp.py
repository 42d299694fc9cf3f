"""Task-gated MLP with hard attention masks and from-scratch backprop.

Each task owns a sigmoid gate per hidden unit, ``a_l = sigmoid(s * e_l)``,
applied multiplicatively after the ReLU.  Units claimed by earlier tasks are
recorded in a cumulative binary mask; gradients into their incoming weights
and biases are scaled to zero so finished tasks cannot be disturbed.  The gate
scale ``s`` anneals from ``1/s_max`` to ``s_max`` within every epoch of
training (``train_step``).  Inference (``features`` and
``forward``) has no ``s``: it always runs at ``s_max``, where surviving gates
are effectively binary, and takes ``[B, input_dim]`` batches only.  A task
registered with ``gated=False`` has no gates at all: its trunk is a plain
ReLU MLP (the jointly trained reference is one).

Layout conventions: weights are ``[out, in]``; batches are ``[B, dim]`` rows.
All arrays are float64.  While a task trains, the trunk's arrays are views of
one flat buffer and the task's of another (``init_momentum``).
"""

from __future__ import annotations

import math
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
    and embeddings: per-layer views of a training state's flat workspace."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    embeddings: list[np.ndarray]
    head_weight: np.ndarray
    head_bias: np.ndarray


@dataclass
class MomentumState:
    """Training state of one task, built by ``init_momentum`` once that
    task's masks are fixed.  ``train_step`` refuses it (``ShapeMismatch``)
    for another task, once ``net.past_masks`` are not the arrays it was
    built from (``consolidate_mask`` replaces them), or once a trained array
    of the network was rebound.

    It owns two flat buffers that the trained arrays are views of: ``trunk``
    holds ``net.weights`` then ``net.biases``, and ``task`` holds the task's
    embeddings (its first ``n_gates`` entries), head weight and head bias.
    The momentum, the mask gradient scales and a gradient workspace share
    those layouts, so a step updates each buffer with a few ufunc calls."""

    task_id: int
    past_masks: list[np.ndarray]      # the very arrays the scales came from
    params: list[np.ndarray]          # the views of trunk and task, in that order
    trunk: np.ndarray
    task: np.ndarray
    n_gates: int
    trunk_velocity: np.ndarray
    task_velocity: np.ndarray
    # 1 - min.outer(past_l, past_{l-1}) at each layer's weights and 1 - past_l
    # at its biases, in the trunk layout; None when no unit is claimed
    scale: np.ndarray | None
    trunk_grad: np.ndarray
    task_grad: np.ndarray
    grads: Gradients                  # views of trunk_grad and task_grad
    capacity: tuple[np.ndarray, float]   # ``_free_capacity`` of the task's masks


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
    ``s_max``, the inference setting.  Each layer's bias, ReLU and gate are
    applied in place to its product, so a layer holds one [B, width] array."""
    h = x
    for w, b, a in zip(net.weights, net.biases, _layer_gates(net, task_id, net.s_max)):
        h = h @ w.T
        h += b
        np.maximum(h, 0.0, out=h)
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


def _split(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Views of ``flat`` shaped ``shapes``, laid end to end."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    return views


def _trained(net: HatMlp, task_id: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The arrays a step of ``task_id`` trains, in the two flat layouts:
    the trunk's weights then biases, and the task's embeddings then head."""
    head = net.heads[task_id]
    return ([*net.weights, *net.biases],
            [*net.embeddings[task_id], head.weight, head.bias])


def _free_capacity(past_masks: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """``1 - past_l`` of every layer in one flat array, and the gate
    regularizer's denominator ``max(sum_l sum(1 - past_l), floor)``, its
    per-layer sums added in layer order."""
    free = 1.0 - np.concatenate(past_masks)
    den = 0.0
    for f in _split(free, [p.shape for p in past_masks]):
        den += float(f.sum())
    return free, max(den, _REG_DENOM_FLOOR)


def _check_batch(
    net: HatMlp, x, y, task_id: int, s: float, reg_weight: float, mask_others: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The batch as float64 rows and int64 labels, once it, the gate scale
    and the regularizer weight suit the task."""
    net.require_task(task_id)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ShapeMismatch(f"bad batch shapes x {x.shape}, y {y.shape}")
    if x.shape[1] != net.input_dim:
        raise DimensionMismatch(f"batch has {x.shape[1]} features, expected {net.input_dim}")
    head = net.heads[task_id]
    n_out = head.n_classes + 1
    y_max = y.max()
    if y.min() < 0 or y_max >= n_out:
        raise ShapeMismatch(f"labels outside 0..{n_out - 1}")
    if mask_others and y_max == head.n_classes:
        raise ShapeMismatch("everything-else label present while masked out")
    if net.embeddings[task_id]:
        if s <= 0:
            raise ValueError("gate scale s must be positive")
    elif reg_weight != 0.0:
        raise UngatedTask(f"task {task_id} has no gates to regularize")
    return x, y


def _loss_and_gradients(
    net: HatMlp,
    x: np.ndarray,
    y: np.ndarray,
    task_id: int,
    s: float,
    reg_weight: float,
    mask_others: bool,
    state: MomentumState,
) -> tuple[float, np.ndarray]:
    """``train_step``'s batch loss, with its gradients written into the
    workspace of ``state`` (``state.grads``).  Returns the loss and ``s * e``
    over the task's flat embeddings ``e`` (empty for an ungated task)."""
    head = net.heads[task_id]
    out = state.grads
    e, g_gates = state.task[:state.n_gates], state.task_grad[:state.n_gates]
    batch = x.shape[0]
    rows = np.arange(batch)
    se = e
    if e.size:
        se = s * e
        a = _sigmoid(se)
        gates = _split(a, [w.shape for w in out.embeddings])
    else:
        gates = [None] * net.n_layers

    # forward, keeping what backward needs
    inputs: list[np.ndarray] = []     # h_{l-1} feeding layer l
    relus: list[np.ndarray] = []      # relu(W h + b), pre-gate
    h = x
    for w, b, g in zip(net.weights, net.biases, gates):
        inputs.append(h)
        r = h @ w.T
        r += b
        relus.append(np.maximum(r, 0.0, out=r))
        h = r if g is None else r * g
    logits = h @ head.weight.T
    logits += head.bias

    active = head.n_classes if mask_others else head.n_classes + 1
    # The probabilities and the loss share one pass of exponentials and one
    # row sum: taking them from ``numerics.softmax`` and
    # ``numerics.log_sum_exp`` would exponentiate twice.
    sub = logits[:, :active]
    shifted = sub - sub.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    total = expv.sum(axis=1)
    nll = -(shifted[rows, y] - np.log(total))
    ce = float(nll.sum()) / batch

    if mask_others:
        dlogits = np.zeros_like(logits)
        np.divide(expv, total[:, None], out=dlogits[:, :active])
    else:
        dlogits = np.divide(expv, total[:, None], out=expv)
    dlogits[rows, y] -= 1.0
    dlogits /= batch

    np.matmul(dlogits.T, h, out=out.head_weight)
    np.add.reduce(dlogits, axis=0, out=out.head_bias)
    dh = dlogits @ head.weight
    for l in range(net.n_layers - 1, -1, -1):
        g, r = gates[l], relus[l]
        if g is not None:   # through the gate; scaled by s a (1 - a) below
            np.add.reduce(dh * r, axis=0, out=out.embeddings[l])
        du = dh if g is None else dh * g   # dh is not read again: scaling it in place is safe
        du *= r > 0.0
        np.matmul(du.T, inputs[l], out=out.weights[l])
        np.add.reduce(du, axis=0, out=out.biases[l])
        if l > 0:
            dh = du @ net.weights[l]

    reg_loss = 0.0
    if e.size:
        one_minus_a = 1.0 - a
        g_gates *= s
        g_gates *= a
        g_gates *= one_minus_a
        if reg_weight != 0.0:
            free, den = state.capacity
            num = 0.0
            for part in _split(a * free, [w.shape for w in gates]):
                num += float(part.sum())
            reg_loss = num / den
            pull = reg_weight * free / den * s
            pull *= a
            pull *= one_minus_a
            g_gates += pull
    return ce + reg_weight * reg_loss, se


def init_momentum(net: HatMlp, task_id: int) -> MomentumState:
    """The training state of ``task_id``: call it after the task's masks are
    fixed and use it until its ``consolidate_mask``.

    It copies the trained arrays into the state's two flat buffers, value for
    value, and rebinds the network's arrays to views of them; the momentum
    starts at zero."""
    net.require_task(task_id)
    head = net.heads[task_id]
    n = net.n_layers
    trunk_arrays, task_arrays = _trained(net, task_id)
    trunk = np.concatenate([a.ravel() for a in trunk_arrays])
    task = np.concatenate([a.ravel() for a in task_arrays])
    trunk_shapes = [a.shape for a in trunk_arrays]
    task_shapes = [a.shape for a in task_arrays]
    params = _split(trunk, trunk_shapes) + _split(task, task_shapes)
    net.weights[:] = params[:n]
    net.biases[:] = params[n:2 * n]
    net.embeddings[task_id][:] = params[2 * n:-2]
    head.weight, head.bias = params[-2:]

    scale = None
    prev = [np.ones(net.input_dim), *net.past_masks[:-1]]
    if any(p.any() for p in net.past_masks):
        scale = np.ones(trunk.size)
        views = _split(scale, trunk_shapes)
        for l, (p, q) in enumerate(zip(net.past_masks, prev)):
            views[l][...] = 1.0 - np.minimum.outer(p, q)
            views[n + l][...] = 1.0 - p

    trunk_grad, task_grad = np.zeros(trunk.size), np.zeros(task.size)
    grad_views = _split(trunk_grad, trunk_shapes) + _split(task_grad, task_shapes)
    return MomentumState(
        task_id=task_id,
        past_masks=list(net.past_masks),
        params=params,
        trunk=trunk,
        task=task,
        n_gates=task.size - head.weight.size - head.bias.size,
        trunk_velocity=np.zeros(trunk.size),
        task_velocity=np.zeros(task.size),
        scale=scale,
        trunk_grad=trunk_grad,
        task_grad=task_grad,
        grads=Gradients(
            weights=grad_views[:n], biases=grad_views[n:2 * n],
            embeddings=grad_views[2 * n:-2], head_weight=grad_views[-2],
            head_bias=grad_views[-1],
        ),
        capacity=_free_capacity(net.past_masks),
    )


def _check_state(net: HatMlp, task_id: int, state: MomentumState) -> None:
    """Refuse a training state that does not fit the network any more."""
    if state.task_id != task_id or [*map(id, state.past_masks)] != [*map(id, net.past_masks)]:
        raise ShapeMismatch("momentum state is for another task or replaced masks; "
                            "call init_momentum again")
    trunk, task = _trained(net, task_id)
    if [*map(id, trunk), *map(id, task)] != [*map(id, state.params)]:
        raise ShapeMismatch("a trained array was rebound after init_momentum; "
                            "call init_momentum again")


def _apply_update(
    net: HatMlp, state: MomentumState, s: float, se: np.ndarray, lr: float, momentum: float
) -> None:
    """``v *= momentum; v += g * scale; p -= lr * v`` over each flat buffer of
    ``state``, from the gradients in its workspace (overwritten).  ``se`` is
    ``s * e`` over the task's embeddings (overwritten too)."""
    gated = state.n_gates > 0
    e, g_gates = state.task[:state.n_gates], state.task_grad[:state.n_gates]
    if gated:
        # annealing compensation (s_max/s) * (cosh(s e) + 1) / (cosh(e) + 1)
        np.maximum(se, -_COSH_CLIP, out=se)
        comp = np.minimum(se, _COSH_CLIP, out=se)
        np.cosh(comp, out=comp)
        comp += 1.0
        np.multiply(net.s_max / s, comp, out=comp)
        ee = np.maximum(e, -_COSH_CLIP)
        np.minimum(ee, _COSH_CLIP, out=ee)
        np.cosh(ee, out=ee)
        ee += 1.0
        comp /= ee
        g_gates *= comp
    if state.scale is not None:
        state.trunk_grad *= state.scale
    for p, v, g in ((state.trunk, state.trunk_velocity, state.trunk_grad),
                    (state.task, state.task_velocity, state.task_grad)):
        v *= momentum
        v += g
        p -= lr * v
    if gated:
        np.maximum(e, -EMBEDDING_CLAMP, out=e)
        np.minimum(e, EMBEDDING_CLAMP, out=e)


def train_step(
    net: HatMlp,
    x: np.ndarray,
    y: np.ndarray,
    task_id: int,
    s: float,
    reg_weight: float,
    lr: float,
    momentum: float,
    state: MomentumState,
    mask_others: bool = False,
) -> float:
    """One SGD-with-momentum step of ``task_id`` on a batch, over the flat
    buffers of ``state`` (``init_momentum``).  Returns the batch loss; the
    update is applied whatever it is, so a caller stops on a loss that is
    not finite.

    The loss is the mean cross-entropy of the batch at gate scale ``s``, plus
    the gate regularizer ``reg_weight * sum_l a_l . (1 - past_l) / max(sum_l
    sum(1 - past_l), floor)``, the sparsity pressure on gates over still-free
    capacity.  ``y`` holds within-task class indices; index ``n_classes`` is
    the everything-else unit.  With ``mask_others`` the last logit is excluded
    from the softmax entirely (the first task, where no replay data exists
    and that unit must stay untouched).  An ungated task has no embeddings to
    train and takes no regularizer (``UngatedTask`` otherwise).

    Trunk weight gradients are scaled by ``1 - min(past_out, past_in)`` per
    entry (the input layer's "previous" mask is all-ones) and bias gradients
    by ``1 - past_out``, so protected capacity cannot move.  The head and the
    task's own embeddings are unscaled; embedding gradients get the annealing
    compensation ``(s_max/s) * (cosh(s e)+1)/(cosh(e)+1)``, and embeddings are
    clamped to ``[-EMBEDDING_CLAMP, EMBEDDING_CLAMP]`` after the step.  A
    refused task (``UnknownTask``), batch (``ShapeMismatch``,
    ``DimensionMismatch``, ``ValueError``, ``UngatedTask``) or state
    (``ShapeMismatch``) raises before anything is written."""
    x, y = _check_batch(net, x, y, task_id, s, reg_weight, mask_others)
    _check_state(net, task_id, state)
    loss, se = _loss_and_gradients(net, x, y, task_id, s, reg_weight, mask_others, state)
    _apply_update(net, state, s, se, lr, momentum)
    return loss


def consolidate_mask(net: HatMlp, task_id: int) -> None:
    """Fold the task's binarized gates (threshold 0.5 at ``s_max``) into the
    cumulative protection masks (``UngatedTask`` for a task without gates)."""
    gates = attention(net, task_id, net.s_max)
    for l, a in enumerate(gates):
        net.past_masks[l] = np.maximum(net.past_masks[l], (a > 0.5).astype(np.float64))
