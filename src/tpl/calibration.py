"""Per-task affine output calibration fitted on the replay buffer.

Task models are trained separately, so the combined class values
``WP_j(x) * P(t|x)`` can sit on different scales per task.  A scale/shift
pair per task, ``p = sigma1 * WP_j * P(t|x) + sigma2``, is fitted by plain
SGD on the mean −log of each buffer sample's true-class value; the final
prediction takes an argmax over the raw calibrated values.  The combined
value does not depend on the parameters being fitted, so it is read once
per buffer sample from an uncalibrated ``scoring.predict`` and the descent
itself is cheap vector arithmetic.

The fit keeps the best parameters seen against the full-buffer objective
(identity included), so the fitted objective never ends worse than the
identity's.  That holds for the objective, not for accuracy: the objective
reads the true class's value alone and is not normalized over the classes,
so it falls without bound as a task's sigma2 grows.  A runaway sigma2 makes
that task win nearly every argmax, and the fit accepts it.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING

import numpy as np

from . import scoring
from .data import label_positions
from .numerics import RngState, stable_mean

if TYPE_CHECKING:
    from .trainer import RunArtifacts

logger = logging.getLogger(__name__)

#: Combined class values are clamped to this floor inside the log.
PROB_FLOOR = 1e-12


def _combined_values(run: RunArtifacts):
    """Per-sample combined value WP_y * P(t_y|x) and task position.

    Returns ``(base, tpos, task_ids)`` where ``base[i]`` is the combined
    value of buffer sample i's true class, read from an uncalibrated
    ``scoring.predict`` (identity calibration leaves it exact), and
    ``tpos[i]`` indexes the sample's task within ``task_ids``.
    """
    buf = run.buffer
    ctx = scoring.context_from_run(run, calibrated=False)
    preds = scoring.predict(ctx, buf.x)
    col = label_positions(buf.labels, [c for t in ctx.task_ids for c in ctx.task_classes[t]])
    base = preds.calibrated[np.arange(len(buf)), col]
    tpos = np.searchsorted(ctx.task_ids, buf.tasks)
    return base, tpos, list(ctx.task_ids)


def _objective(base: np.ndarray, tpos: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> float:
    p = np.maximum(s1[tpos] * base + s2[tpos], PROB_FLOOR)
    return -stable_mean(np.log(p))


def _sgd_fit(
    base: np.ndarray,
    tpos: np.ndarray,
    n_tasks: int,
    epochs: int,
    batch: int,
    lr: float,
    rng: RngState,
):
    """Minimize mean −log(clamped affine value) over the given samples.

    Tracks the full-set objective after every epoch and returns the best
    parameters seen, starting from (and therefore never losing to) the
    identity.  Clamped samples contribute zero gradient.
    """
    n = base.shape[0]
    s1 = np.ones(n_tasks)
    s2 = np.zeros(n_tasks)
    best_obj = _objective(base, tpos, s1, s2)
    best = (s1.copy(), s2.copy())
    for e in range(epochs):
        perm = rng.stream(f"shuffle-epoch-{e}").permutation(n)
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            b = base[idx]
            t = tpos[idx]
            p_raw = s1[t] * b + s2[t]
            active = p_raw >= PROB_FLOOR
            p = np.maximum(p_raw, PROB_FLOOR)
            g1 = np.zeros(n_tasks)
            g2 = np.zeros(n_tasks)
            np.add.at(g1, t[active], -b[active] / p[active])
            np.add.at(g2, t[active], -1.0 / p[active])
            s1 -= lr * g1 / idx.size
            s2 -= lr * g2 / idx.size
        obj = _objective(base, tpos, s1, s2)
        if np.isfinite(obj) and obj < best_obj:
            best_obj = obj
            best = (s1.copy(), s2.copy())
    return best[0], best[1], best_obj


def fit_calibration(
    run: RunArtifacts,
    epochs: int,
    batch: int,
    lr: float,
    rng: RngState,
) -> dict[int, tuple[float, float]]:
    """Fit per-task scale/shift pairs ``{task: (sigma1, sigma2)}`` on the
    run's replay buffer.

    A single-task run (or an empty buffer) yields the identity; the network,
    stats, and buffer are never modified.  The result never has a higher
    objective than the identity, but it can have a lower accuracy: the
    objective is not normalized over the classes and falls without bound as
    a task's sigma2 grows (see the module docstring).
    """
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    task_ids = run.task_ids()
    if len(task_ids) < 2:
        return scoring.identity_calibration(task_ids)
    if len(run.buffer) == 0:
        logger.warning("calibration: empty replay buffer; keeping identity")
        return scoring.identity_calibration(task_ids)
    base, tpos, ordered = _combined_values(run)
    s1, s2, _ = _sgd_fit(base, tpos, len(ordered), epochs, batch, lr, rng)
    return {t: (float(s1[j]), float(s2[j])) for j, t in enumerate(ordered)}

