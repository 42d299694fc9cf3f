"""Spans around the package's public functions, recorded from outside.

``install`` replaces every public module-level function of each ``tpl``
module with a wrapper, at every module attribute that holds it, so a call is
traced wherever the caller looks the function up (``trainer.spd_inverse`` is
the same wrapper as ``numerics.spd_inverse``).  Nothing under ``src/`` is
edited.  It runs inside the forked child of one traced op; the child sends
its spans back to the benchmark process, which keeps them in memory and
derives the per-layer metrics with ``summarize``.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time
from pathlib import Path

MODULES = ("numerics", "data", "hat_mlp", "trainer", "scoring", "calibration",
           "evaluation", "theory_lab", "cli")

# (function, counters); every metric is "<module>.<function>.<counter>".
LAYERS = [
    ("scoring.md_score", ("calls", "pairs", "self_s")),
    ("scoring.knn_kth_distance", ("calls", "pairs", "self_s")),
    ("scoring.compute_bundle", ("calls", "rows", "self_s", "distinct_ratio")),
    ("scoring.build_context", ("calls", "self_s")),
    ("scoring.predict", ("calls", "rows", "self_s")),
    ("hat_mlp.batch_loss_and_gradients", ("calls", "rows", "self_s")),
    ("hat_mlp.masked_gradient_update", ("calls", "self_s")),
    ("hat_mlp.forward", ("calls", "rows", "self_s")),
    ("trainer.train_task", ("self_s",)),
    ("trainer.compute_task_stats", ("calls", "self_s")),
    ("trainer.run_sequence", ("self_s",)),
    ("numerics.spd_inverse", ("calls", "self_s")),
    ("calibration.fit_calibration", ("calls", "self_s")),
    ("evaluation.accuracy_trajectory", ("self_s",)),
    ("evaluation.task_ood_aucs", ("calls", "self_s")),
    ("evaluation.build_ncl_reference", ("self_s",)),
    ("evaluation.ood_auc", ("calls", "self_s")),
    ("theory_lab.oracle_auc", ("calls", "self_s")),
    ("theory_lab.empirical_auc", ("calls", "self_s")),
    ("theory_lab.lr_threshold_for_type1", ("self_s",)),
    ("theory_lab.density_estimator_check", ("self_s",)),
    ("data.generate_gaussian_stream", ("calls", "self_s")),
    ("cli.load_run", ("calls", "self_s")),
    ("cli.save_run", ("self_s", "bytes")),
    ("cli.cmd_predict", ("self_s",)),
]
UNITS = {"calls": "count", "pairs": "count", "rows": "count", "bytes": "bytes",
         "self_s": "s", "distinct_ratio": "fraction", "share": "fraction"}
ROOT = "op"   # module name of the span around one whole CLI invocation
_ZERO = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "rows": 0, "pairs": 0, "bytes": 0,
         "distinct": 0}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {f"{fn}.{c}": UNITS[c] for fn, counters in LAYERS for c in counters}
    for module in MODULES + (ROOT,):
        out[f"{module}.share"] = UNITS["share"]
    out["trace_overhead_s"] = "s"
    return out


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        import numpy as np
        shape = np.asarray(x).shape
    return 1 if len(shape) < 2 else int(shape[0])


def _bundle_key(ctx, x) -> str:
    import numpy as np
    data = np.ascontiguousarray(np.asarray(x, dtype=np.float64)).tobytes()
    return f"{id(ctx.net)}:{ctx.k}:{hashlib.blake2b(data, digest_size=16).hexdigest()}"


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# Counters taken from a call's bound arguments before it runs.
_BEFORE = {
    "scoring.md_score": lambda a: {"pairs": _rows(a["feats"]) * a["stats"].class_means.shape[0]},
    "scoring.knn_kth_distance": lambda a: {"pairs": _rows(a["queries"]) * _rows(a["index"])},
    "scoring.compute_bundle": lambda a: {"rows": _rows(a["x"]), "key": _bundle_key(a["ctx"], a["x"])},
    "scoring.predict": lambda a: {"rows": _rows(a["x"])},
    "hat_mlp.batch_loss_and_gradients": lambda a: {"rows": _rows(a["x"])},
    "hat_mlp.forward": lambda a: {"rows": _rows(a["x"])},
}
# Counters taken after the call returns.
_AFTER = {
    "cli.save_run": lambda a: {"bytes": _dir_bytes(a["out"])},
}


class Tracer:
    """Span recorder for one process: [name, start, end, parent, counters]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, args, kwargs, sig=None):
        extra = None
        bound = None
        if sig is not None:
            bound = sig.bind(*args, **kwargs).arguments
            if name in _BEFORE:
                extra = _BEFORE[name](bound)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, extra]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            if name in _AFTER:
                span[4] = {**(extra or {}), **_AFTER[name](bound)}


def _wrap(tracer: Tracer, name: str, fn):
    sig = inspect.signature(fn) if name in _BEFORE or name in _AFTER else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, sig)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every traced module at every attribute
    of a ``tpl`` module that refers to them."""
    mods = {m: importlib.import_module(f"tpl.{m}") for m in MODULES}
    wrappers = {}
    for m, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__ or (m, attr) == ("cli", "main")):
                continue
            wrappers[id(fn)] = _wrap(tracer, f"{m}.{attr}", fn)
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers and inspect.isfunction(value):
                setattr(mod, attr, wrappers[id(value)])


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover (children of
    one span never overlap: the program is single-threaded)."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def summarize(ops: list[dict]) -> dict:
    """Per-function and per-module totals over traced ops.

    ``ops`` holds one ``{"kind", "wall_s", "spans"}`` entry per op; each
    op's span list starts with its root span.
    """
    funcs: dict[str, dict] = {}
    modules: dict[str, float] = {}
    per_op = []
    for op in ops:
        spans = op["spans"]
        selfs = self_times(spans)
        keys: dict[str, set] = {}
        for s, self_s in zip(spans, selfs):
            f = funcs.setdefault(s[0], dict(_ZERO))
            f["calls"] += 1
            f["self_s"] += self_s
            f["total_s"] += s[2] - s[1]
            for k, v in (s[4] or {}).items():
                if k == "key":
                    keys.setdefault(s[0], set()).add(v)
                else:
                    f[k] += v
            module = s[0].split(".", 1)[0]
            modules[module] = modules.get(module, 0.0) + self_s
        for name, seen in keys.items():
            funcs[name]["distinct"] += len(seen)
        per_op.append({"kind": op["kind"], "wall_s": op["wall_s"],
                       "self_sum_s": sum(selfs)})
    return {"functions": funcs, "modules": modules, "ops": per_op}


def layer_metrics(summary: dict, overhead_s: float) -> dict[str, float]:
    funcs = summary["functions"]
    total = sum(summary["modules"].values())
    out: dict[str, float] = {}
    for fn, counters in LAYERS:
        f = funcs.get(fn, _ZERO)
        for c in counters:
            if c == "distinct_ratio":
                out[f"{fn}.{c}"] = f["distinct"] / f["calls"] if f["calls"] else 0.0
            else:
                out[f"{fn}.{c}"] = f[c]
    for module in MODULES + (ROOT,):
        out[f"{module}.share"] = summary["modules"].get(module, 0.0) / total if total else 0.0
    out["trace_overhead_s"] = overhead_s
    return out
