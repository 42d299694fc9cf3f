"""Output checks behind ``failed`` / ``error_rate``.

Every op's output is read back after the op ends and checked three ways:

* invariants that hold at every seed (shapes, ranges, the predicted class
  belongs to the predicted task, seed-free analytic values, determinism);
* agreement between ops: ``eval`` reproduces the trajectory ``train``
  stored, every 32-row request answers exactly as the bulk request does for
  the same rows, and every pass after the first writes every artifact and
  report byte for byte as the first did (``metrics.json`` included);
* at ``DEFAULT_SEED``, equality with reference outputs stored from the
  commit that introduced this benchmark (``reference/<workload>.json``).

Counts, accuracies and predicted class/task ids must match exactly; other
floats must match within ``FLOAT_TOL`` (absolute, or relative above 1).
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

FLOAT_TOL = 1e-8
MC_TOL = 0.01             # Monte-Carlo AUC vs its quadrature oracle, n = 1e5
EXACT_KEYS = {"trajectory", "a_last", "til", "per_task", "cil_last_acc",
              "class_task_sha256", "buffer_class_counts"}
# Theory report fields that depend on --seed; the rest is analytic.
SEEDED_KEYS = {"seed", "empirical", "empirical_type1", "md_spearman",
               "knn_spearman", "n_used_md"}
TRAIN_ARTIFACTS = ("model.bin", "buffer.csv", "trajectory.json", "calibration.json", "stats")
PREDICT_HEADER = "row,predicted_class,predicted_task,p_task,score_variant"


class CheckFailed(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _load(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from exc


def diff(got, want, path: str = "", exact: bool = False) -> list[str]:
    """Mismatches between two JSON values under the exact/tolerance rules."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        out = []
        for k in sorted(want):
            out += diff(got[k], want[k], f"{path}.{k}", exact or k in EXACT_KEYS)
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += diff(g, w, f"{path}[{i}]", exact)
        return out
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if exact:
            return [] if got == want else [f"{path}: {got!r} != {want!r}"]
        if math.isfinite(want) and abs(got - want) <= FLOAT_TOL * max(1.0, abs(want)):
            return []
        return [f"{path}: {got!r} not within {FLOAT_TOL} of {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]


def _in_unit(values, what: str) -> None:
    for v in values:
        _require(isinstance(v, (int, float)) and 0.0 <= v <= 1.0, f"{what} {v!r} outside [0, 1]")


def _leaves(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _leaves(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _leaves(v)
    else:
        yield obj


def _drop(obj, keys: set):
    if isinstance(obj, dict):
        return {k: _drop(v, keys) for k, v in obj.items() if k not in keys}
    return obj


# --- outputs of each op, as compared with the reference ------------------------


def train_outputs(run_dir: Path) -> dict:
    traj = _load(run_dir / "trajectory.json")
    stats = {p.stem: {k: v for k, v in _load(p).items() if k.startswith("beta_")}
             for p in sorted((run_dir / "stats").glob("task_*.json"))}
    counts: dict[str, int] = {}
    for line in (run_dir / "buffer.csv").read_text(encoding="utf-8").splitlines():
        label = line.split(",", 1)[0]
        counts[label] = counts.get(label, 0) + 1
    return {"trajectory": traj["trajectory"], "per_task": traj["per_task"],
            "til": traj["til"], "rates": stats, "buffer_class_counts": counts,
            "calibration": _load(run_dir / "calibration.json")}


def read_predictions(path: Path, n_rows: int, classes_per_task: int) -> list[tuple]:
    """Parse and validate a predictions CSV: [(class, task, p_task), ...]."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from exc
    _require(bool(lines) and lines[0] == PREDICT_HEADER, "bad predictions header")
    _require(len(lines) == n_rows + 1, f"{len(lines) - 1} predictions for {n_rows} rows")
    rows = []
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        try:
            row, cls, task, p = int(cells[0]), int(cells[1]), int(cells[2]), float(cells[3])
        except (ValueError, IndexError) as exc:
            raise CheckFailed(f"prediction line {i + 1}: {exc}") from exc
        _require(row == i and cells[4] == "canonical", f"prediction line {i + 1} malformed")
        _require(cls // classes_per_task + 1 == task,
                 f"row {i}: class {cls} is not a class of task {task}")
        _require(0.0 < p <= 1.0, f"row {i}: p_task {p!r} outside (0, 1]")
        rows.append((cls, task, p))
    return rows


def predict_outputs(rows: list[tuple]) -> dict:
    ids = "\n".join(f"{c},{t}" for c, t, _ in rows).encode("utf-8")
    return {"rows": len(rows),
            "class_task_sha256": hashlib.sha256(ids).hexdigest(),
            "p_task": [round(p, 10) for _, _, p in rows]}


# --- checks that hold at every seed -------------------------------------------


def check_train(run_dir: Path, n_tasks: int) -> dict:
    out = train_outputs(run_dir)
    _require(len(out["trajectory"]) == n_tasks, "trajectory length != task count")
    _in_unit(out["trajectory"], "trajectory accuracy")
    _in_unit(_leaves(out["per_task"]), "per-task accuracy")
    _require(len(out["rates"]) == n_tasks, "missing task stats")
    _require((run_dir / "model.bin").is_file(), "model.bin missing")
    return out


def check_eval(run_dir: Path, stored_trajectory: list) -> dict:
    out = _load(run_dir / "metrics.json")
    _require(out["trajectory"] == stored_trajectory,
             "metrics.json trajectory differs from the one train stored")
    _require(out["a_last"] == out["trajectory"][-1], "a_last != last trajectory point")
    _in_unit(list(out["til"].values()) + list(out["ood"].values()), "til/ood value")
    return out


def check_ood_bench(run_dir: Path) -> dict:
    out = _load(run_dir / "ood_bench.json")
    _require(len(out["scores"]) == 7, "ood-bench must report 7 scores")
    for row in out["scores"].values():
        _in_unit([row["cil_last_acc"], row["auc_mean"]] + list(row["auc_per_task"].values()),
                 "ood-bench value")
    return out


def check_theory(path: Path, case: str) -> dict:
    out = _load(path)
    if case == "sec41":
        for scorer in out["auc"].values():
            _require(abs(scorer["empirical"] - scorer["oracle"]) <= MC_TOL,
                     "sec41 empirical AUC far from its oracle")
        _require(0.04 <= out["threshold"]["empirical_type1"] <= 0.06,
                 "sec41 empirical type-1 rate outside [0.04, 0.06]")
    elif case == "dominance":
        _require(out["dominance_holds"] is True, "dominance does not hold")
        for pair in out["pairs"].values():
            for s, oracle in pair["oracle"].items():
                _require(abs(pair["empirical"][s] - oracle) <= MC_TOL,
                         f"dominance {s}: empirical AUC far from its oracle")
    else:
        _require(out["md_spearman"] == 1.0, "MD score does not rank like the density")
    return out


def check_theory_seed_free(out: dict, reference: dict | None) -> None:
    """The analytic part of a theory report does not depend on --seed."""
    if reference is not None:
        errors = diff(_drop(out, SEEDED_KEYS), _drop(reference, SEEDED_KEYS))
        _require(not errors, "analytic values differ: " + "; ".join(errors[:3]))


def check_same_artifacts(run_dir: Path, first_dir: Path, names: tuple[str, ...]) -> None:
    """A rerun with the same config and seed rewrites every named artifact
    byte for byte (criterion 10, checked from outside)."""
    for fb in sorted(first_dir.rglob("*")):
        rel = fb.relative_to(first_dir)
        if fb.is_file() and rel.parts[0] in names:
            fa = run_dir / rel
            _require(fa.is_file() and fa.read_bytes() == fb.read_bytes(),
                     f"{rel} differs from the first run")


def check_same_file(path: Path, first: Path) -> None:
    _require(path.is_file() and path.read_bytes() == first.read_bytes(),
             f"{path.name} differs from {first.name}")


def check_request(rows: list[tuple], bulk_rows: list[tuple], offset: int) -> None:
    """A request answers exactly like the bulk request on the same rows."""
    want = bulk_rows[offset:offset + len(rows)]
    for i, ((c, t, p), (wc, wt, wp)) in enumerate(zip(rows, want)):
        _require((c, t) == (wc, wt), f"row {i}: ({c}, {t}) but bulk said ({wc}, {wt})")
        _require(abs(p - wp) <= FLOAT_TOL, f"row {i}: p_task {p!r} but bulk said {wp!r}")


def check_reference(kind: str, got: dict, reference: dict | None) -> None:
    if reference is None or kind not in reference:
        return
    errors = diff(got, reference[kind], kind)
    _require(not errors, "differs from reference: " + "; ".join(errors[:3]))
