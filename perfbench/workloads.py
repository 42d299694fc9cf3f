"""Workload definitions and the seeded inputs each one feeds to the CLI.

A run of a workload is a series of passes.  Each pass draws a fresh data seed
from the run's seed (``pass_seed``) and runs ``train``, ``eval``,
``ood-bench``, the three ``theory-check`` cases, the same bulk ``predict``
twice and a few small ``predict`` requests in its own run directory.  The
workloads differ in the run's shape; see README.md for why each exists.
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

DEFAULT_SEED = 1          # the seed the stored reference outputs were made with
SEED_STRIDE = 1009        # pass i of a run uses data seed  seed + i * SEED_STRIDE
ROWS_PER_REQUEST = 32
THEORY_CASES = ("sec41", "dominance", "density")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    dataset: dict               # synthetic dataset block, without "kind"
    training: dict              # training block of the run config
    ncl: bool                   # eval with --ncl and a fresh (cold) cache
    requests: int               # 32-row predict requests per pass
    bulk_rows: int              # rows of the bulk predict of each pass
    rerun: bool                 # rerun pass 0 at the end; its artifacts must repeat

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        return cls(**json.loads(text))


WORKLOADS = {
    # The README demo config: HAT backprop is a large share of train, eval
    # trains the joint (NCL) reference, and requests are cheap enough that
    # per-request fixed costs dominate them.
    "desk": Workload(
        name="desk",
        dataset={"n_tasks": 5, "classes_per_task": 2, "dim": 16, "separation": 6.0,
                 "train_per_class": 200, "test_per_class": 100},
        training={"epochs": 20, "hidden_widths": [64, 64], "buffer_capacity": 200,
                  "score_variant": "canonical"},
        ncl=True, requests=20, bulk_rows=4096, rerun=True,
    ),
    # Many tasks and wide features: the accuracy trajectory and ood-bench
    # re-score O(T^2) / 14 bundles, so md_score dominates train and ood-bench;
    # each request rereads a large run directory before it scores 32 rows.
    "many-tasks": Workload(
        name="many-tasks",
        dataset={"n_tasks": 8, "classes_per_task": 5, "dim": 32, "separation": 6.0,
                 "train_per_class": 200, "test_per_class": 5},
        training={"epochs": 3, "hidden_widths": [96, 96], "buffer_capacity": 800,
                  "score_variant": "canonical"},
        ncl=False, requests=34, bulk_rows=1024, rerun=False,
    ),
}


def pass_seed(seed: int, i: int) -> int:
    """The data seed of pass ``i``: pass 0 uses the run's seed itself, so a run
    at ``DEFAULT_SEED`` can be compared with the stored reference."""
    return seed + i * SEED_STRIDE


def run_config(w: Workload, seed: int) -> dict:
    return {
        "schema_version": 1,
        "seed": seed,
        "calibrate": True,
        "dataset": {"kind": "synthetic", **w.dataset},
        "training": dict(w.training),
    }


def _write_rows(path: Path, labels, rows) -> None:
    lines = [",".join([str(int(y))] + [repr(float(v)) for v in x])
             for y, x in zip(labels, rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_inputs(w: Workload, seed: int, out: Path) -> None:
    """Write the run config, the bulk input and the request inputs.

    Predict rows are drawn from the run's own class distributions: the stream
    is regenerated with the run's seed and a test split large enough for the
    bulk request, and its test rows are shuffled across tasks.  Request ``r``
    is rows ``32r .. 32r+31`` of the bulk input, so every request's answer can
    be checked against the bulk answer.
    """
    import numpy as np
    from tpl import data
    from tpl.numerics import RngState

    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(run_config(w, seed), indent=2),
                                     encoding="utf-8")
    d = w.dataset
    n_classes = d["n_tasks"] * d["classes_per_task"]
    stream = data.generate_gaussian_stream(
        n_tasks=d["n_tasks"], classes_per_task=d["classes_per_task"], dim=d["dim"],
        separation=d["separation"], samples_per_class_train=1,
        samples_per_class_test=-(-w.bulk_rows // n_classes), rng=RngState(seed),
    )
    x = np.concatenate([t.test_x for t in stream.tasks])
    y = np.concatenate([t.test_y for t in stream.tasks])
    order = RngState(seed).stream("perfbench-rows").permutation(x.shape[0])[: w.bulk_rows]
    x, y = x[order], y[order]
    _write_rows(out / "bulk.csv", y, x)
    for r in range(w.requests):
        lo = request_offset(w, r)
        _write_rows(out / f"request_{r}.csv", y[lo:lo + ROWS_PER_REQUEST],
                    x[lo:lo + ROWS_PER_REQUEST])


def request_offset(w: Workload, r: int) -> int:
    return (r * ROWS_PER_REQUEST) % w.bulk_rows
