"""Self-test of the benchmark at tiny sizes (a few seconds per workload).

    python3 perfbench/selftest.py

For every workload it runs one untraced and one traced pass at toy scale and
checks that every metric BENCHMARK.json names is printed, with its unit, in
the result line; then it corrupts one request's output and checks that the
op is counted as failed.  Exits non-zero on the first problem.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import time

import run  # pins one CPU and one BLAS thread and sets the import path first
from workloads import WORKLOADS

SEED = 3


def tiny(w):
    return dataclasses.replace(
        w,
        dataset={**w.dataset, "n_tasks": 2, "classes_per_task": 2, "dim": 4,
                 "train_per_class": 20, "test_per_class": min(w.dataset["test_per_class"], 5)},
        training={**w.training, "epochs": 1, "hidden_widths": [8], "buffer_capacity": 8},
        requests=3, bulk_rows=96, rerun=True,
    )


def expect(cond: bool, message: str) -> None:
    if not cond:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def printed_metrics(record: dict) -> dict:
    line = json.loads(run.result_line(record))
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}, "result line keys")
    return line["metrics"]


def corrupting_runner(kind, argv, traced):
    """Run the op, then flip the class of row 0 in the first request's output
    to the other class of the same task, which only the bulk cross-check sees."""
    op = run.fork_op(kind, argv, traced)
    out = argv[argv.index("--output") + 1] if kind == "request" else ""
    if out.endswith("request_0_out.csv"):
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        cells = lines[1].split(",")
        cells[1] = str(int(cells[1]) ^ 1)
        lines[1] = ",".join(cells)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    return op


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for name, w in WORKLOADS.items():
        small = tiny(w)
        for traced in (False, True):
            start = time.perf_counter()
            record = run.run_workload(small, SEED, 0, traced, min_requests=0)
            expect(record["failed"] == 0, f"{name}: ops failed: {record['failures']}")
            got = printed_metrics(record)
            expect(set(got) == set(wanted[traced]),
                   f"{name}: metric names {sorted(set(got) ^ set(wanted[traced]))}")
            for metric, unit in wanted[traced].items():
                expect(got[metric]["unit"] == unit, f"{name}: {metric} unit")
                value = got[metric]["value"]
                expect(isinstance(value, (int, float)), f"{name}: {metric} has no value")
                expect(traced or value > 0, f"{name}: {metric} is not positive")
            print(f"{name} trace={int(traced)}: {len(got)} metrics, "
                  f"{record['attempted']} ops, {time.perf_counter() - start:.1f} s")
        record = run.run_workload(small, SEED, 0, False, runner=corrupting_runner,
                                  min_requests=0)
        expect(record["failed"] == 1 and record["error_rate"] > 0,
               f"{name}: corrupted output not counted ({record['failed']} failed)")
        expect(json.loads(run.result_line(record))["correct"] is False,
               f"{name}: corrupted run reported correct")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
