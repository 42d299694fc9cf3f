"""Rewrite ``reference/<workload>.json``: the outputs one pass of each
workload produces at ``DEFAULT_SEED``.

    python3 perfbench/make_reference.py [workload ...]

Run it only when a change is meant to alter what the CLI computes; the
benchmark counts every op whose output differs from these files as failed.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins one CPU and one BLAS thread and sets the import path first
from workloads import DEFAULT_SEED, WORKLOADS, make_inputs


def main(names: list[str]) -> int:
    run.OUT.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        w = WORKLOADS[name]
        work = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=run.OUT))
        try:
            make_inputs(w, DEFAULT_SEED, work / "inputs")
            (work / "pass").mkdir()
            outputs: dict = {}
            ops = run.run_pass(w, DEFAULT_SEED, work / "inputs", work / "pass",
                               lambda kind, argv: run.fork_op(kind, argv, False),
                               None, outputs)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        failed = [f"{op.kind}: {op.error}" for op in ops if not op.ok]
        if failed:
            print(f"{name}: not written, ops failed: {failed[:5]}", file=sys.stderr)
            return 1
        path = run.HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"seed": DEFAULT_SEED, "ops": outputs}, indent=1,
                                   sort_keys=True) + "\n", encoding="utf-8")
        print(f"{name}: {len(ops)} ops, reference written to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
