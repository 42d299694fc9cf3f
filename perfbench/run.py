"""End-to-end benchmark of the ``tpl`` command line.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 50 --trace 0

Runs one workload (see ``workloads.py`` and README.md) from the seed, checks
every output, and prints a summary followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones, from one pass in which every op runs twice in a row, once traced and
once untraced (alternating which goes first), each in its own directory.

Each op is one ``tpl`` CLI invocation through ``tpl.cli.main``, run in a
child forked after ``import tpl.cli``, so no op sees in-process state that an
earlier op left behind; the benchmark process itself runs no op.  Everything
it writes goes to ``perfbench/out/``.
"""
from __future__ import annotations

import os

# The benchmark and every process it starts run on one CPU of the affinity
# mask with one BLAS thread, set before numpy loads.  On a small shared VM,
# BLAS threads spread over two CPUs made the request tail depend on whatever
# else ran there (desk p90 spread over five seeds: 0.29 unpinned, 0.08 pinned).
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
os.sched_setaffinity(0, {ALLOWED_CPUS[-1]})
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(SRC)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import DEFAULT_SEED, ROWS_PER_REQUEST, THEORY_CASES, WORKLOADS, Workload  # noqa: E402

SETUP_REPEATS = 3
# A run makes at least this many requests, so that p90 has at least ten
# samples above it.
MIN_REQUESTS = 100
# The speed probe's time at the reference speed: the fastest it ran on the
# shared 2-vCPU VM the benchmark was written on (README.md, "Reference speed").
PROBE_REFERENCE_S = 0.0018
E2E_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "ood_bench_s": "s",
    "theory_s": "s",
    "request_p50_ms": "ms",
    "request_p90_ms": "ms",
    "predict_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}
# Time shares that the benchmark's design predicted from an early profile (a
# warm in-process prototype of the workloads on 2 CPUs), reported next to the
# measured ones: (label, predicted, op kinds, span-name prefixes, "self" or
# "total" time of those spans) as a share of those ops' wall time.
_BACKPROP = ("hat_mlp.batch_loss_and_gradients", "hat_mlp.masked_gradient_update")
_BATCH = ("train", "eval", "ood-bench", "theory")
PREDICTED_SHARES = {
    "desk": [("hat_mlp backprop+forward / batch ops", 0.45, _BATCH,
              _BACKPROP + ("hat_mlp.forward",), "self"),
             ("scoring / batch ops", 0.35, _BATCH, ("scoring.",), "self")],
    "many-tasks": [("md_score / train", 0.57, ("train",), ("scoring.md_score",), "self"),
                   ("compute_task_stats / train", 0.09, ("train",),
                    ("trainer.compute_task_stats",), "self"),
                   ("backprop / train", 0.13, ("train",), _BACKPROP, "self"),
                   ("load_run / request", 0.60, ("request",), ("cli.load_run",), "total")],
}
_SETUP_CODE = (
    "import sys, pathlib; sys.path[:0] = sys.argv[1:3]; import tpl.cli, workloads; "
    "workloads.make_inputs(workloads.Workload.from_json(sys.argv[3]), int(sys.argv[4]), "
    "pathlib.Path(sys.argv[5]))"
)


@dataclass
class Op:
    kind: str
    wall_s: float
    exit_code: int
    maxrss_kb: int
    spans: list | None = None
    error: str | None = None
    probe_s: float = 0.0        # speed probe time around the op (see ``probed``)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and self.error is None


# --- machine speed -----------------------------------------------------------


@functools.cache
def _probe_matrix():
    import numpy as np
    return np.linspace(-1.0, 1.0, 200 * 200).reshape(200, 200)


def speed_probe() -> float:
    """Seconds that a fixed piece of CPU work (an interpreter loop and small
    matrix products, about 2 ms) takes right now on the benchmark's CPU: the
    fastest of three tries, so that one interrupt does not count."""
    a = _probe_matrix()
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(15000):
            acc += i * i
        for _ in range(4):
            a @ a
        best = min(best, time.perf_counter() - start)
    return best


def probed(runner):
    """Wrap an op runner: run the speed probe just before and just after each
    op and store their mean on the op."""
    def run(kind: str, argv: list[str]) -> Op:
        before = speed_probe()
        op = runner(kind, argv)
        op.probe_s = (before + speed_probe()) / 2
        return op
    return run


# --- running ops -------------------------------------------------------------


def fork_op(kind: str, argv: list[str], traced: bool) -> Op:
    """Run ``tpl <argv>`` in a forked child and time it from fork to reap."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: run the op, send spans back, never return
        code = 70
        try:
            os.close(rfd)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            from tpl import cli
            payload = b""
            if traced:
                tracer = tracing.Tracer()
                tracing.install(tracer)
                code = tracer.call("cli.main", cli.main, (argv,), {})
                payload = json.dumps(tracer.spans).encode("utf-8")
            else:
                code = cli.main(argv)
            with os.fdopen(wfd, "wb") as fh:
                fh.write(payload)
        except BaseException:  # report, then exit non-zero: the op failed
            traceback.print_exc()
            code = 70
        finally:
            os._exit(code if isinstance(code, int) else 70)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        payload = fh.read()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    spans = None
    if traced and code == 0 and payload:
        # The op's root span is fork-to-reap, so self times sum to the wall
        # time; its own self time is fork, exit and the span transfer.
        spans = [[f"{tracing.ROOT}.{kind}", start, start + wall, -1, None]]
        spans += [[n, t0, t1, parent + 1, extra] for n, t0, t1, parent, extra
                  in json.loads(payload)]
    return Op(kind, wall, code, usage.ru_maxrss, spans,
              None if code == 0 else f"exit code {code}")


def run_pass(w: Workload, seed: int, inputs: Path, work: Path, runner,
             reference: dict | None, outputs: dict | None = None,
             first: Path | None = None) -> list[Op]:
    """One pass over the workload's ops for data seed ``seed``, in ``work``,
    each op checked as soon as it ends.

    At ``DEFAULT_SEED`` the outputs are compared with the reference and also
    stored in ``outputs``.  With ``first``, the directory of an earlier pass
    with the same seed, the pass is a rerun without requests, whose every
    artifact and report must have the same bytes as there (criterion 10).
    """
    ops: list[Op] = []
    full_ref = reference if seed == DEFAULT_SEED else None
    cpt = w.dataset["classes_per_task"]
    run_dir = work / "run"
    state: dict = {}
    outputs = {} if outputs is None else outputs

    def step(kind: str, argv: list, check) -> None:
        op = runner(kind, [str(a) for a in argv])
        if op.exit_code == 0:
            try:
                check()
            except (checks.CheckFailed, OSError, KeyError, TypeError, ValueError) as exc:
                op.error = f"{type(exc).__name__}: {exc}"
        ops.append(op)

    def compare(key: str, out: dict, names: tuple[str, ...]) -> None:
        if first is not None:
            checks.check_same_artifacts(run_dir, first / "run", names)
        else:
            outputs[key] = out
            checks.check_reference(key, out, full_ref)

    def check_train():
        out = checks.check_train(run_dir, w.dataset["n_tasks"])
        state["trajectory"] = out["trajectory"]
        compare("train", out, checks.TRAIN_ARTIFACTS)

    def check_eval():
        out = checks.check_eval(run_dir, state["trajectory"])
        compare("eval", out, ("metrics.json",))

    def check_ood_bench():
        compare("ood-bench", checks.check_ood_bench(run_dir),
                ("ood_bench.json", "ood_scatter.csv"))

    step("train", ["train", "--config", inputs / "config.json", "--out", run_dir, "--quiet"],
         check_train)
    ncl = ["--ncl", work / "ncl"] if w.ncl else []
    step("eval", ["eval", "--run", run_dir, *ncl, "--quiet"], check_eval)
    step("ood-bench", ["ood-bench", "--run", run_dir, "--quiet"], check_ood_bench)

    for case in THEORY_CASES:
        report = run_dir / f"theory_{case}.json"

        def check_theory():
            out = checks.check_theory(report, case)
            checks.check_theory_seed_free(out, (reference or {}).get(f"theory.{case}"))
            compare(f"theory.{case}", out, (report.name,))

        step("theory", ["theory-check", "--case", case, "--seed", seed, "--out", report,
                        "--quiet"], check_theory)

    bulk_out = run_dir / "bulk_predictions.csv"

    def check_bulk():
        state["bulk"] = checks.read_predictions(bulk_out, w.bulk_rows, cpt)
        compare("predict.bulk", checks.predict_outputs(state["bulk"]), (bulk_out.name,))

    step("bulk", ["predict", "--run", run_dir, "--input", inputs / "bulk.csv",
                  "--output", bulk_out, "--quiet"], check_bulk)
    # The bulk request runs twice, for two timing samples per data seed; the
    # second must write the same bytes as the first.
    bulk_again = work / "bulk_predictions_again.csv"
    step("bulk", ["predict", "--run", run_dir, "--input", inputs / "bulk.csv",
                  "--output", bulk_again, "--quiet"],
         lambda: checks.check_same_file(bulk_again, bulk_out))
    if first is not None:
        return ops

    for r in range(w.requests):
        path = work / f"request_{r}_out.csv"

        def check_request():
            rows = checks.read_predictions(path, ROWS_PER_REQUEST, cpt)
            if "bulk" in state:
                checks.check_request(rows, state["bulk"], workloads.request_offset(w, r))

        step("request", ["predict", "--run", run_dir, "--input", inputs / f"request_{r}.csv",
                         "--output", path, "--quiet"], check_request)
    return ops


# --- set-up ------------------------------------------------------------------


def probe_setup(w: Workload, seed: int, dest: Path) -> tuple[float, int, float]:
    """Time a fresh process doing the set-up: interpreter start, ``import
    tpl.cli`` and input generation; also return the speed probe around it."""
    argv = [sys.executable, "-c", _SETUP_CODE, str(HERE), str(SRC), w.to_json(),
            str(seed), str(dest)]
    before = speed_probe()
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("set-up failed (is the tpl source tree next to perfbench/?)")
    return elapsed, usage.ru_maxrss, (before + speed_probe()) / 2


def load_reference(name: str) -> dict | None:
    path = HERE / "reference" / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["ops"]


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a plain source checkout carries no git metadata
    digest = hashlib.sha256()
    for path in sorted((SRC / "tpl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity_allowed": ALLOWED_CPUS,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


# --- metrics -----------------------------------------------------------------


def _mean(values):
    return statistics.fmean(values) if values else None


def e2e_metrics(passes: list[list[Op]], setup: list[tuple[float, int, float]],
                w: Workload, scale: bool) -> dict:
    """Op times are averaged over the run's passes, so that each metric
    covers every data seed of the run and the whole time the run took.

    With ``scale``, every time is first multiplied by ``PROBE_REFERENCE_S``
    over the speed probe's time around it: the time it would have taken had
    the CPU run at the reference speed (see README.md, "Reference speed")."""
    def scaled(t: float, probe_s: float) -> float:
        return t * PROBE_REFERENCE_S / probe_s if scale else t

    ok = [op for p in passes for op in p if op.ok]
    times = {k: [scaled(op.wall_s, op.probe_s) for op in ok if op.kind == k]
             for k in ("train", "eval", "ood-bench", "bulk", "request")}
    theory = [[op for op in p if op.kind == "theory"] for p in passes]
    theory = [sum(scaled(op.wall_s, op.probe_s) for op in t)
              for t in theory if t and all(op.ok for op in t)]
    req_ms = sorted(1000.0 * t for t in times["request"])
    bulk = _mean(times["bulk"])
    rss = [op.maxrss_kb for p in passes for op in p] + [kb for _, kb, _ in setup]
    values = {
        "setup_s": statistics.median([scaled(t, pr) for t, _, pr in setup]),
        "train_s": _mean(times["train"]),
        "eval_s": _mean(times["eval"]),
        "ood_bench_s": _mean(times["ood-bench"]),
        "theory_s": _mean(theory),
        "request_p50_ms": statistics.median(req_ms) if req_ms else None,
        "request_p90_ms": (statistics.quantiles(req_ms, n=10, method="inclusive")[8]
                           if len(req_ms) > 1 else None),
        "predict_rows_per_s": w.bulk_rows / bulk if bulk else None,
        "peak_rss_mb": max(rss) / 1024.0,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def measured_share(ops: list[Op], kinds: tuple, names: tuple, mode: str) -> float:
    num = den = 0.0
    for op in ops:
        if op.spans and op.kind in kinds:
            den += op.wall_s
            times = (tracing.self_times(op.spans) if mode == "self"
                     else [s[2] - s[1] for s in op.spans])
            num += sum(t for s, t in zip(op.spans, times) if s[0].startswith(names))
    return num / den if den else 0.0


# --- main ----------------------------------------------------------------------


def _paired_runner(runner, pass_dir: Path, twin_dir: Path, twins: list[Op]):
    """Run each op traced in ``pass_dir`` and untraced in ``twin_dir``
    back to back, so slow drift of the machine cancels out of the overhead."""
    def run_pair(kind: str, argv: list[str]) -> Op:
        twin_argv = [a.replace(str(pass_dir), str(twin_dir)) for a in argv]
        if len(twins) % 2:
            op = runner(kind, argv, traced=True)
            twins.append(runner(kind, twin_argv, traced=False))
        else:
            twins.append(runner(kind, twin_argv, traced=False))
            op = runner(kind, argv, traced=True)
        return op
    return run_pair


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 runner=fork_op, reference: dict | None = None,
                 min_requests: int = MIN_REQUESTS) -> dict:
    """Run one workload; return the result record (metrics, ops, env).

    Untraced, passes with fresh data seeds follow each other until the run
    has made ``min_requests`` requests and the next pass is not expected to
    end within ``seconds`` (none is cut short); a workload with ``rerun``
    then reruns pass 0 without its requests and checks that every artifact
    repeats byte for byte.  Traced, one pass runs, each op paired
    with an untraced twin.
    """
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT))
    try:
        setup = []
        if not trace:
            for k in range(SETUP_REPEATS):
                setup.append(probe_setup(w, seed, work / f"setup_{k}"))
                shutil.rmtree(work / f"setup_{k}")
        import tpl.cli  # noqa: F401  (children fork from a process that has it)
        passes: list[list[Op]] = []
        reruns: list[Op] = []
        twins: list[Op] = []
        begin = time.perf_counter()
        while True:
            i = len(passes)
            inputs = work / f"inputs_{i}"
            workloads.make_inputs(w, workloads.pass_seed(seed, i), inputs)
            pass_dir = work / f"pass_{i}"
            pass_dir.mkdir()
            op_runner = probed(functools.partial(runner, traced=False))
            if trace:
                (work / "twin").mkdir()
                op_runner = _paired_runner(runner, pass_dir, work / "twin", twins)
            passes.append(run_pass(w, workloads.pass_seed(seed, i), inputs, pass_dir,
                                   op_runner, reference))
            requests = sum(op.kind == "request" for p in passes for op in p)
            elapsed = time.perf_counter() - begin
            if trace or (requests >= min_requests and elapsed * (i + 2) / (i + 1) > seconds):
                break
            if i > 0:
                shutil.rmtree(pass_dir)
                shutil.rmtree(inputs)
        if w.rerun and not trace:
            (work / "rerun").mkdir()
            reruns = run_pass(w, seed, work / "inputs_0", work / "rerun",
                              functools.partial(runner, traced=False), reference,
                              first=work / "pass_0")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_ops = [op for p in passes for op in p] + reruns + twins
    failed = [op for op in all_ops if not op.ok]
    record = {
        "workload": w.name,
        "env": environment(seed),
        "passes": len(passes),
        "pass_seeds": [workloads.pass_seed(seed, i) for i in range(len(passes))],
        "attempted": len(all_ops),
        "failed": len(failed),
        "error_rate": len(failed) / len(all_ops),
        "failures": [f"{op.kind}: {op.error}" for op in failed[:20]],
        "ops": [{"kind": op.kind, "pass": i, "wall_s": op.wall_s, "probe_s": op.probe_s,
                 "ok": op.ok}
                for i, p in enumerate(passes) for op in p],
    }
    if not trace:
        probes = [op.probe_s for p in passes for op in p] + [pr for _, _, pr in setup]
        record["setup"] = [{"wall_s": t, "probe_s": pr} for t, _, pr in setup]
        record["speed_probe"] = {"reference_s": PROBE_REFERENCE_S, "min_s": min(probes),
                                 "median_s": statistics.median(probes),
                                 "max_s": max(probes)}
        record["unscaled_metrics"] = e2e_metrics(passes, setup, w, False)
        record["metrics"] = e2e_metrics(passes, setup, w, True)
        return record
    traced = passes[0]
    overhead = sum(op.wall_s for op in traced) - sum(op.wall_s for op in twins)
    spans_ops = [{"kind": op.kind, "wall_s": op.wall_s, "spans": op.spans}
                 for op in traced if op.spans]
    summary = tracing.summarize(spans_ops)
    units = tracing.layer_metric_units()
    layers = tracing.layer_metrics(summary, overhead)
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    gap = max((abs(o["wall_s"] - o["self_sum_s"]) for o in summary["ops"]), default=0.0)
    record["trace"] = {
        "self_sum_vs_wall": {"max_abs_gap_s": gap, "trace_overhead_s": overhead,
                             "within_trace_overhead": gap <= max(overhead, 0.0)},
        "shares": [{"share": label, "predicted": want,
                    "measured": measured_share(traced, kinds, names, mode)}
                   for label, want, kinds, names, mode in PREDICTED_SHARES.get(w.name, [])],
        "functions": summary["functions"],
    }
    record["spans"] = spans_ops
    return record


def result_line(record: dict) -> str:
    return json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": record["metrics"]})


def print_summary(record: dict) -> None:
    print(f"workload {record['workload']}: {record['attempted']} ops in "
          f"{record['passes']} pass(es), error_rate {record['error_rate']:.4f} (fraction)")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    if "trace" in record:
        t = record["trace"]
        for row in t["shares"]:
            print(f"share {row['share']}: measured {row['measured']:.3f}, "
                  f"predicted {row['predicted']:.2f}")
        print(f"self-time sum vs traced op wall: {t['self_sum_vs_wall']}")
    if "speed_probe" in record:
        probe = record["speed_probe"]
        print(f"speed probe {1000 * probe['median_s']:.3f} ms median "
              f"({1000 * probe['min_s']:.3f}-{1000 * probe['max_s']:.3f}), "
              f"reference {1000 * probe['reference_s']:.3f} ms; "
              "metrics at the reference speed, unscaled in brackets")
    unscaled = record.get("unscaled_metrics", {})
    for name, m in record["metrics"].items():
        if "trace" not in record or name.endswith(("self_s", "share", "overhead_s")):
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            raw = unscaled.get(name, {}).get("value")
            raw = "" if raw is None or raw == m["value"] else f"  [{raw:.6g}]"
            print(f"{name:<44s} {value:>14s} {m['unit']}{raw}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="passes repeat while the next is expected to end in time; "
                             "one pass always runs in full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        record = run_workload(w, args.seed, args.seconds, bool(args.trace),
                              reference=load_reference(w.name))
    except (ImportError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spans = record.pop("spans", None)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if spans is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans), encoding="utf-8")
    print_summary(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
