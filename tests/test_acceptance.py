"""Acceptance gate: eleven independently checkable claims, one test each.

Each test measures its claim at the stated tolerance, appends a PASS/FAIL
line to the shared registry in ``conftest`` (printed in the terminal
summary), and asserts.  Heavy artifacts — the 5-task benchmark runs over
five seeds, the joint-training reference, the half-buffer runs — are
session-scoped fixtures shared across criteria.

Benchmark geometry: 5 tasks x 2 classes, dim 16, separation 6, 200 train
and 100 test samples per class.
"""

import json
import math
import time

import numpy as np
import pytest

import conftest
from tpl import cli, data, evaluation, hat_mlp, scoring, theory_lab, trainer
from tpl.numerics import RngState, log_sum_exp, softmax, spd_inverse, stable_mean
from tpl.trainer import TrainConfig, clone_config

SEEDS = (1, 2, 3, 4, 5)
BENCH_SEED = 1

#: oracle AUC margins of the log-likelihood-ratio score over each alternative,
#: frozen from the quadrature oracle (values also pinned in test_theory_lab).
FROZEN_MARGINS = {
    ("narrow_impostor", "p_t_only"): 0.8730979302,
    ("narrow_impostor", "mean_difference"): 0.4365489651,
    ("mean_shift", "p_t_only"): 0.0662780833,
    ("mean_shift", "mean_difference"): 0.0,
    ("offset_widths", "p_t_only"): 0.3602997837,
    ("offset_widths", "mean_difference"): 0.1012193455,
}

TIMINGS: dict[str, float] = {}


def record(num: int, label: str, ok: bool, detail: str) -> None:
    conftest.ACCEPTANCE_RESULTS.append((num, label, bool(ok), detail))
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {label}: {detail}"
    print(line)
    assert ok, line


def bench_stream(seed: int) -> data.TaskStream:
    return data.generate_gaussian_stream(
        n_tasks=5, classes_per_task=2, dim=16, separation=6.0,
        samples_per_class_train=200, samples_per_class_test=100,
        rng=RngState(seed),
    )


def last_cil(run: trainer.RunArtifacts, stream: data.TaskStream, kind: str) -> float:
    """Final-checkpoint class-incremental accuracy, uncalibrated context."""
    classes = run.task_classes
    ctx = scoring.build_context(run.net, run.stats, run.buffer, run.config,
                                classes, calibration=None)
    return evaluation.cil_accuracy(ctx, stream.tasks, kind)


@pytest.fixture(scope="session")
def bench_cfg() -> TrainConfig:
    return TrainConfig()


@pytest.fixture(scope="session")
def bench_run(bench_cfg):
    start = time.perf_counter()
    run = trainer.run_sequence(bench_stream(BENCH_SEED), bench_cfg, BENCH_SEED)
    TIMINGS["bench_run"] = time.perf_counter() - start
    return run


@pytest.fixture(scope="session")
def seed_runs(bench_cfg, bench_run):
    start = time.perf_counter()
    runs = {BENCH_SEED: bench_run}
    for seed in SEEDS[1:]:
        runs[seed] = trainer.run_sequence(bench_stream(seed), bench_cfg, seed)
    TIMINGS["seed_runs"] = time.perf_counter() - start
    return runs


@pytest.fixture(scope="session")
def half_buffer_runs(bench_cfg):
    cfg = clone_config(bench_cfg, buffer_capacity=bench_cfg.buffer_capacity // 2)
    start = time.perf_counter()
    runs = {
        seed: trainer.run_sequence(bench_stream(seed), cfg, seed, calibrate=False)
        for seed in SEEDS
    }
    TIMINGS["half_buffer_runs"] = time.perf_counter() - start
    return runs


@pytest.fixture(scope="session")
def ncl_ref(bench_cfg):
    return evaluation.build_ncl_reference(bench_stream(BENCH_SEED), bench_cfg,
                                          BENCH_SEED)


def test_criterion_01_counterexample_endpoints():
    start = time.perf_counter()
    pair = theory_lab.narrow_impostor_pair()
    at_zero = theory_lab.log_likelihood_ratio(pair, 0.0)
    at_one = theory_lab.log_likelihood_ratio(pair, 1.0)
    err0 = abs(at_zero - math.log(0.1))
    err1 = abs(at_one - (math.log(0.1) + 49.5))
    elapsed = time.perf_counter() - start
    ok = err0 <= 1e-9 and err1 <= 1e-9 and elapsed < 1.0
    record(1, "log-ratio endpoints exact",
           ok, f"|err(0)|={err0:.2e} |err(1)|={err1:.2e} in {elapsed:.2f}s")


def test_criterion_02_ratio_score_dominance():
    start = time.perf_counter()
    worst_margin_err = 0.0
    worst_emp_gap = 0.0
    min_margin = np.inf
    for name, pair in theory_lab.FIXTURE_PAIRS.items():
        pair = theory_lab.GaussianPair(pair.mean_t, pair.var_t, pair.mean_c,
                                       pair.var_c, n_samples=100_000, seed=0)
        oracle = {s: theory_lab.oracle_auc(pair, s)
                  for s in ("lr", "p_t_only", "mean_difference")}
        for alt in ("p_t_only", "mean_difference"):
            margin = oracle["lr"] - oracle[alt]
            min_margin = min(min_margin, margin)
            worst_margin_err = max(
                worst_margin_err, abs(margin - FROZEN_MARGINS[(name, alt)])
            )
        for scorer, value in oracle.items():
            emp = theory_lab.empirical_auc(pair, scorer)
            worst_emp_gap = max(worst_emp_gap, abs(emp - value))
    elapsed = time.perf_counter() - start
    ok = (min_margin >= -1e-9 and worst_margin_err <= 1e-8
          and worst_emp_gap <= 0.005 and elapsed < 30.0)
    record(2, "ratio score dominates on all fixture pairs", ok,
           f"min margin {min_margin:+.4f}, margin drift {worst_margin_err:.2e}, "
           f"max |empirical-oracle| {worst_emp_gap:.4f} in {elapsed:.1f}s")


def test_criterion_03_operating_point():
    start = time.perf_counter()
    pair = theory_lab.narrow_impostor_pair(n_samples=100_000, seed=0)
    threshold = theory_lab.lr_threshold_for_type1(pair, 0.05)
    rate = theory_lab.empirical_type1_rate(pair, threshold)
    elapsed = time.perf_counter() - start
    ok = 0.04 <= rate <= 0.06 and elapsed < 10.0
    record(3, "threshold hits the 5% false-alarm point", ok,
           f"empirical rate {rate:.5f} at n=1e5 in {elapsed:.1f}s")


def test_criterion_04_interference_freedom(bench_run, bench_cfg):
    start = time.perf_counter()
    stream = bench_stream(BENCH_SEED)
    max_til_drift = 0.0
    max_logit_drift = 0.0
    classes_final = {t: stream.task(t).classes for t in bench_run.task_ids()}
    ctx_final = scoring.build_context(bench_run.net, bench_run.stats,
                                      bench_run.buffer, bench_cfg,
                                      classes_final, calibration=None)
    for cp in bench_run.checkpoints:
        t = cp.task_id
        ds = stream.task(t)
        classes_then = {u: stream.task(u).classes for u in sorted(cp.stats)}
        ctx_then = scoring.build_context(cp.net, cp.stats, cp.buffer, bench_cfg,
                                         classes_then, calibration=None)
        til_then = evaluation.til_accuracy(ctx_then, t, ds)
        til_final = evaluation.til_accuracy(ctx_final, t, ds)
        max_til_drift = max(max_til_drift, abs(til_final - til_then))
        _, logits_then = hat_mlp.forward(cp.net, ds.test_x, t)
        _, logits_final = hat_mlp.forward(bench_run.net, ds.test_x, t)
        max_logit_drift = max(
            max_logit_drift, float(np.max(np.abs(logits_final - logits_then)))
        )
    elapsed = TIMINGS["bench_run"] + time.perf_counter() - start
    ok = max_til_drift <= 0.002 and max_logit_drift <= 1e-3 and elapsed < 180.0
    record(4, "finished tasks are untouched by later ones", ok,
           f"TIL drift {max_til_drift:.2e}, logit drift {max_logit_drift:.2e} "
           f"in {elapsed:.0f}s")


def test_criterion_05_ablation_ordering(seed_runs):
    start = time.perf_counter()
    accs = {kind: [] for kind in ("tpl", "lr", "mls")}
    for seed in SEEDS:
        for kind in accs:
            accs[kind].append(last_cil(seed_runs[seed], bench_stream(seed), kind))
    means = {kind: stable_mean(v) for kind, v in accs.items()}
    worst_inversion = 0.0
    for seed_idx in range(len(SEEDS)):
        for hi, lo in (("tpl", "lr"), ("lr", "mls")):
            worst_inversion = max(
                worst_inversion, accs[lo][seed_idx] - accs[hi][seed_idx]
            )
    elapsed = (TIMINGS["bench_run"] + TIMINGS["seed_runs"]
               + time.perf_counter() - start)
    ok = (means["tpl"] >= means["lr"] >= means["mls"]
          and worst_inversion <= 0.005 and elapsed < 900.0)
    record(5, "composite >= ratio-only >= logit-only over 5 seeds", ok,
           f"means {means['tpl']:.4f} >= {means['lr']:.4f} >= {means['mls']:.4f}, "
           f"worst per-seed inversion {worst_inversion:.4f} in {elapsed:.0f}s")


def test_criterion_06_forgetting_identity(bench_run, ncl_ref):
    trajectory, per_task = evaluation.accuracy_trajectory(bench_run, bench_stream(BENCH_SEED), "tpl")
    f_last, _ = evaluation.forgetting_rates(per_task, ncl_ref)
    final = bench_run.task_ids()[-1]
    gap = abs(f_last - (ncl_ref.pooled[final] - trajectory[-1]))
    ok = gap <= 1e-12
    record(6, "forgetting rate equals the reference-accuracy gap", ok,
           f"identity residual {gap:.2e}")


def test_criterion_07_trajectory_mean_consistency(bench_run, ncl_ref):
    run = bench_run
    report = evaluation.compute_report(run, bench_stream(BENCH_SEED), ncl_ref)
    gap = abs(report.a_aia - stable_mean(report.trajectory))
    ok = gap <= 1e-12
    record(7, "average incremental accuracy is the trajectory mean", ok,
           f"residual {gap:.2e}")


def test_criterion_08_oracle_equivalence():
    rng = np.random.default_rng(8)
    n_instances = 1000
    worst = {"lse": 0.0, "softmax": 0.0, "auc": 0.0, "knn": 0.0, "md": 0.0}

    for _ in range(n_instances):
        v = rng.uniform(-30.0, 30.0, size=rng.integers(1, 9))
        oracle_lse = math.log(math.fsum(math.exp(x) for x in v))
        worst["lse"] = max(worst["lse"], abs(log_sum_exp(v) - oracle_lse))
        tau = float(rng.uniform(0.05, 2.0))
        weights = [math.exp(x / tau) for x in (v - v.max())]
        oracle_soft = np.array(weights) / math.fsum(weights)
        worst["softmax"] = max(
            worst["softmax"], float(np.max(np.abs(softmax(v, tau) - oracle_soft)))
        )

    for _ in range(n_instances):
        n_in = int(rng.integers(1, 30))
        n_out = int(rng.integers(1, 30))
        if rng.random() < 0.5:  # force ties through a coarse grid
            a = rng.integers(0, 4, size=n_in).astype(float)
            b = rng.integers(0, 4, size=n_out).astype(float)
        else:
            a = rng.normal(size=n_in)
            b = rng.normal(size=n_out)
        oracle = float(np.mean((a[:, None] > b[None, :])
                               + 0.5 * (a[:, None] == b[None, :])))
        worst["auc"] = max(worst["auc"], abs(evaluation.ood_auc(a, b) - oracle))

    for _ in range(n_instances):
        d = int(rng.integers(2, 6))
        n_index = int(rng.integers(1, 12))
        k = int(rng.integers(1, 7))
        queries = rng.normal(size=(int(rng.integers(1, 4)), d))
        index = rng.normal(size=(n_index, d))
        qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        bn = index / np.linalg.norm(index, axis=1, keepdims=True)
        got = scoring.knn_kth_distance(queries, index, k)
        for i in range(qn.shape[0]):
            dists = np.sort(np.sqrt(np.sum((qn[i] - bn) ** 2, axis=1)))
            oracle = dists[min(k, n_index) - 1]
            worst["knn"] = max(worst["knn"], abs(float(got[i]) - oracle))

    for _ in range(n_instances):
        d = int(rng.integers(2, 6))
        n_classes = int(rng.integers(1, 5))
        b = rng.normal(size=(d, d))
        cov = b @ b.T + (0.5 + rng.random()) * np.eye(d)
        means = rng.normal(scale=3.0, size=(n_classes, d))
        stats = trainer.TaskStats(1, means, spd_inverse(cov), 1.0, 1.0)
        probe = means[int(rng.integers(n_classes))] + rng.normal(size=d)
        diffs = probe[None, :] - means
        d2 = np.array([float(diff @ np.linalg.solve(cov, diff)) for diff in diffs])
        oracle = 1.0 / max(float(d2.min()), 1e-12)
        got = float(scoring.md_score(probe[None, :], stats)[0])
        worst["md"] = max(worst["md"], abs(got - oracle))

    ok = (worst["lse"] <= 1e-9 and worst["softmax"] <= 1e-9
          and worst["auc"] <= 1e-9 and worst["knn"] <= 1e-9
          and worst["md"] <= 1e-6)
    record(8, "score primitives match brute-force oracles", ok,
           f"max errors lse {worst['lse']:.1e}, softmax {worst['softmax']:.1e}, "
           f"auc {worst['auc']:.1e}, knn {worst['knn']:.1e}, md {worst['md']:.1e} "
           f"over {n_instances} instances each")


def test_criterion_09_density_rank_agreement():
    stream = data.generate_gaussian_stream(
        n_tasks=1, classes_per_task=3, dim=6, separation=6.0,
        samples_per_class_train=667, samples_per_class_test=0,
        rng=RngState(100),
    )
    dataset = stream.tasks[0]
    stats = theory_lab.fit_raw_feature_stats(dataset)
    check = theory_lab.density_estimator_check(dataset, stats, n_probes=500)
    ok = check.md_spearman == 1.0
    record(9, "distance score ranks exactly like the max-class density", ok,
           f"Spearman {check.md_spearman} on {check.n_used_md} kept probes")


def test_criterion_10_bitwise_determinism(tmp_path_factory):
    start = time.perf_counter()
    root = tmp_path_factory.mktemp("determinism")
    config = {
        "schema_version": 1,
        "seed": BENCH_SEED,
        "calibrate": True,
        "dataset": {
            "kind": "synthetic", "n_tasks": 5, "classes_per_task": 2,
            "dim": 16, "separation": 6.0,
            "train_per_class": 200, "test_per_class": 100,
        },
        "training": {},
    }
    blobs = []
    for name in ("first", "second"):
        run_dir = root / name
        cfg_path = root / f"{name}.json"
        cfg_path.write_text(json.dumps({**config, "out_dir": str(run_dir)}))
        assert cli.main(["train", "--config", str(cfg_path), "--quiet"]) == 0
        assert cli.main(["eval", "--run", str(run_dir), "--quiet"]) == 0
        blobs.append((run_dir / "metrics.json").read_bytes())
    elapsed = time.perf_counter() - start
    ok = blobs[0] == blobs[1]
    record(10, "train+eval rerun reproduces metrics byte-for-byte", ok,
           f"{len(blobs[0])} bytes compared in {elapsed:.0f}s")


def test_criterion_11_replay_size_robustness(seed_runs, half_buffer_runs):
    tpl_half = stable_mean([last_cil(half_buffer_runs[s], bench_stream(s), "tpl") for s in SEEDS])
    mls_full = stable_mean([last_cil(seed_runs[s], bench_stream(s), "mls") for s in SEEDS])
    ok = tpl_half >= mls_full
    record(11, "half-buffer composite still beats full-buffer logit-only", ok,
           f"composite@half {tpl_half:.4f} >= logit-only@full {mls_full:.4f} "
           f"over {len(SEEDS)} seeds")
