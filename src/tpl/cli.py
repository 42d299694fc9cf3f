"""Command-line front end: one entry point binding data generation, training,
evaluation, prediction, detector benchmarking, the analytic Gaussian checks,
and feature dumps.

Run directories are self-describing: ``config.json`` plus the artifacts below
reproduce every downstream command without retraining.

    config.json       resolved run configuration (schema-versioned)
    model.bin         network weights/embeddings/masks, versioned binary
    stats/task_T.json per-task centroids, covariance, score rates
    buffer.csv        replay samples: label, features..., source task
    trajectory.json   accuracy trajectory captured during training
    calibration.json  per-task affine output calibration

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import struct
import sys
from pathlib import Path

import numpy as np

from . import data, evaluation, hat_mlp, scoring, theory_lab, trainer
from .calibration import CalibrationParams
from .errors import (
    ConfigError,
    DegenerateVariance,
    DimensionMismatch,
    EmptyTestSet,
    ParseError,
    TplError,
)
from .evaluation import NclReference
from .numerics import RngState
from .trainer import (
    ReplayBuffer, RunArtifacts, TaskStats, TrainConfig, check_int, check_real,
)

SCHEMA_VERSION = 1

_MODEL_MAGIC = b"TPLM"
_MODEL_VERSION = 1

# Config files and reports speak the published variant tokens; internally the
# soft-min composition keeps its descriptive name.
_VARIANT_FROM_TOKEN = {"canonical": "canonical", "algorithm1": "softmin",
                       "softmin": "softmin"}
_VARIANT_TO_TOKEN = {"canonical": "canonical", "softmin": "algorithm1"}

_TOP_KEYS = {"schema_version", "seed", "out_dir", "calibrate", "dataset", "training"}
_SYNTHETIC_KEYS = {"kind", "n_tasks", "classes_per_task", "dim", "separation",
                   "train_per_class", "test_per_class", "covariance_diag"}
_MANIFEST_KEYS = {"kind", "path"}

_BENCH_ROWS = (
    ("MSP", "msp"), ("MLS", "mls"), ("EBO", "ebo"), ("MD", "md"),
    ("KNN", "knn"), ("TPL-canonical", "tpl"), ("TPL-algorithm1", "tpl"),
)

_THEORY_CASES = ("sec41", "dominance", "density")
_DENSITY_FIXTURE_SEED = 100  # data draw for the density case; probes use --seed


@dataclasses.dataclass
class RunConfig:
    """Everything a run needs beyond the training hyperparameters."""

    training: TrainConfig
    dataset: dict
    seed: int = 0
    out_dir: str | None = None
    calibrate: bool = True


def _fmt(v: float) -> str:
    """Shortest decimal that round-trips the exact float."""
    return repr(float(v))


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _say(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message)


# --- configuration -----------------------------------------------------------


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed: {sorted(allowed)}")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return obj[key]


def _check_positive(name: str, v) -> None:
    check_real(name, v)
    if v <= 0:
        raise ValueError(f"{name} must be > 0, got {v!r}")


def _validate_dataset(d, base_dir: Path) -> dict:
    if not isinstance(d, dict):
        raise ConfigError("dataset: must be an object")
    kind = _require(d, "kind", "dataset")
    if kind == "synthetic":
        _check_keys(d, _SYNTHETIC_KEYS, "dataset")
        out = {"kind": "synthetic"}
        try:
            for key in ("n_tasks", "classes_per_task", "dim", "train_per_class"):
                out[key] = _require(d, key, "dataset")
                check_int(key, out[key], 1)
            out["test_per_class"] = d.get("test_per_class", 0)
            check_int("test_per_class", out["test_per_class"], 0)
            sep = _require(d, "separation", "dataset")
            _check_positive("separation", sep)
            out["separation"] = float(sep)
            cov = d.get("covariance_diag")
            if cov is not None:
                if not isinstance(cov, list) or len(cov) != out["dim"]:
                    raise ValueError(f"covariance_diag must be a list of {out['dim']} numbers")
                for i, v in enumerate(cov):
                    _check_positive(f"covariance_diag[{i}]", v)
                cov = [float(v) for v in cov]
            out["covariance_diag"] = cov
        except ValueError as exc:
            raise ConfigError(f"dataset: {exc}") from exc
        return out
    if kind == "manifest":
        _check_keys(d, _MANIFEST_KEYS, "dataset")
        path = _require(d, "path", "dataset")
        if not isinstance(path, str):
            raise ConfigError("dataset.path: need a string")
        resolved = Path(path)
        if not resolved.is_absolute():
            resolved = (base_dir / resolved).resolve()
        return {"kind": "manifest", "path": str(resolved)}
    raise ConfigError(f"dataset.kind: expected 'synthetic' or 'manifest', got {kind!r}")


def _validate_training(d) -> TrainConfig:
    if d is None:
        d = {}
    if not isinstance(d, dict):
        raise ConfigError("training: must be an object")
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    _check_keys(d, fields, "training")
    kwargs = dict(d)
    if "score_variant" in kwargs:
        token = kwargs["score_variant"]
        if not isinstance(token, str) or token not in _VARIANT_FROM_TOKEN:
            raise ConfigError(
                f"training.score_variant: expected one of "
                f"{sorted(_VARIANT_FROM_TOKEN)}, got {token!r}"
            )
        kwargs["score_variant"] = _VARIANT_FROM_TOKEN[token]
    if "hidden_widths" in kwargs:
        widths = kwargs["hidden_widths"]
        if not isinstance(widths, list) or not widths:
            raise ConfigError("training.hidden_widths: need a non-empty list")
        kwargs["hidden_widths"] = tuple(widths)
    try:
        cfg = TrainConfig(**kwargs)
        cfg.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"training: {exc}") from exc
    return cfg


def parse_run_config(text: str, base_dir: Path, source: str = "config") -> RunConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be an object")
    _check_keys(raw, _TOP_KEYS, source)
    version = _require(raw, "schema_version", source)
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{source}: schema_version {version!r} not supported "
            f"(this build reads {SCHEMA_VERSION})"
        )
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"{source}: seed must be a non-negative integer")
    calibrate = raw.get("calibrate", True)
    if not isinstance(calibrate, bool):
        raise ConfigError(f"{source}: calibrate must be true or false")
    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"{source}: out_dir must be a string")
    dataset = _validate_dataset(_require(raw, "dataset", source), base_dir)
    training = _validate_training(raw.get("training"))
    return RunConfig(training=training, dataset=dataset, seed=seed,
                     out_dir=out_dir, calibrate=calibrate)


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_run_config(text, path.parent.resolve(), source=str(path))


def run_config_payload(rc: RunConfig) -> dict:
    training = dataclasses.asdict(rc.training)
    training["score_variant"] = _VARIANT_TO_TOKEN[rc.training.score_variant]
    training["hidden_widths"] = list(rc.training.hidden_widths)
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": rc.seed,
        "out_dir": rc.out_dir,
        "calibrate": rc.calibrate,
        "dataset": rc.dataset,
        "training": training,
    }


def build_stream(rc: RunConfig) -> data.TaskStream:
    d = rc.dataset
    if d["kind"] == "synthetic":
        cov = d.get("covariance_diag")
        return data.generate_gaussian_stream(
            n_tasks=d["n_tasks"],
            classes_per_task=d["classes_per_task"],
            dim=d["dim"],
            separation=d["separation"],
            samples_per_class_train=d["train_per_class"],
            samples_per_class_test=d["test_per_class"],
            rng=RngState(rc.seed),
            covariance_diag=None if cov is None else np.array(cov, dtype=np.float64),
        )
    return data.load_feature_stream(d["path"])


# --- model serialization -----------------------------------------------------


def _model_arrays(net: hat_mlp.HatMlp) -> list[tuple[str, np.ndarray]]:
    out: list[tuple[str, np.ndarray]] = []
    for l, w in enumerate(net.weights):
        out.append((f"weights.{l}", w))
    for l, b in enumerate(net.biases):
        out.append((f"biases.{l}", b))
    for l, m in enumerate(net.past_masks):
        out.append((f"past_masks.{l}", m))
    for t in net.task_ids():
        for l, e in enumerate(net.embeddings[t]):
            out.append((f"embeddings.{t}.{l}", e))
        out.append((f"head_weight.{t}", net.heads[t].weight))
        out.append((f"head_bias.{t}", net.heads[t].bias))
    return out


def save_model(path: Path, net: hat_mlp.HatMlp) -> None:
    arrays = _model_arrays(net)
    header = {
        "input_dim": net.input_dim,
        "hidden_widths": list(net.hidden_widths),
        "s_max": net.s_max,
        "n_past_masks": len(net.past_masks),
        "tasks": {str(t): net.heads[t].n_classes for t in net.task_ids()},
        "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(struct.pack("<I", _MODEL_VERSION))
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_model(path: Path) -> hat_mlp.HatMlp:
    raw = path.read_bytes()
    if raw[:4] != _MODEL_MAGIC:
        raise ParseError(f"{path}: not a model file (bad magic)")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != _MODEL_VERSION:
        raise ParseError(f"{path}: unsupported model version {version}")
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16:16 + header_len].decode("utf-8"))
    offset = 16 + header_len
    loaded: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        loaded[entry["name"]] = arr.reshape(shape).astype(np.float64)
        offset += count * 8
    widths = tuple(header["hidden_widths"])
    n_layers = len(widths)
    net = hat_mlp.HatMlp(
        input_dim=header["input_dim"],
        hidden_widths=widths,
        s_max=header["s_max"],
        weights=[loaded[f"weights.{l}"] for l in range(n_layers)],
        biases=[loaded[f"biases.{l}"] for l in range(n_layers)],
        past_masks=[loaded[f"past_masks.{l}"]
                    for l in range(header["n_past_masks"])],
    )
    for key, n_classes in sorted(header["tasks"].items(), key=lambda kv: int(kv[0])):
        t = int(key)
        net.embeddings[t] = [loaded[f"embeddings.{t}.{l}"] for l in range(n_layers)]
        net.heads[t] = hat_mlp.TaskHead(
            n_classes=int(n_classes),
            weight=loaded[f"head_weight.{t}"],
            bias=loaded[f"head_bias.{t}"],
        )
    return net


# --- run-directory persistence ----------------------------------------------


def _write_buffer_csv(path: Path, buffer: ReplayBuffer | None) -> None:
    lines = []
    if buffer is not None:
        for c in buffer.order:
            task = buffer.task_of[c]
            for row in buffer.store[c]:
                cells = [str(int(c))] + [_fmt(v) for v in row] + [str(int(task))]
                lines.append(",".join(cells))
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _read_buffer_csv(path: Path, capacity: int) -> ReplayBuffer:
    values, labels, linenos = data._read_rows(path, None)
    buffer = ReplayBuffer(capacity)
    if values.shape[0] == 0:
        return buffer
    feats, tasks = values[:, :-1], values[:, -1]
    bad = np.flatnonzero(tasks != np.floor(tasks))
    if feats.shape[1] == 0 or bad.size:
        line = linenos[bad[0] if bad.size else 0]
        raise ParseError(f"{path}:{line}: need label, features and an integer task")
    for label in dict.fromkeys(labels.tolist()):
        rows = labels == label
        buffer.order.append(label)
        buffer.task_of[label] = int(tasks[rows][0])
        buffer.store[label] = feats[rows]
    return buffer


def _stats_payload(stats: TaskStats) -> dict:
    covariance = np.linalg.inv(stats.precision)
    return {
        "task_id": stats.task_id,
        "class_means": stats.class_means.tolist(),
        "precision": stats.precision.tolist(),
        "covariance": covariance.tolist(),
        "beta_mls": stats.beta_mls,
        "beta_md": stats.beta_md,
    }


def _stats_from_payload(payload: dict) -> TaskStats:
    return TaskStats(
        task_id=int(payload["task_id"]),
        class_means=np.array(payload["class_means"], dtype=np.float64),
        precision=np.array(payload["precision"], dtype=np.float64),
        beta_mls=float(payload["beta_mls"]),
        beta_md=float(payload["beta_md"]),
    )


def save_run(run: RunArtifacts, rc: RunConfig, out: Path, trajectory: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "stats").mkdir(exist_ok=True)
    (out / "config.json").write_text(_dump_json(run_config_payload(rc)),
                                     encoding="utf-8")
    save_model(out / "model.bin", run.net)
    for t in sorted(run.stats):
        (out / "stats" / f"task_{t}.json").write_text(
            _dump_json(_stats_payload(run.stats[t])), encoding="utf-8"
        )
    _write_buffer_csv(out / "buffer.csv", run.buffer)
    (out / "trajectory.json").write_text(_dump_json(trajectory), encoding="utf-8")
    if run.calibration:
        params = CalibrationParams(sigma=dict(run.calibration))
    else:
        params = CalibrationParams.identity(run.task_ids())
    (out / "calibration.json").write_text(
        _dump_json(params.as_records()), encoding="utf-8"
    )


def load_run(run_dir) -> tuple[RunArtifacts, RunConfig]:
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise ConfigError(f"run directory {run_dir} does not exist")
    rc = load_run_config(run_dir / "config.json")
    stream = build_stream(rc)
    net = load_model(run_dir / "model.bin")
    stats: dict[int, TaskStats] = {}
    for path in sorted((run_dir / "stats").glob("task_*.json")):
        st = _stats_from_payload(json.loads(path.read_text(encoding="utf-8")))
        stats[st.task_id] = st
    buffer = _read_buffer_csv(run_dir / "buffer.csv", rc.training.buffer_capacity)
    records = json.loads((run_dir / "calibration.json").read_text(encoding="utf-8"))
    calibration = CalibrationParams.from_records(records).sigma
    run = RunArtifacts(
        config=rc.training,
        stream=stream,
        seed=rc.seed,
        net=net,
        stats=stats,
        buffer=buffer,
        calibration=calibration,
    )
    return run, rc


def _load_trajectory(run_dir: Path) -> tuple[list[float], dict[int, dict[int, float]]]:
    """The (trajectory, per-task matrix) pair stored at train time."""
    payload = json.loads((run_dir / "trajectory.json").read_text(encoding="utf-8"))
    per_task = {
        int(t): {int(i): float(v) for i, v in row.items()}
        for t, row in payload.get("per_task", {}).items()
    }
    return [float(v) for v in payload.get("trajectory", [])], per_task


# --- subcommands -------------------------------------------------------------


def cmd_train(args) -> int:
    rc = load_run_config(args.config)
    seed = getattr(args, "seed", None)
    if seed is not None:
        rc.seed = seed
    out = getattr(args, "out", None) or rc.out_dir
    if out is None:
        raise ConfigError("no output directory: set out_dir in the config or --out")
    rc.out_dir = str(out)
    stream = build_stream(rc)
    run = trainer.run_sequence(stream, rc.training, rc.seed, calibrate=rc.calibrate)

    has_tests = all(d.test_x.shape[0] > 0 for d in stream.tasks)
    payload: dict = {"score_kind": "tpl", "calibrated": rc.calibrate,
                     "trajectory": [], "per_task": {}, "til": {}}
    if has_tests:
        trajectory, per_task = evaluation.accuracy_trajectory(
            run, "tpl", calibrated=rc.calibrate
        )
        ctx = scoring.context_from_run(run, calibrated=rc.calibrate)
        payload["trajectory"] = trajectory
        payload["per_task"] = {
            str(t): {str(i): v for i, v in sorted(row.items())}
            for t, row in sorted(per_task.items())
        }
        payload["til"] = {
            str(d.task_id): evaluation.til_accuracy(ctx, d.task_id, d)
            for d in stream.tasks
        }
    save_run(run, rc, Path(out), payload)
    if has_tests:
        for t, acc in zip(run.task_ids(), payload["trajectory"]):
            _say(args, f"A<={t} {acc:.6f}")
    else:
        _say(args, "no test samples; trajectory skipped")
    _say(args, f"run written to {out}")
    return 0


def _ncl_reference(ncl_dir: Path, stream, rc: RunConfig) -> NclReference:
    """Train the joint reference, or reuse a cached result for this config."""
    fingerprint = hashlib.sha256(
        _dump_json({"dataset": rc.dataset, "seed": rc.seed,
                    "training": run_config_payload(rc)["training"]}).encode("utf-8")
    ).hexdigest()[:16]
    ncl_dir.mkdir(parents=True, exist_ok=True)
    cache = ncl_dir / f"ncl-{fingerprint}.json"
    if cache.exists():
        payload = json.loads(cache.read_text(encoding="utf-8"))
        return NclReference(
            per_task={int(t): {int(i): float(v) for i, v in row.items()}
                      for t, row in payload["per_task"].items()},
            pooled={int(t): float(v) for t, v in payload["pooled"].items()},
        )
    ncl = evaluation.build_ncl_reference(stream, rc.training, rc.seed)
    cache.write_text(_dump_json({
        "per_task": {str(t): {str(i): v for i, v in sorted(row.items())}
                     for t, row in sorted(ncl.per_task.items())},
        "pooled": {str(t): v for t, v in sorted(ncl.pooled.items())},
    }), encoding="utf-8")
    return ncl


def cmd_eval(args) -> int:
    run_dir = Path(args.run)
    run, rc = load_run(run_dir)
    stored = _load_trajectory(run_dir)
    if not stored[0]:
        raise EmptyTestSet("run has no stored trajectory (trained without tests)")
    ncl_dir = getattr(args, "ncl", None)
    ncl = None if ncl_dir is None else _ncl_reference(Path(ncl_dir), run.stream, rc)
    report = evaluation.compute_report(
        run, ncl, calibrated=rc.calibrate, trajectory=stored
    )
    out = Path(getattr(args, "out", None) or run_dir / "metrics.json")
    out.write_text(_dump_json(report.as_dict()), encoding="utf-8")
    _say(args, f"A_last {report.a_last:.6f}")
    _say(args, f"AIA    {report.a_aia:.6f}")
    if report.ood_mean is not None:
        _say(args, f"detection AUC mean {report.ood_mean:.6f}")
    if report.f_cil_last is not None:
        _say(args, f"forgetting last {report.f_cil_last:.6f}  "
                   f"trajectory {report.f_cil_aia:.6f}")
    _say(args, f"metrics written to {out}")
    return 0


def cmd_predict(args) -> int:
    run, rc = load_run(Path(args.run))
    x, _labels = data._read_feature_file(Path(args.input), None)
    if x.shape[1] != run.net.input_dim:
        raise DimensionMismatch(
            f"input features have dim {x.shape[1]}, model expects {run.net.input_dim}"
        )
    ctx = scoring.context_from_run(run, calibrated=rc.calibrate)
    preds = scoring.predict(ctx, x, score_kind="tpl")
    token = _VARIANT_TO_TOKEN[rc.training.score_variant]
    lines = ["row,predicted_class,predicted_task,p_task,score_variant"]
    for i in range(x.shape[0]):
        lines.append(
            f"{i},{int(preds.global_class[i])},{int(preds.task_id[i])},"
            f"{_fmt(preds.p_task[i])},{token}"
        )
    out = Path(args.output)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _say(args, f"{x.shape[0]} predictions written to {out}")
    return 0


def cmd_ood_bench(args) -> int:
    run_dir = Path(args.run)
    run, _rc = load_run(run_dir)
    # Score kinds are compared uncalibrated on a shared model so each row
    # differs only in the task-id score.  The variants share one context's
    # KNN indexes, and the score bundle depends on neither the score kind nor
    # the variant, so one bundle over the pooled test rows serves every row.
    shared = scoring.context_from_run(run, calibrated=False)
    bundle = scoring.compute_bundle(
        shared, np.concatenate([d.test_x for d in run.stream.tasks])
    )
    single = len(run.stream) == 1
    scores: dict[str, dict] = {}
    pairs: list[tuple[float, float]] = []
    for label, kind in _BENCH_ROWS:
        variant = "softmin" if label == "TPL-algorithm1" else "canonical"
        ctx = dataclasses.replace(shared, variant=variant)
        acc = evaluation.cil_accuracy(ctx, run.stream.tasks, kind, bundle=bundle)
        if single:
            per_task, mean_auc = {}, None
        else:
            aucs, mean_auc = evaluation.task_ood_aucs(
                ctx, run.stream, kind, bundle=bundle
            )
            per_task = {str(t): v for t, v in sorted(aucs.items())}
            pairs.append((mean_auc, acc))
        scores[label] = {
            "auc_per_task": per_task,
            "auc_mean": mean_auc,
            "cil_last_acc": acc,
        }
    r = slope = None
    if not single:
        try:
            r, slope = evaluation.auc_acc_correlation(pairs)
        except DegenerateVariance:
            pass  # all rows tied on one axis: leave the fit fields null
    report = {
        "calibration": "off",
        "auc_applicable": not single,
        "scores": scores,
        "pearson_r": r,
        "slope": slope,
    }
    out = Path(getattr(args, "out", None) or run_dir / "ood_bench.json")
    out.write_text(_dump_json(report), encoding="utf-8")
    scatter = Path(args.scatter or run_dir / "ood_scatter.csv")
    rows = ["score,auc_mean,cil_last_acc"]
    for label, _ in _BENCH_ROWS:
        entry = scores[label]
        auc_cell = "" if entry["auc_mean"] is None else _fmt(entry["auc_mean"])
        rows.append(f"{label},{auc_cell},{_fmt(entry['cil_last_acc'])}")
    scatter.write_text("\n".join(rows) + "\n", encoding="utf-8")

    header = f"{'score':<16s} {'auc_mean':>10s} {'cil_last_acc':>13s}"
    _say(args, header)
    for label, _ in _BENCH_ROWS:
        entry = scores[label]
        auc_text = "n/a" if entry["auc_mean"] is None else f"{entry['auc_mean']:.4f}"
        _say(args, f"{label:<16s} {auc_text:>10s} {entry['cil_last_acc']:>13.4f}")
    if r is not None:
        _say(args, f"pearson r {r:.4f}  slope {slope:.4f}")
    else:
        _say(args, "detection AUC not applicable for a single-task run")
    _say(args, f"report written to {out}")
    return 0


def cmd_theory_check(args) -> int:
    seed = getattr(args, "seed", None)
    seed = 0 if seed is None else seed
    case = args.case
    if case == "sec41":
        n = args.samples or 100_000
        pair = theory_lab.narrow_impostor_pair(n_samples=n, seed=seed)
        lam = theory_lab.lr_threshold_for_type1(pair, 0.05)
        report = {
            "case": case,
            "samples": n,
            "seed": seed,
            "log_ratio": {
                "at_zero": theory_lab.log_likelihood_ratio(pair, 0.0),
                "at_one": theory_lab.log_likelihood_ratio(pair, 1.0),
            },
            "auc": {
                scorer: {
                    "oracle": theory_lab.oracle_auc(pair, scorer),
                    "empirical": theory_lab.empirical_auc(pair, scorer),
                }
                for scorer in ("lr", "p_t_only")
            },
            "threshold": {
                "level": 0.05,
                "value": lam,
                "empirical_type1": theory_lab.empirical_type1_rate(pair, lam),
            },
        }
    elif case == "dominance":
        n = args.samples or 100_000
        pair_reports = {}
        margins = []
        for name, base_pair in theory_lab.FIXTURE_PAIRS.items():
            pair = dataclasses.replace(base_pair, n_samples=n, seed=seed)
            oracle = {s: theory_lab.oracle_auc(pair, s)
                      for s in theory_lab.SCORER_NAMES}
            empirical = {s: theory_lab.empirical_auc(pair, s)
                         for s in theory_lab.SCORER_NAMES}
            margin = {s: oracle["lr"] - oracle[s]
                      for s in theory_lab.SCORER_NAMES if s != "lr"}
            margins.extend(margin.values())
            pair_reports[name] = {
                "oracle": oracle, "empirical": empirical, "margin_vs_lr": margin,
            }
        report = {
            "case": case,
            "samples": n,
            "seed": seed,
            "pairs": pair_reports,
            "min_margin": min(margins),
            "dominance_holds": bool(min(margins) >= -1e-4),
        }
    else:  # density
        n = args.samples or 500
        stream = data.generate_gaussian_stream(
            n_tasks=1, classes_per_task=3, dim=6, separation=6.0,
            samples_per_class_train=667, samples_per_class_test=0,
            rng=RngState(_DENSITY_FIXTURE_SEED),
        )
        dataset = stream.tasks[0]
        stats = theory_lab.fit_raw_feature_stats(dataset)
        check = theory_lab.density_estimator_check(
            dataset, stats, n, knn_k=5, seed=seed
        )
        report = {
            "case": case,
            "samples": n,
            "seed": seed,
            "buffer_size": int(dataset.train_x.shape[0]),
            "knn_k": 5,
            "md_spearman": check.md_spearman,
            "knn_spearman": check.knn_spearman,
            "n_used_md": check.n_used_md,
        }
    out = Path(getattr(args, "out", None) or "theory_report.json")
    out.write_text(_dump_json(report), encoding="utf-8")
    _say(args, f"theory check {case}: report written to {out}")
    return 0


def cmd_dump_features(args) -> int:
    run_dir = Path(args.run)
    run, _rc = load_run(run_dir)
    t = args.task_id
    run.net.require_task(t)
    if getattr(args, "input", None):
        x, labels = data._read_feature_file(Path(args.input), None)
        if x.shape[1] != run.net.input_dim:
            raise DimensionMismatch(
                f"input features have dim {x.shape[1]}, "
                f"model expects {run.net.input_dim}"
            )
    else:
        dataset = run.stream.task(t)
        x, labels = dataset.test_x, dataset.test_y
        if x.shape[0] == 0:
            raise EmptyTestSet(f"task {t} has no test samples to dump")
    feats, _ = hat_mlp.forward(run.net, x, t)
    normed = scoring.normalize_rows(feats)
    d = feats.shape[1]
    header = (["label"] + [f"f{j}" for j in range(d)] + [f"n{j}" for j in range(d)])
    lines = [",".join(header)]
    for i in range(feats.shape[0]):
        cells = ([str(int(labels[i]))]
                 + [_fmt(v) for v in feats[i]]
                 + [_fmt(v) for v in normed[i]])
        lines.append(",".join(cells))
    out = Path(getattr(args, "out", None) or run_dir / f"features_task_{t}.csv")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _say(args, f"{feats.shape[0]} feature rows written to {out}")
    return 0


# --- argument parsing --------------------------------------------------------


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the seed from the config")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="output path (run directory or report file)")
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help="suppress informational output")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="tpl",
        description="Continual classification with task-id prediction "
                    "by likelihood-ratio scores.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[common],
                       help="train a task sequence and write a run directory")
    p.add_argument("--config", required=True, help="JSON run configuration")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="compute metrics for a finished run")
    p.add_argument("--run", required=True, help="run directory")
    p.add_argument("--ncl", default=None,
                   help="cache directory for the joint-training reference "
                        "(enables forgetting rates)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", parents=[common],
                       help="classify a feature CSV with a finished run")
    p.add_argument("--run", required=True, help="run directory")
    p.add_argument("--input", required=True, help="feature CSV (label,f0,...)")
    p.add_argument("--output", required=True, help="predictions CSV to write")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ood-bench", parents=[common],
                       help="per-score detection AUC vs accuracy benchmark")
    p.add_argument("--run", required=True, help="run directory")
    p.add_argument("--scatter", default=None, help="scatter CSV to write")
    p.set_defaults(func=cmd_ood_bench)

    p = sub.add_parser("theory-check", parents=[common],
                       help="analytic Gaussian validation suite")
    p.add_argument("--case", required=True, choices=_THEORY_CASES)
    p.add_argument("--samples", type=int, default=None,
                   help="draws per side (or probe count for the density case)")
    p.set_defaults(func=cmd_theory_check)

    p = sub.add_parser("dump-features", parents=[common],
                       help="write one task's features (raw and normalized)")
    p.add_argument("--run", required=True, help="run directory")
    p.add_argument("--task-id", type=int, required=True)
    p.add_argument("--input", default=None,
                   help="feature CSV to project (default: the task's test split)")
    p.set_defaults(func=cmd_dump_features)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TplError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
