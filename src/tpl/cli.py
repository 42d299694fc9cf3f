"""Command-line front end: one entry point binding data generation, training,
evaluation, prediction, detector benchmarking, the analytic Gaussian checks,
and feature dumps.

Run directories are self-describing: ``config.json`` plus the artifacts below
reproduce every downstream command without retraining.

    config.json       resolved run configuration (schema-versioned)
    model.bin         network weights/embeddings/masks, versioned binary
    stats/task_T.json per-task class ids and score rates (task_id, classes,
                      beta_mls, beta_md)
    stats/task_T.bin  per-task class means, shared precision and the
                      precision's lower Cholesky factor, in the container
                      model.bin uses (header + little-endian f8)
    buffer.bin        replay samples (x, labels, source tasks) in that container
    buffer.csv        the same samples as text (label, features..., source
                      task), an export that is never read back
    index.bin         each task's two KNN indexes in that container (knn.T
                      [n - n_T, d], own.T [n_T, d]), built once after training,
                      rows stored as the distance kernel reads them
    trajectory.json   what train measured on the test rows: the accuracy
                      trajectory, TIL accuracies and the seven ood-bench rows
                      (``bench``), with the tasks' classes and the dataset
                      fingerprint they were measured on
    calibration.json  per-task affine output calibration, always written (the
                      identity when ``calibrate`` is false); eval and predict
                      apply it, ood-bench compares scores without it

Every file is written by ``data.write_file``, to a temporary file renamed
into place; a container (the ``.bin`` files) is read as a copy-on-write
mapping of the file (``_read_container``).

``load_run`` reads only the run directory, never the dataset, and not
``trajectory.json``: ``predict`` and ``dump-features --input`` need no data.
It checks the artifacts against the model (task sets, class ids, array
shapes, exact container sizes), ``buffer.bin`` against the run (row count,
each row's task and label), ``index.bin`` against the buffer and the model
(per-task row counts, width, and the first row of each source task forwarded
again within 1e-9), and checks their values (finite arrays, rates and
calibration pairs, a lower-triangular factor with a positive diagonal).  No
command forwards the replay buffer: the KNN indexes come from ``index.bin``,
and no command factors a precision: ``md_score`` whitens with the stored
factor.  A run directory written before the factor was stored exits 3 at its
first ``stats/task_T.bin``, before ``index.bin`` is read.

Every number ``eval`` and ``ood-bench`` report is a train-time measurement
read from ``trajectory.json`` (``_load_trajectory``): they build no scoring
context and neither rebuild nor score the test rows.  Its accuracies must lie
in [0, 1] and its AUCs too, or be nan; it must name the run's tasks and
classes, and the dataset must match its fingerprint (a synthetic ``dataset``
block and ``seed``, or the size and crc32 of a manifest and its test CSVs,
hashed unparsed).  ``dump-features`` without ``--input`` checks that
fingerprint too and then rebuilds the test rows (``_test_stream``); ``eval
--ncl`` builds the full stream for the joint reference on a cache miss (so
only ``train`` and that miss read a manifest's train CSVs).

Every file a command reads is read inside ``data.reading``: a file that is
missing, cannot be opened, is not UTF-8 or does not decode is one error line
naming it, a ``ConfigError`` for ``--config`` and a ``ParseError`` for the
rest.  Every file a command writes, and every directory ``train`` prepares,
is written inside ``data.writing``: a failure is one line, ``<path>: cannot
write (<reason>)``, and exit 3, and leaves the earlier file as it was;
``predict`` checks its ``--output`` before it loads the run.  A run-directory
file (``config.json`` and ``trajectory.json`` included) that is missing,
malformed or does not match the run also ends with "retrain the run".  The
config's ``score_variant`` is the published name (``canonical`` or
``algorithm1``) everywhere: config files, the package and the reports.  Exit
codes: 0 success, 2 configuration error (a run directory that does not
exist among them), 3 runtime failure (an unusable run-directory artifact
included; so is running out of memory).
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import mmap
import os
import re
import struct
import sys
import zlib
from pathlib import Path

import numpy as np

from . import data, evaluation, hat_mlp, scoring, theory_lab, trainer
from .errors import (
    ConfigError,
    DegenerateVariance,
    EmptyTestSet,
    ParseError,
    TplError,
    UngatedTask,
)
from .numerics import RngState, check_int, check_real
from .scoring import TaskStats
from .trainer import ReplayBuffer, RunArtifacts, TrainConfig

SCHEMA_VERSION = 1

_MODEL_MAGIC = b"TPLM"
_STATS_MAGIC = b"TPLS"
_BUFFER_MAGIC = b"TPLB"
_INDEX_MAGIC = b"TPLI"
_CONTAINER_VERSION = 1
#: A container's data section starts at a multiple of this many bytes.
_DATA_ALIGN = 64
#: Largest gap allowed between a stored index row and the same buffer row
#: forwarded on load (one row and a whole batch round differently in BLAS).
_INDEX_TOL = 1e-9

_TOP_KEYS = {"schema_version", "seed", "out_dir", "calibrate", "dataset", "training"}
_SYNTHETIC_KEYS = {"kind", "n_tasks", "classes_per_task", "dim", "separation",
                   "train_per_class", "test_per_class", "covariance_diag"}
_MANIFEST_KEYS = {"kind", "path"}

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


def _int_flag(args, flag: str, default: int, least: int) -> int:
    """An integer flag's value, or ``default`` when the flag is absent; a
    value below ``least`` is a configuration error naming the flag."""
    value = getattr(args, flag.lstrip("-"), None)
    if value is None:
        return default
    try:
        check_int(flag, value, least)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return value


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
            if out["separation"] > data.MAX_SEPARATION:
                raise ConfigError(f"dataset.separation: {sep!r} is above "
                                  f"{data.MAX_SEPARATION:.6g}, where the squared "
                                  "distances between class means overflow")
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
        if not isinstance(path, str) or "\0" in path:
            raise ConfigError("dataset.path: need a string without NUL characters")
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


def parse_run_config(raw, base_dir: Path, source: str = "config") -> RunConfig:
    """The run configuration in the decoded JSON ``raw``, or a ``ConfigError``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be an object")
    _check_keys(raw, _TOP_KEYS, source)
    version = _require(raw, "schema_version", source)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(
            f"{source}: schema_version {version!r} not supported "
            f"(this build reads {SCHEMA_VERSION})"
        )
    seed = raw.get("seed", 0)
    try:
        check_int("seed", seed, 0)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    calibrate = raw.get("calibrate", True)
    if not isinstance(calibrate, bool):
        raise ConfigError(f"{source}: calibrate must be true or false")
    out_dir = raw.get("out_dir")
    if out_dir is not None and (not isinstance(out_dir, str) or "\0" in out_dir):
        raise ConfigError(f"{source}: out_dir must be a string without NUL characters")
    dataset = _require(raw, "dataset", source)
    try:
        dataset = _validate_dataset(dataset, base_dir)
        training = _validate_training(raw.get("training"))
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    return RunConfig(training=training, dataset=dataset, seed=seed,
                     out_dir=out_dir, calibrate=calibrate)


def load_run_config(path) -> RunConfig:
    path = Path(path)
    raw = data.read_json(path, error=ConfigError)
    return parse_run_config(raw, path.parent.resolve(), source=str(path))


def run_config_payload(rc: RunConfig) -> dict:
    training = dataclasses.asdict(rc.training)
    training["hidden_widths"] = list(rc.training.hidden_widths)
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": rc.seed,
        "out_dir": rc.out_dir,
        "calibrate": rc.calibrate,
        "dataset": rc.dataset,
        "training": training,
    }


def build_stream(rc: RunConfig, train: bool = True,
                 width: int | None = None) -> data.TaskStream:
    """The run's data stream; with ``train`` off, only its test rows (every
    train split empty: no train rows are drawn and no train CSV is opened).
    ``width`` is the feature count a manifest's files must hold."""
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
            train=train,
        )
    return data.load_feature_stream(d["path"], train, width)


# --- binary containers -------------------------------------------------------


def _task_id(value, expected: int) -> int:
    """A stored ``task_id``: a JSON integer (not a float, bool or string)
    equal to ``expected``."""
    if type(value) is not int or value != expected:
        raise ValueError(f"task_id {value!r}, expected {expected}")
    return value


def _write_container(path: Path, magic: bytes, header: dict,
                     arrays: dict[str, np.ndarray]) -> None:
    """Write ``magic``, the format version, a sorted-key JSON header listing
    every array's name and shape, then each array as little-endian f8, by
    ``data.write_file``.  The header is padded with spaces so the data
    section starts at a multiple of ``_DATA_ALIGN`` bytes, where
    ``_read_container`` maps it without a copy.  Arrays convert one at a time."""
    blob = json.dumps(
        {**header, "arrays": [{"name": name, "shape": list(a.shape)}
                              for name, a in arrays.items()]},
        sort_keys=True,
    ).encode("utf-8")
    blob += b" " * (-(16 + len(blob)) % _DATA_ALIGN)
    data.write_file(path, itertools.chain(
        (magic, struct.pack("<IQ", _CONTAINER_VERSION, len(blob)), blob),
        (np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays.values())))


def _read_container(path: Path, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """The (header, arrays) pair ``_write_container`` wrote, bit for bit; a
    file whose size differs from what its header declares, or an array
    holding a nan or inf, is malformed (the error names the first such
    entry, e.g. ``x[3, 0]``).

    The arrays are writable views of one private copy-on-write mapping of
    the file: no byte is copied, and a write to an array stays in this
    process.  A data section that does not start at a multiple of 8 bytes
    (a container written before the header was padded) is copied once, with
    the same bits.  A container must not be rewritten in place while its
    arrays are in use; ``_write_container`` replaces the file instead."""
    with data.reading(path), open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(16)
        if head[:4] != magic:
            raise ParseError(f"{path}: bad magic {head[:4]!r}, expected {magic!r}")
        (version,) = struct.unpack_from("<I", head, 4)
        if version != _CONTAINER_VERSION:
            raise ParseError(f"{path}: unsupported format version {version}")
        (header_len,) = struct.unpack_from("<Q", head, 8)
        header = json.loads(fh.read(min(header_len, size - 16)).decode("utf-8"))
        entries = header.pop("arrays")
        shapes = [tuple(entry["shape"]) for entry in entries]
        if not all(isinstance(n, int) and n >= 0 for shape in shapes for n in shape):
            raise ValueError(f"array shapes must be non-negative integers: {shapes}")
        total = sum(math.prod(shape) for shape in shapes)
        offset = 16 + header_len
        declared = offset + 8 * total
        if size != declared:
            raise ParseError(f"{path}: {size} bytes, its header declares {declared}")
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        values = np.frombuffer(mapped, dtype="<f8", count=total, offset=offset)
        if offset % 8:
            values = values.copy()
        # min and max propagate a nan; neither makes an [n] temporary
        finite = total == 0 or (math.isfinite(values.min()) and math.isfinite(values.max()))
        arrays: dict[str, np.ndarray] = {}
        for entry, shape in zip(entries, shapes):
            count = math.prod(shape)
            # a view: "<f8" is float64 on a little-endian host
            arrays[entry["name"]] = values[:count].reshape(shape).astype(np.float64, copy=False)
            values = values[count:]
        if not finite:
            name, a = next((n, a) for n, a in arrays.items() if not np.isfinite(a).all())
            index = np.unravel_index(np.argmin(np.isfinite(a)), a.shape)
            raise ValueError(f"{name}{[int(i) for i in index]} holds a non-finite value")
        return header, arrays


def _check_shapes(arrays: dict[str, np.ndarray], want: dict[str, tuple[int, ...]],
                  needer: str) -> None:
    """Raise a ValueError naming the first array of a container that is
    missing, extra or shaped other than ``want`` says ``needer`` needs."""
    if sorted(arrays) != sorted(want):
        raise ValueError(f"holds arrays {sorted(arrays)}, {needer} needs {sorted(want)}")
    for name, shape in want.items():
        if arrays[name].shape != shape:
            raise ValueError(f"{name} has shape {list(arrays[name].shape)}, "
                             f"{needer} needs {list(shape)}")


# --- model serialization -----------------------------------------------------


def _model_arrays(net: hat_mlp.HatMlp) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for l, w in enumerate(net.weights):
        out[f"weights.{l}"] = w
    for l, b in enumerate(net.biases):
        out[f"biases.{l}"] = b
    for l, m in enumerate(net.past_masks):
        out[f"past_masks.{l}"] = m
    for t in net.task_ids():
        if not net.embeddings[t]:
            raise UngatedTask(f"task {t} has no gates; model.bin stores gated tasks only")
        for l, e in enumerate(net.embeddings[t]):
            out[f"embeddings.{t}.{l}"] = e
        out[f"head_weight.{t}"] = net.heads[t].weight
        out[f"head_bias.{t}"] = net.heads[t].bias
    return out


def save_model(path: Path, net: hat_mlp.HatMlp) -> None:
    _write_container(path, _MODEL_MAGIC, {
        "input_dim": net.input_dim,
        "hidden_widths": list(net.hidden_widths),
        "s_max": net.s_max,
        "n_past_masks": len(net.past_masks),
        "tasks": {str(t): net.heads[t].n_classes for t in net.task_ids()},
    }, _model_arrays(net))


def _model_shapes(header: dict) -> dict[str, tuple[int, ...]]:
    """The shape of every array ``model.bin`` holds, derived from its header."""
    d, widths = header["input_dim"], header["hidden_widths"]
    tasks = {int(t): n for t, n in header["tasks"].items()}
    if (not isinstance(widths, list) or not widths
            or not all(type(n) is int and n >= 1 for n in (d, *widths, *tasks.values()))):
        raise ValueError(f"input_dim {d!r}, hidden_widths {widths!r} and task class "
                         f"counts {list(tasks.values())} must be positive integers")
    if header["n_past_masks"] != len(widths):
        raise ValueError(f"n_past_masks {header['n_past_masks']!r}, the model has "
                         f"{len(widths)} layers")
    fan_in = [d, *widths[:-1]]
    shapes = {f"weights.{l}": (w, fan_in[l]) for l, w in enumerate(widths)}
    shapes.update({f"{name}.{l}": (w,) for name in ("biases", "past_masks")
                   for l, w in enumerate(widths)})
    for t, n_classes in tasks.items():
        shapes.update({f"embeddings.{t}.{l}": (w,) for l, w in enumerate(widths)})
        shapes[f"head_weight.{t}"] = (n_classes + 1, widths[-1])
        shapes[f"head_bias.{t}"] = (n_classes + 1,)
    return shapes


def load_model(path: Path) -> hat_mlp.HatMlp:
    """The network stored in ``path``; every array must have the shape its
    header implies (``_model_shapes``), and ``s_max`` must exceed 1."""
    header, loaded = _read_container(path, _MODEL_MAGIC)
    with data.reading(path):
        _check_shapes(loaded, _model_shapes(header), "the header")
        s_max = check_real("s_max", header["s_max"])
        if s_max <= 1:
            raise ValueError(f"s_max must be > 1, got {s_max!r}")
        widths = tuple(header["hidden_widths"])
        n_layers = len(widths)
        net = hat_mlp.HatMlp(
            input_dim=header["input_dim"],
            hidden_widths=widths,
            s_max=s_max,
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


def _write_buffer_csv(path: Path, buffer: ReplayBuffer) -> None:
    lines = [",".join([str(c), *map(repr, row), str(t)])
             for row, c, t in zip(buffer.x.tolist(), buffer.labels.tolist(),
                                  buffer.tasks.tolist())]
    _write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def _save_buffer(path: Path, buffer: ReplayBuffer) -> None:
    _write_container(path, _BUFFER_MAGIC, {},
                     {"x": buffer.x, "labels": buffer.labels, "tasks": buffer.tasks})


def _load_buffer(path: Path, capacity: int, input_dim: int,
                 task_classes: dict[int, tuple[int, ...]]) -> ReplayBuffer:
    """The replay buffer stored in ``path``, checked against the run: at most
    ``capacity`` rows of ``input_dim`` features, each from a task of
    ``task_classes`` with an integer label among that task's classes.  An
    error names the first bad row, counting from 0.  The rows keep the
    file's order, the order ``index.bin`` was built in."""
    _, arrays = _read_container(path, _BUFFER_MAGIC)
    with data.reading(path):
        n = len(arrays["labels"])
        _check_shapes(arrays, {"x": (n, input_dim), "labels": (n,), "tasks": (n,)},
                      "the run")
    x, labels, tasks = arrays["x"], arrays["labels"], arrays["tasks"]
    if n > capacity:
        raise ParseError(f"{path}: row {capacity}: {n} rows, "
                         f"more than buffer_capacity {capacity}")
    classes = np.array([c for t in task_classes for c in task_classes[t]], dtype=np.float64)
    owners = np.array([t for t in task_classes for _ in task_classes[t]], dtype=np.float64)
    for ok, problem in (
        ((labels == np.floor(labels)) & (tasks == np.floor(tasks)),
         "label {c!r} and task {t!r} must be integers"),
        (np.isin(tasks, list(task_classes)), "task {t:g} is not a task of this run "
                                             "(tasks {tasks})"),
        (((labels[:, None] == classes) & (tasks[:, None] == owners)).any(axis=1),
         "label {c:g} is not a class of task {t:g} (classes {classes})"),
    ):
        if not ok.all():
            row = int(np.argmin(ok))
            c, t = float(labels[row]), float(tasks[row])
            raise ParseError(f"{path}: row {row}: " + problem.format(
                c=c, t=t, tasks=list(task_classes),
                classes=list(task_classes.get(int(t), ()))))
    return ReplayBuffer(capacity, x, labels.astype(np.int64), tasks.astype(np.int64))


def _index_shapes(source: np.ndarray, task_ids, feat_dim: int) -> dict[str, tuple[int, int]]:
    """The shape of each array of ``index.bin`` for a buffer whose rows come
    from the tasks ``source``: ``knn.T`` holds the rows of the other tasks and
    ``own.T`` those of task T."""
    shapes = {}
    for t in sorted(task_ids):
        n_own = int(np.count_nonzero(source == t))
        shapes[f"knn.{t}"] = (source.shape[0] - n_own, feat_dim)
        shapes[f"own.{t}"] = (n_own, feat_dim)
    return shapes


def _index_arrays(path: Path, run: RunArtifacts) -> dict[str, np.ndarray]:
    """The arrays of ``run.replay_index`` as ``index.bin`` stores them,
    refusing (a ValueError naming ``path``) an index whose row counts or
    width disagree with ``run.buffer`` and the model (a stale index), or one
    holding a nan or inf (a buffer row that overflows an extractor)."""
    knn, own = run.replay_index
    arrays = {f"{name}.{t}": index[t] for t in sorted(knn)
              for name, index in (("knn", knn), ("own", own))}
    want = _index_shapes(run.buffer.tasks, run.task_ids(), run.net.feature_dim)
    got = {name: a.shape for name, a in arrays.items()}
    if got != want:
        raise ValueError(f"{path}: not written: the KNN index has shapes {got}, the "
                         f"buffer needs {want}; rebuild it with scoring.replay_index")
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            row = int(np.argmin(np.isfinite(a).all(axis=1)))
            raise ValueError(f"{path}: not written: {name}[{row}] holds a non-finite "
                             "value (a replay row overflows the extractor)")
    return arrays


def _load_index(path: Path, net: hat_mlp.HatMlp, buffer: ReplayBuffer,
                task_ids: list[int]) -> scoring.ReplayIndex:
    """The KNN replay index stored in ``path``, checked against the run: its
    arrays must have the shapes ``_index_shapes`` gives for the buffer and
    the model's feature width, and the first buffer row of each source task,
    forwarded through every task's extractor into ``scoring.index_rows``,
    must match its stored row within ``_INDEX_TOL``.  That tolerance also
    covers a run written with its subnormal entries unflushed, which loads
    and scores the same bits."""
    _, arrays = _read_container(path, _INDEX_MAGIC)
    x, source = buffer.x, buffer.tasks
    with data.reading(path):
        _check_shapes(arrays, _index_shapes(source, task_ids, net.feature_dim), "the run")
    firsts = np.unique(source, return_index=True)[1]  # each source task's first row
    for t in task_ids if len(buffer) else ():
        feats = scoring.index_rows(hat_mlp.features(net, x[firsts], t))
        mine = source[firsts] == t
        # own.t holds task t's rows and knn.t the others, in buffer order: task t's
        # first row is own.t[0] and row i of another task is knn.t[i - (task t
        # rows before i)]
        rows = np.where(mine, 0, firsts - np.cumsum(source == t)[firsts])
        stored = np.empty_like(feats)
        stored[mine] = arrays[f"own.{t}"][rows[mine]]
        stored[~mine] = arrays[f"knn.{t}"][rows[~mine]]
        gaps = np.abs(stored - feats).max(axis=1)
        if not (gaps <= _INDEX_TOL).all():
            j = int(np.argmin(gaps <= _INDEX_TOL))
            name = f"own.{t}" if mine[j] else f"knn.{t}"
            raise ParseError(f"{path}: {name}[{rows[j]}] is {gaps[j]:.3g} away from "
                             f"buffer row {firsts[j]} through task {t}'s extractor, so "
                             "it was not built from this model and buffer")
    return ({t: arrays[f"knn.{t}"] for t in task_ids},
            {t: arrays[f"own.{t}"] for t in task_ids})


def _save_stats(stats_dir: Path, st: TaskStats, classes: tuple[int, ...]) -> None:
    t = st.task_id
    _write_text(stats_dir / f"task_{t}.json", _dump_json(
        {"task_id": t, "classes": list(classes),
         "beta_mls": st.beta_mls, "beta_md": st.beta_md}))
    _write_container(stats_dir / f"task_{t}.bin", _STATS_MAGIC, {"task_id": t},
                     {"class_means": st.class_means, "precision": st.precision,
                      "precision_factor": st.precision_factor})


def _check_factor(factor: np.ndarray) -> None:
    """Refuse a stored precision factor that is not lower triangular with a
    positive diagonal (``_read_container`` has refused a non-finite one).
    The common case reduces in place: no [d, d] temporary but the mask."""
    above = np.tri(len(factor), k=-1, dtype=bool).T  # strictly above the diagonal
    diagonal = factor.diagonal()
    if np.any(factor, where=above) or not (diagonal > 0).all():
        bad = (above & (factor != 0)) | np.diag(diagonal <= 0)
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"precision_factor[{i}, {j}] is {float(factor[i, j])!r}; a Cholesky "
                         "factor is lower triangular with a positive diagonal")


def _load_stats(stats_dir: Path, t: int,
                net: hat_mlp.HatMlp) -> tuple[TaskStats, tuple[int, ...]]:
    """Task ``t``'s statistics and class ids, checked against the model's
    head and width; the stored precision factor must be one (``_check_factor``)."""
    n_classes = net.heads[t].n_classes

    def decode(payload) -> tuple[float, float, tuple[int, ...]]:
        _task_id(payload["task_id"], t)
        classes = payload["classes"]
        if (not isinstance(classes, list) or len(classes) != n_classes
                or not all(type(c) is int for c in classes)):
            raise ValueError(f"classes {classes!r}; the model's head needs "
                             f"{n_classes} integer class ids")
        return (check_real("beta_mls", payload["beta_mls"]),
                check_real("beta_md", payload["beta_md"]), tuple(classes))

    beta_mls, beta_md, classes = data.read_json(stats_dir / f"task_{t}.json", decode)
    path = stats_dir / f"task_{t}.bin"
    header, arrays = _read_container(path, _STATS_MAGIC)
    with data.reading(path):
        _task_id(header["task_id"], t)
        d = net.feature_dim
        _check_shapes(arrays, {"class_means": (n_classes, d), "precision": (d, d),
                               "precision_factor": (d, d)}, "the model")
        _check_factor(arrays["precision_factor"])
    stats = TaskStats(task_id=t, class_means=arrays["class_means"],
                      precision=arrays["precision"], beta_mls=beta_mls, beta_md=beta_md,
                      precision_factor=arrays["precision_factor"])
    return stats, classes


# --- dataset fingerprint -----------------------------------------------------


def _classes_json(task_classes: dict[int, tuple[int, ...]]) -> dict[str, list[int]]:
    return {str(t): list(classes) for t, classes in task_classes.items()}


def _file_stamp(path: Path) -> dict:
    """The path, size and crc32 of a file, read as bytes."""
    with data.reading(path):
        blob = path.read_bytes()
    return {"path": str(path), "size": len(blob), "crc32": zlib.crc32(blob)}


def _dataset_fingerprint(rc: RunConfig) -> dict:
    """What the run's test rows are made from: a synthetic dataset's block
    and seed, or the stamp (``_file_stamp``) of a manifest and of each test
    CSV it names, no row of which is parsed."""
    d = rc.dataset
    if d["kind"] == "synthetic":
        return {"dataset": d, "seed": rc.seed}
    files = [Path(d["path"]), *data.manifest_test_paths(d["path"])]
    return {"files": [_file_stamp(path) for path in files]}


def _check_dataset(path: Path, stored, rc: RunConfig) -> None:
    """Raise a ParseError naming the first file of the run's dataset that
    differs from the fingerprint ``stored`` in ``path``: ``config.json``
    when its synthetic block or seed, or its manifest path, is not the
    stored one, else the first stored file (the manifest, then the test
    CSVs it names) whose size or crc32 changed.  No manifest is parsed: an
    unchanged one names the stored test CSVs."""
    d = rc.dataset
    with data.reading(path):
        if d["kind"] == "synthetic":
            files, same = [], stored == _dataset_fingerprint(rc)
        else:
            files = stored.get("files", [])
            same = bool(files) and files[0]["path"] == d["path"]
        if not same:
            raise ParseError(f"{path.with_name('config.json')}: the dataset or seed "
                             f"differs from the one {path} was computed on")
        for old in files:
            new = _file_stamp(Path(old["path"]))
            if new != old:
                raise ParseError(f"{new['path']}: {new['size']} bytes with crc32 "
                                 f"{new['crc32']:08x}, but {path} was computed on "
                                 f"{old['size']} bytes with crc32 {old['crc32']:08x}")


# --- saving and loading a run ------------------------------------------------


def save_run(run: RunArtifacts, rc: RunConfig, out: Path, trajectory: dict) -> None:
    """Write the run directory, with ``trajectory`` as ``trajectory.json``.
    Stats files of tasks that are not tasks of this run (left by an earlier
    run in ``out``) are deleted, and so is the ``scores.bin`` that an earlier
    layout of the run directory stored and nothing reads.  A stale or
    non-finite KNN index is refused before anything in ``out`` changes."""
    index = _index_arrays(out / "index.bin", run)
    with data.writing(out):
        out.mkdir(parents=True, exist_ok=True)
    with data.writing(out / "scores.bin"):
        (out / "scores.bin").unlink(missing_ok=True)
    with data.writing(out / "stats"):
        (out / "stats").mkdir(exist_ok=True)
    for path in (out / "stats").glob("task_*"):
        match = re.fullmatch(r"task_(-?[0-9]+)\.(json|bin)", path.name)
        if match and int(match[1]) not in run.stats:
            with data.writing(path):
                path.unlink()
    _write_text(out / "config.json", _dump_json(run_config_payload(rc)))
    save_model(out / "model.bin", run.net)
    for t in sorted(run.stats):
        _save_stats(out / "stats", run.stats[t], run.task_classes[t])
    _save_buffer(out / "buffer.bin", run.buffer)
    _write_container(out / "index.bin", _INDEX_MAGIC, {}, index)
    _write_buffer_csv(out / "buffer.csv", run.buffer)  # export only; never read back
    _write_text(out / "trajectory.json", _dump_json(trajectory))
    records = [{"task_id": t, "sigma1": s1, "sigma2": s2}
               for t, (s1, s2) in sorted(run.calibration.items())]
    _write_text(out / "calibration.json", _dump_json(records))


def load_run(run_dir) -> tuple[RunArtifacts, RunConfig]:
    """The run stored in ``run_dir``, every artifact checked (see the module
    docstring).  A run directory that does not exist is a ``ConfigError``;
    an artifact that cannot be used, the run's own ``config.json`` included,
    is a ``ParseError`` naming the file and asking to retrain the run."""
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise ConfigError(f"run directory {run_dir} does not exist")
    with _retraining():
        return _read_run(run_dir)


@contextlib.contextmanager
def _retraining():
    """End a ``ParseError``, or a ``ConfigError`` from the run's own config,
    raised reading a run-directory file with "; retrain the run"."""
    try:
        yield
    except (ConfigError, ParseError) as exc:
        raise ParseError(f"{exc}; retrain the run") from None


def _read_run(run_dir: Path) -> tuple[RunArtifacts, RunConfig]:
    rc = load_run_config(run_dir / "config.json")
    path = run_dir / "model.bin"
    net = load_model(path)
    task_ids = net.task_ids()
    if rc.dataset["kind"] == "synthetic":
        expected = list(range(1, rc.dataset["n_tasks"] + 1))
        if task_ids != expected:
            raise ParseError(f"{path}: holds tasks {task_ids}, "
                             f"the run has tasks {expected}")
    stats_dir = run_dir / "stats"
    known = {f"task_{t}{ext}" for t in task_ids for ext in (".json", ".bin")}
    for path in sorted(stats_dir.glob("task_*")):
        if path.suffix in (".json", ".bin") and path.name not in known:
            raise ParseError(f"{path}: not a task of this run (tasks {task_ids})")
    stats: dict[int, TaskStats] = {}
    task_classes: dict[int, tuple[int, ...]] = {}
    owner: dict[int, int] = {}
    for t in task_ids:
        stats[t], task_classes[t] = _load_stats(stats_dir, t, net)
        for c in task_classes[t]:
            if c in owner:
                raise ParseError(f"{stats_dir / f'task_{t}.json'}: class {c} is "
                                 f"already listed under task {owner[c]}")
            owner[c] = t
    buffer = _load_buffer(run_dir / "buffer.bin", rc.training.buffer_capacity,
                          net.input_dim, task_classes)
    index = _load_index(run_dir / "index.bin", net, buffer, task_ids)

    def decode_calibration(records) -> dict[int, tuple[float, float]]:
        """One record per task, in task order, as ``save_run`` writes them."""
        if len(records) != len(task_ids):
            raise ValueError(f"{len(records)} records, the run has tasks {task_ids}")
        return {_task_id(r["task_id"], t): (check_real("sigma1", r["sigma1"]),
                                            check_real("sigma2", r["sigma2"]))
                for r, t in zip(records, task_ids)}

    calibration = data.read_json(run_dir / "calibration.json", decode_calibration)
    run = RunArtifacts(
        config=rc.training,
        task_classes=task_classes,
        net=net,
        stats=stats,
        buffer=buffer,
        calibration=calibration,
        replay_index=index,
    )
    return run, rc


def _test_stream(run: RunArtifacts, rc: RunConfig, train: bool = False) -> data.TaskStream:
    """The run's test rows, rebuilt from its config (``dump-features``
    projects them); its tasks and classes must be the ones the run stored.
    The training split is built only with ``train`` on (the joint reference
    of ``eval --ncl`` trains on it): otherwise no train row is drawn and no
    train CSV is opened, and each test CSV must hold the run's input width."""
    stream = build_stream(rc, train, run.net.input_dim)
    classes = {d.task_id: d.classes for d in stream.tasks}
    if classes != run.task_classes:
        raise ParseError(f"the dataset's tasks and classes {classes} differ from "
                         f"the run's {run.task_classes}")
    return stream


def _load_trajectory(run_dir: Path, run: RunArtifacts, rc: RunConfig
                     ) -> tuple[list[float], dict[int, dict[int, float]], dict[int, float],
                                dict[str, dict]]:
    """The (trajectory, per-task matrix, TIL accuracies, ood-bench rows)
    measured at train time: all empty (a run trained without test rows), or
    one accuracy per task, for each task t the accuracies of exactly the
    tasks up to t, one TIL accuracy per task and every ood-bench row.  They
    must have been measured on the run's classes and, by the fingerprint
    (``_check_dataset``), on the dataset its config names."""
    task_ids = run.task_ids()
    path = run_dir / "trajectory.json"

    def decode(payload):
        trajectory = [evaluation.check_accuracy("trajectory", v)
                      for v in payload["trajectory"]]
        per_task = evaluation.decode_task_matrix(payload["per_task"])
        til = evaluation.decode_task_accuracies(payload["til"], "til")
        bench = evaluation.decode_bench(payload["bench"], task_ids, bool(trajectory))
        if trajectory or per_task or til:
            if len(trajectory) != len(task_ids):
                raise ValueError(f"trajectory has {len(trajectory)} entries, "
                                 f"the run has {len(task_ids)} tasks")
            want = {t: [i for i in task_ids if i <= t] for t in task_ids}
            got = {t: sorted(row) for t, row in per_task.items()}
            if got != want:
                raise ValueError(f"per_task holds the tasks {got}, the run needs {want}")
            if sorted(til) != sorted(task_ids):
                raise ValueError(f"til holds the tasks {sorted(til)}, "
                                 f"the run needs {sorted(task_ids)}")
        classes = _classes_json(run.task_classes)
        if payload["classes"] != classes:
            raise ValueError(f"measured the tasks and classes {payload['classes']}, "
                             f"which differ from the run's {classes}")
        return (trajectory, per_task, til, bench), payload["dataset"]

    with _retraining():
        measured, dataset = data.read_json(path, decode)
        _check_dataset(path, dataset, rc)
    return measured


# --- subcommands -------------------------------------------------------------


def _write_text(path: Path, text: str) -> None:
    """Write a report, CSV, cache or run-directory text file as UTF-8 by
    ``data.write_file``."""
    data.write_file(path, (text.encode("utf-8"),))


def _check_out_dir(out: Path) -> None:
    """Refuse, before any work, a run directory that cannot be made: one
    that exists as another kind of file, or whose nearest existing ancestor
    is not a directory."""
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        where = "it" if existing == out else str(existing)
        raise ConfigError(f"{out}: cannot be a run directory ({where} is not a directory)")


def cmd_train(args) -> int:
    rc = load_run_config(args.config)
    rc.seed = _int_flag(args, "--seed", rc.seed, 0)
    out = getattr(args, "out", None) or rc.out_dir
    if out is None:
        raise ConfigError("no output directory: set out_dir in the config or --out")
    rc.out_dir = str(out)
    _check_out_dir(Path(out))
    stream = build_stream(rc)
    run = trainer.run_sequence(stream, rc.training, rc.seed, calibrate=rc.calibrate)

    has_tests = all(d.test_x.shape[0] > 0 for d in stream.tasks)
    payload: dict = {"score_kind": "tpl", "calibrated": rc.calibrate,
                     "trajectory": [], "per_task": {}, "til": {}, "bench": {},
                     "classes": _classes_json(run.task_classes),
                     "dataset": _dataset_fingerprint(rc)}
    if has_tests:
        # the finished run's scores of every kind, which depend on no
        # calibration: the last checkpoint of the trajectory and the
        # ood-bench rows read them
        shared = scoring.context_from_run(run, calibrated=False)
        pooled = evaluation.pooled_scores(shared, stream)
        trajectory, per_task = evaluation.accuracy_trajectory(run, stream, pooled.bundle)
        payload["trajectory"] = trajectory
        payload["per_task"] = evaluation.encode_task_matrix(per_task)
        payload["til"] = {
            str(t): acc
            for t, acc in evaluation.til_accuracies(run.net, stream.tasks).items()
        }
        payload["bench"] = evaluation.bench_rows(shared, pooled)
    save_run(run, rc, Path(out), payload)
    if has_tests:
        for t, acc in zip(run.task_ids(), payload["trajectory"]):
            _say(args, f"A<={t} {acc:.6f}")
    else:
        _say(args, "no test samples; trajectory skipped")
    _say(args, f"run written to {out}")
    return 0


#: Part of the NCL cache key; raised whenever the reference's training
#: changes what it computes.  2: an ungated trunk (the pinned gates of 1 were
#: not fully open below s_max of about 6.12).
_NCL_REFERENCE_VERSION = 2


def _ncl_reference(ncl_dir: Path, run: RunArtifacts,
                   rc: RunConfig) -> evaluation.NclReference:
    """The joint reference cached for this config in the directory
    ``ncl_dir``, or, on a miss, trained on the run's full stream (its
    training split included) and cached there."""
    fingerprint = hashlib.sha256(
        _dump_json({"reference": _NCL_REFERENCE_VERSION,
                    "dataset": rc.dataset, "seed": rc.seed,
                    "training": run_config_payload(rc)["training"]}).encode("utf-8")
    ).hexdigest()[:16]
    cache = ncl_dir / f"ncl-{fingerprint}.json"
    if cache.exists():
        return data.read_json(cache, evaluation.decode_ncl_reference)
    ncl = evaluation.build_ncl_reference(_test_stream(run, rc, train=True),
                                         rc.training, rc.seed)
    _write_text(cache, _dump_json(evaluation.encode_ncl_reference(ncl)))
    return ncl


def cmd_eval(args) -> int:
    run_dir = Path(args.run)
    run, rc = load_run(run_dir)
    ncl_dir = None if getattr(args, "ncl", None) is None else Path(args.ncl)
    if ncl_dir is not None:
        with data.writing(ncl_dir):
            ncl_dir.mkdir(parents=True, exist_ok=True)
    out = Path(getattr(args, "out", None) or run_dir / "metrics.json")
    data.check_writable(out)  # after the cache directory, which may hold it
    trajectory, per_task, til, bench = _load_trajectory(run_dir, run, rc)
    if not trajectory:
        raise EmptyTestSet("run has no stored trajectory (trained without tests)")
    # calibration changes no detection score: the row of the run's variant holds its AUCs
    row = bench[f"TPL-{rc.training.score_variant}"]
    ood = ({int(t): v for t, v in row["auc_per_task"].items()}, row["auc_mean"])
    ncl = None if ncl_dir is None else _ncl_reference(ncl_dir, run, rc)
    report = evaluation.metrics_report((trajectory, per_task), til, ood, ncl)
    _write_text(out, _dump_json(report.as_dict()))
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
    out = Path(args.output)
    data.check_writable(out)
    run, rc = load_run(Path(args.run))
    x, _labels = data.read_feature_file(Path(args.input), run.net.input_dim)
    preds = scoring.predict(scoring.context_from_run(run), x, score_kind="tpl")
    variant = rc.training.score_variant
    rows = zip(preds.global_class.tolist(), preds.task_id.tolist(), preds.p_task.tolist())
    lines = ["row,predicted_class,predicted_task,p_task,score_variant"]
    lines += [f"{i},{c},{t},{p!r},{variant}" for i, (c, t, p) in enumerate(rows)]
    _write_text(out, "\n".join(lines) + "\n")
    _say(args, f"{x.shape[0]} predictions written to {out}")
    return 0


def cmd_ood_bench(args) -> int:
    run_dir = Path(args.run)
    run, rc = load_run(run_dir)
    out = Path(getattr(args, "out", None) or run_dir / "ood_bench.json")
    scatter = Path(args.scatter or run_dir / "ood_scatter.csv")
    for path in (out, scatter):
        data.check_writable(path)
    scores = _load_trajectory(run_dir, run, rc)[3]
    if not scores:
        raise EmptyTestSet("no test samples in any supplied dataset")
    single = len(run.task_ids()) == 1
    r = slope = None
    if not single:
        # in BENCH_ROWS order, which the fit's float sums depend on
        pairs = [(scores[label]["auc_mean"], scores[label]["cil_last_acc"])
                 for label, _ in evaluation.BENCH_ROWS]
        with contextlib.suppress(DegenerateVariance):  # all rows tied on one axis
            r, slope = evaluation.auc_acc_correlation(pairs)
    report = {
        "calibration": "off",
        "auc_applicable": not single,
        "scores": scores,
        "pearson_r": r,
        "slope": slope,
    }
    _write_text(out, _dump_json(report))
    rows = ["score,auc_mean,cil_last_acc"]
    for label, _ in evaluation.BENCH_ROWS:
        entry = scores[label]
        auc_cell = "" if entry["auc_mean"] is None else _fmt(entry["auc_mean"])
        rows.append(f"{label},{auc_cell},{_fmt(entry['cil_last_acc'])}")
    _write_text(scatter, "\n".join(rows) + "\n")

    header = f"{'score':<16s} {'auc_mean':>10s} {'cil_last_acc':>13s}"
    _say(args, header)
    for label, _ in evaluation.BENCH_ROWS:
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
    out = Path(getattr(args, "out", None) or "theory_report.json")
    data.check_writable(out)
    seed = _int_flag(args, "--seed", 0, 0)
    case = args.case
    if case == "sec41":
        n = _int_flag(args, "--samples", 100_000, theory_lab.MIN_EMPIRICAL_N)
        pair = theory_lab.narrow_impostor_pair(n_samples=n, seed=seed)
        lam = theory_lab.lr_threshold_for_type1(pair, 0.05)
        scorers = ("lr", "p_t_only")
        empirical = theory_lab.empirical_aucs(pair, scorers)
        report = {
            "case": case,
            "samples": n,
            "seed": seed,
            "log_ratio": {
                "at_zero": theory_lab.log_likelihood_ratio(pair, 0.0),
                "at_one": theory_lab.log_likelihood_ratio(pair, 1.0),
            },
            "auc": {
                scorer: {"oracle": theory_lab.oracle_auc(pair, scorer),
                         "empirical": empirical[scorer]}
                for scorer in scorers
            },
            "threshold": {
                "level": 0.05,
                "value": lam,
                "empirical_type1": theory_lab.empirical_type1_rate(pair, lam),
            },
        }
    elif case == "dominance":
        n = _int_flag(args, "--samples", 100_000, theory_lab.MIN_EMPIRICAL_N)
        pair_reports = {}
        margins = []
        for name, base_pair in theory_lab.FIXTURE_PAIRS.items():
            pair = dataclasses.replace(base_pair, n_samples=n, seed=seed)
            oracle = {s: theory_lab.oracle_auc(pair, s)
                      for s in theory_lab.SCORER_NAMES}
            empirical = theory_lab.empirical_aucs(pair)
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
        n = _int_flag(args, "--samples", 500, theory_lab.MIN_PROBES)
        stream = data.generate_gaussian_stream(
            n_tasks=1, classes_per_task=3, dim=6, separation=6.0,
            samples_per_class_train=667, samples_per_class_test=0,
            rng=RngState(_DENSITY_FIXTURE_SEED),
        )
        dataset = stream.tasks[0]
        stats = theory_lab.fit_raw_feature_stats(dataset)
        check = theory_lab.density_estimator_check(dataset, stats, n, seed=seed)
        report = {
            "case": case,
            "samples": n,
            "seed": seed,
            "buffer_size": int(dataset.train_x.shape[0]),
            "knn_k": theory_lab.DENSITY_KNN_K,
            "md_spearman": check.md_spearman,
            "knn_spearman": check.knn_spearman,
            "n_used_md": check.n_used_md,
        }
    _write_text(out, _dump_json(report))
    _say(args, f"theory check {case}: report written to {out}")
    return 0


def cmd_dump_features(args) -> int:
    run_dir = Path(args.run)
    run, rc = load_run(run_dir)
    t = args.task_id
    out = Path(getattr(args, "out", None) or run_dir / f"features_task_{t}.csv")
    data.check_writable(out)
    run.net.require_task(t)
    if getattr(args, "input", None):
        x, labels = data.read_feature_file(Path(args.input), run.net.input_dim)
    else:
        _load_trajectory(run_dir, run, rc)  # the dataset must match its fingerprint
        dataset = _test_stream(run, rc).task(t)
        x, labels = dataset.test_x, dataset.test_y
        if x.shape[0] == 0:
            raise EmptyTestSet(f"task {t} has no test samples to dump")
    feats, _ = hat_mlp.forward(run.net, x, t)
    normed = scoring.normalize_rows(feats)
    d = feats.shape[1]
    header = (["label"] + [f"f{j}" for j in range(d)] + [f"n{j}" for j in range(d)])
    lines = [",".join(header)]
    lines += [",".join([str(c), *map(repr, f), *map(repr, u)])
              for c, f, u in zip(labels.tolist(), feats.tolist(), normed.tolist())]
    _write_text(out, "\n".join(lines) + "\n")
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


#: The commands that read each global flag; ``--quiet`` is read by all.
_FLAG_READERS = {
    "--seed": ("train", "theory-check"),
    "--out": ("train", "eval", "ood-bench", "theory-check", "dump-features"),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, readers in _FLAG_READERS.items():
            if hasattr(args, flag[2:]) and args.command not in readers:
                raise ConfigError(f"{flag} is not read by {args.command} "
                                  f"(only by {', '.join(readers)})")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TplError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
