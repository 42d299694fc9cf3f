"""End-to-end tests for the command-line interface: config validation and
exit codes, run-directory persistence, and every subcommand driven
in-process through ``main``."""

import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import math
import mmap
import os
import re
import shutil
import stat
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tpl import cli, data, evaluation, hat_mlp, numerics, scoring, theory_lab, trainer
from tpl.errors import (ConfigError, DegenerateVariance, DimensionMismatch, ParseError,
                        WriteError)
from tpl.numerics import RngState, flush_subnormals, precision_factor, whitened_sq

SEED = 3

BASE_CONFIG = {
    "schema_version": 1,
    "seed": SEED,
    "calibrate": True,
    "dataset": {
        "kind": "synthetic",
        "n_tasks": 2,
        "classes_per_task": 2,
        "dim": 6,
        "separation": 6.0,
        "train_per_class": 40,
        "test_per_class": 20,
    },
    "training": {
        "epochs": 20,
        "hidden_widths": [24, 24],
        "buffer_capacity": 60,
        "calibration_epochs": 40,
    },
}

RUN_FILES = ("config.json", "model.bin", "buffer.bin", "buffer.csv", "index.bin",
             "trajectory.json", "calibration.json")


#: Any JSON scalar (nan and infinities included: ``json`` reads them back);
#: short strings over path characters, NUL among them, come up often.
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=8) | st.text("/.~a\0", max_size=4))
#: Any JSON value, a scalar about half the time.
JSON_VALUES = JSON_LEAVES | st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def edited(draw, base: dict, optional=()):
    """``base`` with one entry, of its keys, the ``optional`` ones or an
    unknown key, set to any JSON value or removed."""
    key = draw(st.sampled_from(sorted({*base, *optional, "surprise"})))
    out = dict(base)
    if draw(st.booleans()):
        out[key] = draw(JSON_VALUES)
    else:
        out.pop(key, None)
    return out


def run_configs():
    """Any JSON value, or a valid config, synthetic or manifest, with one
    entry of its top level, ``dataset`` or ``training`` edited, so the edit
    reaches the parser's check of that entry."""
    def config(dataset=BASE_CONFIG["dataset"], training=BASE_CONFIG["training"]):
        return {**BASE_CONFIG, "dataset": dataset, "training": training}

    fields = [f.name for f in dataclasses.fields(trainer.TrainConfig)]
    return st.sampled_from([
        JSON_VALUES,
        edited(config(), cli._TOP_KEYS),
        edited(BASE_CONFIG["dataset"], cli._SYNTHETIC_KEYS).map(lambda d: config(dataset=d)),
        edited({"kind": "manifest", "path": "m.json"}).map(lambda d: config(dataset=d)),
        edited(BASE_CONFIG["training"], fields).map(lambda t: config(training=t)),
    ]).flatmap(lambda strategy: strategy)


def write_config(path: Path, out_dir: Path, **overrides) -> Path:
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["out_dir"] = str(out_dir)
    for key, value in overrides.items():
        section, _, leaf = key.partition(".")
        if leaf:
            cfg[section][leaf] = value
        else:
            cfg[section] = value
    path.write_text(json.dumps(cfg, indent=2))
    return path


def cut_to_ten_bytes(path: Path) -> None:
    path.write_bytes(path.read_bytes()[:10])


def edit_header(change):
    """Corrupter rewriting a container's JSON header, which ``change`` edits
    in place."""
    def corrupt(path: Path) -> None:
        raw = path.read_bytes()
        (n,) = struct.unpack_from("<Q", raw, 8)
        header = json.loads(raw[16:16 + n])
        change(header)
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + n:])
    return corrupt


#: A JSON array nested far beyond the interpreter's recursion limit.
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


def replace_header(blob: bytes):
    """Corrupter putting ``blob`` in place of a container's JSON header."""
    def corrupt(path: Path) -> None:
        raw = path.read_bytes()
        (n,) = struct.unpack_from("<Q", raw, 8)
        path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + n:])
    return corrupt


def append_one_byte(path: Path) -> None:
    path.write_bytes(path.read_bytes() + b"\0")


def rewrite_container(magic: bytes, change):
    """Corrupter rewriting a well-framed container whose arrays ``change``
    edits in place."""
    def corrupt(path: Path) -> None:
        header, arrays = cli._read_container(path, magic)
        change(arrays)
        cli._write_container(path, magic, header, arrays)
    return corrupt


def rewrite_stats_bin(change):
    return rewrite_container(cli._STATS_MAGIC, change)


def set_first(array_name: str, value: float):
    """Array edit setting the first entry of ``array_name`` to ``value``."""
    def change(arrays) -> None:
        arrays[array_name].flat[0] = value
    return change


def set_entry(array_name: str, index: tuple[int, ...], value: float):
    """Array edit setting one entry of ``array_name`` to ``value``."""
    def change(arrays) -> None:
        arrays[array_name][index] = value
    return change


def drop_precision_factor(arrays) -> None:
    """Array edit leaving a ``stats/task_T.bin`` as it was written before the
    precision factor was stored."""
    del arrays["precision_factor"]


def copy_sibling(name: str):
    """Corrupter creating the probed file as a copy of ``name`` beside it."""
    return lambda path: shutil.copy(path.with_name(name), path)


def edit_json(change):
    """Corrupter rewriting a JSON file whose content ``change`` edits in place."""
    def corrupt(path: Path) -> None:
        payload = json.loads(path.read_text())
        change(payload)
        path.write_text(json.dumps(payload))
    return corrupt


def drop_json_key(key: str):
    """Corrupter deleting ``key`` from a JSON object, or from a list's first one."""
    def corrupt(path: Path) -> None:
        payload = json.loads(path.read_text())
        del (payload[0] if isinstance(payload, list) else payload)[key]
        path.write_text(json.dumps(payload))
    return corrupt


def set_json_value(key: str, value):
    """Corrupter setting ``key`` of a JSON object, or of a list's first one;
    a list value at ``key`` gets its first entry set instead."""
    def corrupt(path: Path) -> None:
        payload = json.loads(path.read_text())
        target = payload[0] if isinstance(payload, list) else payload
        if isinstance(target[key], list):
            target[key][0] = value
        else:
            target[key] = value
        path.write_text(json.dumps(payload))
    return corrupt


def rewrite_buffer_bin(change):
    return rewrite_container(cli._BUFFER_MAGIC, change)


def set_buffer_entry(array_name: str, index, value: float):
    """``buffer.bin`` corrupter setting one entry of one of its arrays."""
    def change(arrays) -> None:
        arrays[array_name][index] = value
    return rewrite_buffer_bin(change)


def _append_first_row(arrays) -> None:
    for name, a in arrays.items():
        arrays[name] = np.concatenate([a, a[:1]])


repeat_first_row = rewrite_buffer_bin(_append_first_row)


def rewrite_index_bin(change):
    return rewrite_container(cli._INDEX_MAGIC, change)


def index_of_another_seed(path: Path) -> None:
    """Corrupter replacing ``index.bin`` by the index the run's config
    trains at another seed: same shapes, other features."""
    rc = cli.load_run_config(path.parent / "config.json")
    run = trainer.run_sequence(cli.build_stream(rc), rc.training, rc.seed + 1,
                               calibrate=False)
    cli._write_container(path, cli._INDEX_MAGIC, {}, cli._index_arrays(path, run))


def write_manifest_dataset(root: Path) -> Path:
    """A 2-task dataset of 3-feature CSVs under ``root`` (classes 0, 1 and
    2, 3; 30 train and 15 test rows per class); returns its manifest."""
    root.mkdir(parents=True)
    rng = np.random.default_rng(0)
    centers = {0: np.array([4.0, 0.0, 0.0]), 1: np.array([0.0, 4.0, 0.0]),
               2: np.array([0.0, 0.0, 4.0]), 3: np.array([-4.0, 0.0, 0.0])}

    def write_split(name, classes, per_class):
        lines = []
        for c in classes:
            for _ in range(per_class):
                row = centers[c] + rng.normal(size=3)
                lines.append(",".join([str(c)] + [repr(float(v)) for v in row]))
        (root / name).write_text("\n".join(lines) + "\n")

    for t, classes in ((1, (0, 1)), (2, (2, 3))):
        write_split(f"t{t}_train.csv", classes, 30)
        write_split(f"t{t}_test.csv", classes, 15)
    (root / "manifest.json").write_text(json.dumps({
        "dim": 3,
        "tasks": [
            {"task_id": 1, "classes": [0, 1],
             "train": "t1_train.csv", "test": "t1_test.csv"},
            {"task_id": 2, "classes": [2, 3],
             "train": "t2_train.csv", "test": "t2_test.csv"},
        ],
    }))
    return root / "manifest.json"


def run_cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _manifest_reader(name: str):
    """Reader case: ``tpl train`` on a manifest dataset reads its file ``name``."""
    def case(tmp_path, run_dir, probe):
        manifest = write_manifest_dataset(tmp_path / "data")
        cfg = write_config(tmp_path / "c.json", tmp_path / "out-run",
                           dataset={"kind": "manifest", "path": str(manifest)})
        return manifest.with_name(name), ["train", "--config", str(cfg), "--quiet"]
    return case


def _input_reader(command: str, *flags: str):
    """Reader case: ``command --input`` reads a copy of the probe CSV."""
    def case(tmp_path, run_dir, probe):
        path = Path(shutil.copy(probe, tmp_path / "in.csv"))
        return path, [command, "--run", str(run_dir), "--input", str(path), *flags,
                      str(tmp_path / "out.csv")]
    return case


def _run_file_reader(name: str):
    """Reader case: a command reads the file ``name`` of a copy of the run
    (``eval`` for ``trajectory.json``, ``predict`` for the rest)."""
    def case(tmp_path, run_dir, probe):
        run = Path(shutil.copytree(run_dir, tmp_path / "run"))
        if name == "trajectory.json":
            argv = ["eval", "--out", str(tmp_path / "out.json")]
        else:
            argv = ["predict", "--input", str(probe), "--output", str(tmp_path / "out.csv")]
        return run / name, [*argv, "--run", str(run)]
    return case


def _ncl_cache_reader(tmp_path, run_dir, probe):
    """Reader case: ``eval --ncl`` reads the cache file a cold run wrote."""
    argv = ["eval", "--run", str(run_dir), "--ncl", str(tmp_path / "ncl"), "--quiet"]
    code, _, err = run_cli(*argv, "--out", str(tmp_path / "cold.json"))
    assert code == 0, err
    (path,) = (tmp_path / "ncl").glob("ncl-*.json")
    return path, [*argv, "--out", str(tmp_path / "out.json")]


def _config_reader(tmp_path, run_dir, probe):
    cfg = write_config(tmp_path / "c.json", tmp_path / "out-run")
    return cfg, ["train", "--config", str(cfg), "--quiet"]


#: Every kind of file a command reads: each case returns the file and the
#: command that reads it; the command writes only paths named ``out*``.
READERS = {
    "--config": _config_reader,
    "manifest": _manifest_reader("manifest.json"),
    "manifest train CSV": _manifest_reader("t1_train.csv"),
    "predict --input": _input_reader("predict", "--output"),
    "dump-features --input": _input_reader("dump-features", "--task-id", "1", "--out"),
    "config.json": _run_file_reader("config.json"),
    "stats/task_1.json": _run_file_reader("stats/task_1.json"),
    "calibration.json": _run_file_reader("calibration.json"),
    "trajectory.json": _run_file_reader("trajectory.json"),
    "ncl cache": _ncl_cache_reader,
}


def _directory_in_place(path: Path) -> None:
    path.unlink()
    path.mkdir()


def _undecodable(path: Path) -> None:
    path.write_text("{]" if path.suffix == ".json" else "x,1.0\n")


#: Each way a read can fail: how to break the file, and what the error line
#: says after the path (``None``: the decoder's message for the file's kind).
READ_FAULTS = {
    "missing": (Path.unlink, ": missing"),
    "directory": (_directory_in_place, ": cannot read (Is a directory)"),
    "not-utf-8": (lambda path: path.write_bytes(b"\xff\xfe"),
                  ": not UTF-8 ('utf-8' codec can't decode byte 0xff in position 0: "
                  "invalid start byte)"),
    "undecodable": (_undecodable, None),
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One trained run directory shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("cli-run")
    cfg = write_config(root / "config.json", root / "run")
    code, out, err = run_cli("train", "--config", str(cfg))
    assert code == 0, err
    assert "run written to" in out
    return root / "run"


@pytest.fixture(scope="module")
def empty_buffer_run_dir(tmp_path_factory):
    """A trained 2-task run whose replay buffer holds nothing."""
    root = tmp_path_factory.mktemp("cli-empty-buffer")
    cfg = write_config(root / "c.json", root / "run",
                       **{"training.epochs": 8, "training.buffer_capacity": 0})
    code, _, err = run_cli("train", "--config", str(cfg), "--quiet")
    assert code == 0, err
    return root / "run"


# --- config parsing ----------------------------------------------------------

class TestConfigParsing:
    def test_minimal_round_trip(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", tmp_path / "run")
        rc = cli.load_run_config(cfg)
        assert rc.seed == SEED
        assert rc.calibrate is True
        assert rc.training.epochs == 20
        assert rc.training.hidden_widths == (24, 24)
        assert rc.dataset["kind"] == "synthetic"

    def test_variant_token_maps_to_internal_name(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           **{"training.score_variant": "algorithm1"})
        rc = cli.load_run_config(cfg)
        # the published token is the internal name too
        assert rc.training.score_variant == "algorithm1"
        assert cli.run_config_payload(rc)["training"]["score_variant"] == "algorithm1"

    def test_canonical_token_passes_through(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           **{"training.score_variant": "canonical"})
        assert cli.load_run_config(cfg).training.score_variant == "canonical"

    @pytest.mark.parametrize("key,value", [
        ("extra", 1),
        ("dataset.surprise", True),
        ("training.momentumm", 0.9),
    ])
    def test_unknown_keys_rejected(self, tmp_path, key, value):
        cfg = write_config(tmp_path / "c.json", tmp_path / "run", **{key: value})
        with pytest.raises(ConfigError):
            cli.load_run_config(cfg)

    @pytest.mark.parametrize("key,value", [
        ("schema_version", 2),
        ("seed", -1),
        ("seed", True),
        ("calibrate", "yes"),
        ("dataset.n_tasks", 0),
        ("dataset.separation", -1.0),
        ("dataset.kind", "parquet"),
        ("training.epochs", -1),
        ("training.score_variant", "softmax"),
        ("training.hidden_widths", []),
        ("schema_version", True),
        ("schema_version", 1.0),
    ])
    def test_bad_values_rejected(self, tmp_path, key, value):
        cfg = write_config(tmp_path / "c.json", tmp_path / "run", **{key: value})
        with pytest.raises(ConfigError):
            cli.load_run_config(cfg)

    def test_manifest_path_resolved_relative_to_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           dataset={"kind": "manifest", "path": "data/m.json"})
        rc = cli.load_run_config(cfg)
        assert rc.dataset["path"] == str((tmp_path / "data" / "m.json").resolve())

    def test_covariance_diag_length_checked(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           **{"dataset.covariance_diag": [1.0, 2.0]})
        with pytest.raises(ConfigError):
            cli.load_run_config(cfg)

    def test_malformed_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,\n  "seed": }\n')
        with pytest.raises(ConfigError, match=r":2:11"):
            cli.load_run_config(path)

    @pytest.mark.parametrize("where,edit", [
        ("out_dir", {"out_dir": "run\0"}),
        ("dataset.path", {"dataset": {"kind": "manifest", "path": "m\0.json"}}),
    ], ids=["out_dir", "dataset.path"])
    def test_nul_in_a_path_exits_2_naming_it(self, tmp_path, where, edit):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**BASE_CONFIG, **edit}))
        code, _, err = run_cli("train", "--config", str(cfg), "--quiet")
        assert code == 2, err
        assert where in err and "string without NUL characters" in err

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw=run_configs())
    @example(raw={"schema_version": 1, "dataset": {"kind": "manifest", "path": "m\0.json"}})
    def test_parser_returns_or_raises_config_error(self, tmp_path, raw):
        try:
            cli.parse_run_config(raw, tmp_path)
        except ConfigError:
            pass


# --- exit codes --------------------------------------------------------------

class TestExitCodes:
    def test_missing_config_file_is_config_error(self):
        code, _, err = run_cli("train", "--config", "/nonexistent/cfg.json")
        assert code == 2
        assert "error:" in err

    def test_malformed_json_exits_2_with_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,\n  "seed": }\n')
        code, _, err = run_cli("train", "--config", str(path))
        assert code == 2
        assert ":2:11" in err

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", tmp_path / "run", extra=1)
        code, _, err = run_cli("train", "--config", str(cfg))
        assert code == 2
        assert "unknown keys" in err

    @pytest.mark.parametrize("s_max,want", [(9.47e153, 0), (9.49e153, 2)])
    def test_s_max_above_the_annealing_bound_exits_2_naming_it(self, tmp_path, s_max, want):
        # on this config 9.49e153 used to train to a nan loss that blamed the
        # learning rate (exit 3); 9.47e153 trains
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "seed": SEED,
            "dataset": {"kind": "synthetic", "n_tasks": 2, "classes_per_task": 2, "dim": 4,
                        "separation": 6.0, "train_per_class": 50, "test_per_class": 5},
            "training": {"s_max": s_max}}))
        code, _, err = run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "run"),
                               "--quiet")
        assert code == want, err
        if want:
            assert err == (f"error: {cfg}: training: s_max must be at most "
                           "sqrt(sys.float_info.max / 2) = 9.4808e+153 (the embedding "
                           "gradient's annealing compensation grows as 2·s_max²), got "
                           "9.49e+153\n")

    def test_missing_run_dir_exits_2(self):
        code, _, _ = run_cli("eval", "--run", "/nonexistent/run")
        assert code == 2

    @pytest.mark.parametrize("edit", [
        {"tasks": 5}, {"tasks": [5]}, {"classes": 3}, {"train": 7},
        {"task_id": [1]}, {"task_id": "x"}, {"task_id": 1.7, "classes": [0.5, 1]},
        {"dim": True},
    ], ids=["tasks-5", "tasks-[5]", "classes-3", "train-7", "task_id-[1]",
            "task_id-x", "float-ids", "dim-true"])
    def test_malformed_manifest_exits_3_naming_it(self, tmp_path, edit):
        manifest = write_manifest_dataset(tmp_path / "data")
        doc = json.loads(manifest.read_text())
        for key, value in edit.items():
            (doc if key in ("tasks", "dim") else doc["tasks"][0])[key] = value
        manifest.write_text(json.dumps(doc))
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           dataset={"kind": "manifest", "path": str(manifest)})
        code, out, err = run_cli("train", "--config", str(cfg), "--quiet")
        assert code == 3, err
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error: ") and str(manifest) in line

    def test_deeply_nested_config_exits_2(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_bytes(DEEP_JSON)
        code, out, err = run_cli("train", "--config", str(path), "--quiet")
        assert code == 2, err
        assert out == ""
        assert err == f"error: {path}: JSON nested too deeply\n"

    def test_deeply_nested_manifest_exits_3_naming_it(self, tmp_path):
        manifest = tmp_path / "deep.json"
        manifest.write_bytes(DEEP_JSON)
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           dataset={"kind": "manifest", "path": str(manifest)})
        code, out, err = run_cli("train", "--config", str(cfg), "--quiet")
        assert code == 3, err
        assert out == ""
        assert err == f"error: {manifest}: JSON nested too deeply\n"

    def test_unknown_task_exits_3(self, run_dir):
        code, _, err = run_cli("dump-features", "--run", str(run_dir),
                               "--task-id", "9")
        assert code == 3
        assert "task 9" in err

    def test_predict_dimension_mismatch_exits_3(self, run_dir, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,1.0,2.0\n")
        code, _, err = run_cli("predict", "--run", str(run_dir),
                               "--input", str(bad),
                               "--output", str(tmp_path / "p.csv"))
        assert code == 3
        assert "dim" in err

    @pytest.mark.parametrize("key,value,field", [
        ("training.epochs", 2.5, "epochs"),
        ("training.hidden_widths", [8.5], "hidden_widths"),
        ("training.knn_k", 1.5, "knn_k"),
        ("training.batch_size", True, "batch_size"),
        ("training.calibration_batch", "64", "calibration_batch"),
        ("training.learning_rate", True, "learning_rate"),
        ("training.momentum", "0.9", "momentum"),
        ("training.ridge", float("nan"), "ridge"),
        ("training.score_variant", ["canonical"], "score_variant"),
        ("dataset.separation", float("nan"), "separation"),
        ("dataset.separation", float("inf"), "separation"),
        ("dataset.separation", 10**400, "separation"),
        ("training.ridge", 10**400, "ridge"),
        ("dataset.n_tasks", 2.0, "n_tasks"),
        ("dataset.test_per_class", True, "test_per_class"),
        ("dataset.covariance_diag", [True, 1, 1, 1, 1, 1], "covariance_diag[0]"),
        ("dataset.covariance_diag", [1, 1, 1, float("inf"), 1, 1], "covariance_diag[3]"),
        ("training.score_variant", "softmin", "score_variant"),
    ])
    def test_mistyped_training_value_exits_2(self, tmp_path, key, value, field):
        cfg = write_config(tmp_path / "c.json", tmp_path / "run", **{key: value})
        code, _, err = run_cli("train", "--config", str(cfg))
        assert code == 2
        assert field in err
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_input_row_exits_3_with_line(self, run_dir, tmp_path, bad):
        rows = ["0," + ",".join(["0.5"] * 6)] * 3
        rows[1] = rows[1].replace("0.5", bad, 1)
        rows.insert(1, "")  # blank lines are skipped but still counted
        path = tmp_path / "in.csv"
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out.csv"
        for argv in (["predict", "--output", str(out)],
                     ["dump-features", "--task-id", "1", "--out", str(out)]):
            code, _, err = run_cli(*argv, "--run", str(run_dir), "--input", str(path))
            assert code == 3
            assert f"{path}:3: non-finite" in err
            assert not out.exists()

    def test_non_finite_buffer_cell_exits_3_with_line(self, run_dir, tmp_path):
        bad_run = tmp_path / "run"
        shutil.copytree(run_dir, bad_run)
        set_buffer_entry("x", (4, 1), float("nan"))(bad_run / "buffer.bin")
        probe = tmp_path / "in.csv"
        probe.write_text("0," + ",".join(["0.5"] * 6) + "\n")
        for argv in (["predict", "--input", str(probe), "--output", str(tmp_path / "p.csv")],
                     ["ood-bench", "--out", str(tmp_path / "b.json"),
                      "--scatter", str(tmp_path / "s.csv")]):
            code, _, err = run_cli(*argv, "--run", str(bad_run))
            assert code == 3
            assert f"{bad_run / 'buffer.bin'}: malformed" in err
            assert "x[4, 1] holds a non-finite value" in err
        assert not any((tmp_path / name).exists() for name in ("p.csv", "b.json", "s.csv"))

    @pytest.mark.parametrize("artifact,corrupt", [
        ("model.bin", cut_to_ten_bytes),
        ("model.bin", edit_header(lambda h: h.pop("s_max"))),
        ("calibration.json", drop_json_key("sigma1")),
        ("stats/task_2.json", drop_json_key("beta_md")),
        ("calibration.json",
         lambda path: path.write_text(json.dumps(json.loads(path.read_text())[:-1]))),
        ("ncl cache", lambda path: path.write_text("{}")),
        ("model.bin", append_one_byte),
        ("stats/task_1.bin", cut_to_ten_bytes),
        ("stats/task_1.bin", append_one_byte),
        ("stats/task_1.bin", rewrite_stats_bin(
            lambda a: a.update(class_means=a["class_means"].reshape(4, -1)))),
        ("stats/task_1.bin", rewrite_stats_bin(
            lambda a: a.update(class_means=a["class_means"][:-1]))),
        ("stats/task_1.bin", Path.unlink),
        ("stats/task_9.bin", copy_sibling("task_2.bin")),
        ("calibration.json", set_json_value("sigma1", float("nan"))),
        ("calibration.json", set_json_value("sigma2", True)),
        ("stats/task_2.json", set_json_value("beta_md", float("nan"))),
        ("stats/task_2.json", set_json_value("beta_md", "1e3")),
        ("stats/task_1.bin", rewrite_stats_bin(set_first("class_means", float("nan")))),
        ("model.bin", rewrite_container(cli._MODEL_MAGIC,
                                        set_first("head_bias.2", float("inf")))),
        ("trajectory.json", set_json_value("trajectory", float("nan"))),
        ("trajectory.json", set_json_value("trajectory", 1.5)),
        ("ncl cache", set_json_value("pooled", {"1": 1.5, "2": 0.5})),
        ("buffer.bin", set_buffer_entry("tasks", 0, 3.0)),
        ("buffer.bin", set_buffer_entry("labels", -1, 99.0)),
        ("buffer.bin", repeat_first_row),
        ("buffer.bin", Path.unlink),
        ("buffer.bin", lambda path: path.write_bytes(cli._STATS_MAGIC + path.read_bytes()[4:])),
        ("buffer.bin", rewrite_buffer_bin(lambda a: a.update(x=a["x"][:, :-1]))),
        ("stats/task_2.json", drop_json_key("classes")),
        ("stats/task_2.json", set_json_value("classes", 2.0)),
        ("stats/task_2.json", lambda path: path.write_text(
            json.dumps({**json.loads(path.read_text()), "classes": [2, 3, 4]}))),
        ("index.bin", Path.unlink),
        ("index.bin", lambda path: path.write_bytes(cli._BUFFER_MAGIC + path.read_bytes()[4:])),
        ("index.bin", rewrite_index_bin(lambda a: a.update({"own.1": a["own.1"][:-1]}))),
        ("index.bin", rewrite_index_bin(
            lambda a: a.update({name: v[:, :-1] for name, v in a.items()}))),
        ("index.bin", cut_to_ten_bytes),
        ("index.bin", append_one_byte),
        ("index.bin", index_of_another_seed),
        ("index.bin", rewrite_index_bin(set_first("own.2", 0.5))),
        ("index.bin", rewrite_index_bin(set_first("knn.1", 0.5))),
        ("model.bin", rewrite_container(cli._MODEL_MAGIC, lambda a: a.update(
            {"past_masks.1": a["past_masks.1"][:5]}))),
        ("model.bin", rewrite_container(cli._MODEL_MAGIC, lambda a: a.update(
            {"head_weight.2": np.zeros((3, 9))}))),
        ("model.bin", edit_header(lambda h: h.update(s_max="400"))),
        ("model.bin", edit_header(lambda h: h.update(s_max=-5.0))),
        ("calibration.json", set_json_value("task_id", 1.9)),
        ("calibration.json", set_json_value("task_id", True)),
        ("calibration.json", set_json_value("task_id", "1")),
        ("stats/task_1.json", set_json_value("task_id", 1.0)),
        ("stats/task_1.json", set_json_value("task_id", True)),
        ("stats/task_1.bin", edit_header(lambda h: h.update(task_id=1.0))),
        ("stats/task_1.bin", edit_header(lambda h: h.update(task_id=True))),
        ("trajectory.json", drop_json_key("per_task")),
        ("trajectory.json", edit_json(lambda p: p.update(trajectory=p["trajectory"][:1]))),
        ("trajectory.json", edit_json(lambda p: p["per_task"]["2"].pop("1"))),
        ("trajectory.json", edit_json(lambda p: p["per_task"]["2"].update({"01": 0.0}))),
        ("calibration.json", edit_json(lambda records: records.append(
            {**records[0], "sigma1": 2.0}))),
        ("calibration.json", lambda path: path.write_bytes(DEEP_JSON)),
        ("model.bin", replace_header(DEEP_JSON)),
        ("config.json", cut_to_ten_bytes),
        ("config.json", edit_json(lambda p: p.update(surprise=1))),
        ("ncl cache", edit_json(lambda p: p["pooled"].update({"01": 0.0}))),
        ("trajectory.json", drop_json_key("til")),
        ("trajectory.json", edit_json(lambda p: p["til"].update({"1": 1.5}))),
        ("trajectory.json", edit_json(lambda p: p["til"].pop("2"))),
        ("trajectory.json", edit_json(lambda p: p["til"].update({"3": 0.5}))),
        ("trajectory.json", edit_json(lambda p: p["til"].update({"01": 0.5}))),
        ("stats/task_2.bin", rewrite_stats_bin(set_entry("precision_factor", (0, 1), 0.5))),
        ("stats/task_2.bin", rewrite_stats_bin(set_entry("precision_factor", (3, 3), -1.0))),
    ], ids=["model-cut", "model-no-s_max", "calibration-no-sigma1",
            "stats-no-beta_md", "calibration-missing-task", "ncl-cache-empty",
            "model-trailing-byte", "stats-bin-cut", "stats-bin-trailing-byte",
            "stats-bin-wrong-header-shape", "stats-bin-class-missing",
            "stats-bin-missing", "stats-task-not-in-model",
            "calibration-sigma1-nan", "calibration-sigma2-bool", "stats-beta_md-nan",
            "stats-beta_md-string", "stats-bin-nan-mean", "model-inf-head-bias",
            "trajectory-nan", "trajectory-above-one", "ncl-cache-above-one",
            "buffer-task-not-in-run", "buffer-label-not-in-task", "buffer-over-capacity",
            "buffer-bin-missing", "buffer-bin-wrong-magic", "buffer-bin-wrong-width",
            "stats-no-classes", "stats-class-not-integer",
            "stats-classes-more-than-the-head", "index-bin-missing",
            "index-bin-wrong-magic", "index-bin-own-row-missing", "index-bin-wrong-width",
            "index-bin-cut", "index-bin-trailing-byte", "index-bin-of-another-seed",
            "index-bin-own-row-off", "index-bin-knn-row-off",
            "model-past-mask-short", "model-head-weight-wrong-width",
            "model-s_max-string", "model-s_max-negative",
            "calibration-task_id-fraction", "calibration-task_id-bool",
            "calibration-task_id-string", "stats-task_id-float", "stats-task_id-bool",
            "stats-bin-task_id-float", "stats-bin-task_id-bool",
            "trajectory-no-per_task", "trajectory-one-entry-short",
            "trajectory-per_task-row-short", "trajectory-per_task-task-spelled-twice",
            "calibration-task-repeated", "calibration-nested-too-deeply",
            "model-header-nested-too-deeply", "config-cut", "config-unknown-key",
            "ncl-cache-task-spelled-twice", "trajectory-no-til", "trajectory-til-above-one",
            "trajectory-til-task-missing", "trajectory-til-extra-task",
            "trajectory-til-task-spelled-twice", "stats-bin-factor-above-diagonal",
            "stats-bin-factor-diagonal-negative"])
    def test_malformed_artifact_exits_3_naming_the_file(self, run_dir, probe_file,
                                                        tmp_path, artifact, corrupt):
        bad_run = tmp_path / "run"
        shutil.copytree(run_dir, bad_run)
        if artifact == "ncl cache":
            ncl_dir = tmp_path / "ncl"
            argv = ["eval", "--ncl", str(ncl_dir), "--out", str(tmp_path / "m.json")]
            code, _, err = run_cli(*argv, "--run", str(bad_run), "--quiet")
            assert code == 0, err
            (path,) = ncl_dir.glob("ncl-*.json")
        elif artifact == "trajectory.json":
            path = bad_run / artifact
            argv = ["eval", "--out", str(tmp_path / "m.json")]
        else:
            path = bad_run / artifact
            argv = ["predict", "--input", str(probe_file[0]),
                    "--output", str(tmp_path / "p.csv")]
        corrupt(path)
        commands = [argv]
        if artifact == "index.bin":  # every reader of the index asks to retrain
            commands += [["eval", "--out", str(tmp_path / "m.json")],
                         ["ood-bench", "--out", str(tmp_path / "b.json"),
                          "--scatter", str(tmp_path / "s.csv")]]
        for argv in commands:
            code, _, err = run_cli(*argv, "--run", str(bad_run))
            assert code == 3, err
            assert str(path) in err
            assert "Traceback" not in err
            if artifact != "ncl cache":  # every run-directory file
                assert err.rstrip().endswith("retrain the run")

    @pytest.mark.parametrize("corrupt,where", [
        (set_buffer_entry("tasks", 0, 3.0), "row 0: task 3 is not a task of this run"),
        (set_buffer_entry("labels", -1, 99.0),
         "row 59: label 99 is not a class of task 2 (classes [2, 3])"),
        (repeat_first_row, "row 60: 61 rows, more than buffer_capacity 60"),
        (set_buffer_entry("labels", 7, 0.5), "row 7: label 0.5 and task 1.0 must be integers"),
        (set_buffer_entry("tasks", 59, 1.0), "row 59: label 3 is not a class of task 1"),
    ], ids=["task", "label", "capacity", "fractional-label", "label-of-another-task"])
    def test_bad_buffer_row_exits_3_with_its_line(self, run_dir, probe_file, tmp_path,
                                                 corrupt, where):
        bad_run = tmp_path / "run"
        shutil.copytree(run_dir, bad_run)
        corrupt(bad_run / "buffer.bin")
        code, _, err = run_cli("predict", "--run", str(bad_run), "--input",
                               str(probe_file[0]), "--output", str(tmp_path / "p.csv"))
        assert code == 3
        assert f"{bad_run / 'buffer.bin'}: {where}" in err

    def test_class_listed_under_two_tasks_exits_3(self, run_dir, probe_file, tmp_path):
        bad_run = tmp_path / "run"
        shutil.copytree(run_dir, bad_run)
        set_json_value("classes", 1)(bad_run / "stats" / "task_2.json")
        code, _, err = run_cli("predict", "--run", str(bad_run), "--input",
                               str(probe_file[0]), "--output", str(tmp_path / "p.csv"))
        assert code == 3
        path = bad_run / "stats" / "task_2.json"
        assert f"{path}: class 1 is already listed under task 1" in err

    @pytest.mark.parametrize("artifact", [
        "config.json", "model.bin", "stats/task_1.json", "stats/task_1.bin",
        "buffer.bin", "index.bin", "calibration.json"])
    def test_every_artifact_load_run_reads_deleted_exits_3_asking_to_retrain(
            self, run_dir, probe_file, tmp_path, artifact):
        bad_run = tmp_path / "run"
        shutil.copytree(run_dir, bad_run)
        (bad_run / artifact).unlink()
        code, out, err = run_cli("predict", "--run", str(bad_run), "--input",
                                 str(probe_file[0]), "--output", str(tmp_path / "p.csv"))
        assert code == 3, err
        assert out == ""
        assert err == f"error: {bad_run / artifact}: missing; retrain the run\n"
        assert not (tmp_path / "p.csv").exists()

    def test_run_directory_without_stored_classes_or_buffer_bin_asks_to_retrain(
            self, run_dir, probe_file, tmp_path):
        # the layout before class ids and the binary buffer were stored
        old_run = tmp_path / "run"
        shutil.copytree(run_dir, old_run)
        (old_run / "buffer.bin").unlink()
        argv = ["predict", "--run", str(old_run), "--input", str(probe_file[0]),
                "--output", str(tmp_path / "p.csv")]
        code, _, err = run_cli(*argv)
        assert code == 3
        assert f"{old_run / 'buffer.bin'}: missing" in err and "retrain the run" in err
        for t in (1, 2):
            drop_json_key("classes")(old_run / "stats" / f"task_{t}.json")
        code, _, err = run_cli(*argv)
        assert code == 3
        assert f"{old_run / 'stats' / 'task_1.json'}: malformed" in err
        assert "retrain the run" in err

    @pytest.mark.parametrize("reader,fault", [
        (reader, fault) for reader in READERS for fault in READ_FAULTS
        if (reader, fault) != ("ncl cache", "missing")  # a missing cache is trained anew
    ])
    def test_every_reader_and_read_fault_exits_with_one_line_naming_the_file(
            self, run_dir, probe_file, tmp_path, reader, fault):
        path, argv = READERS[reader](tmp_path, run_dir, probe_file[0])
        break_file, problem = READ_FAULTS[fault]
        break_file(path)
        if problem is None:  # content that does not decode
            problem = (":1:2: Expecting property name enclosed in double quotes"
                       if path.suffix == ".json"
                       else ":1: invalid literal for int() with base 10: 'x'")
        code, out, err = run_cli(*argv)
        in_run = tmp_path / "run" in path.parents
        assert code == (2 if reader == "--config" else 3), err
        assert out == ""
        assert err == f"error: {path}{problem}{'; retrain the run' if in_run else ''}\n"
        assert not list(tmp_path.glob("out*"))

    def test_eval_rejects_a_dataset_whose_classes_differ_from_the_run(self, run_dir,
                                                                      tmp_path):
        bad_run = tmp_path / "run"
        shutil.copytree(run_dir, bad_run)
        # both classes stay in task 2, so the buffer still loads
        stats = bad_run / "stats" / "task_2.json"
        stats.write_text(json.dumps({**json.loads(stats.read_text()), "classes": [3, 2]}))
        code, _, err = run_cli("eval", "--run", str(bad_run), "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert "differ from the run's" in err
        assert not (tmp_path / "m.json").exists()

    def test_model_tasks_must_match_the_config(self, run_dir, probe_file, tmp_path):
        bad_run = tmp_path / "run"
        shutil.copytree(run_dir, bad_run)
        cfg = json.loads((bad_run / "config.json").read_text())
        cfg["dataset"]["n_tasks"] = 3
        (bad_run / "config.json").write_text(json.dumps(cfg))
        code, _, err = run_cli("predict", "--run", str(bad_run), "--input",
                               str(probe_file[0]), "--output", str(tmp_path / "p.csv"))
        assert code == 3, err
        assert f"{bad_run / 'model.bin'}: holds tasks [1, 2], the run has tasks [1, 2, 3]" in err

    @pytest.mark.parametrize("argv,flag,value,least", [
        (("train",), "--seed", -1, 0),
        (("theory-check", "--case", "sec41"), "--seed", -1, 0),
        (("theory-check", "--case", "density"), "--seed", -1, 0),
        # 0 must not fall back to the default
        (("theory-check", "--case", "sec41"), "--samples", 0, theory_lab.MIN_EMPIRICAL_N),
        (("theory-check", "--case", "sec41"), "--samples",
         theory_lab.MIN_EMPIRICAL_N - 1, theory_lab.MIN_EMPIRICAL_N),
        (("theory-check", "--case", "dominance"), "--samples",
         theory_lab.MIN_EMPIRICAL_N - 1, theory_lab.MIN_EMPIRICAL_N),
        (("theory-check", "--case", "density"), "--samples", 0, theory_lab.MIN_PROBES),
        (("theory-check", "--case", "density"), "--samples",
         theory_lab.MIN_PROBES - 1, theory_lab.MIN_PROBES),
    ])
    def test_flag_below_its_minimum_exits_2(self, tmp_path, argv, flag, value, least):
        out = tmp_path / "out"
        if argv[0] == "train":
            argv += ("--config", str(write_config(tmp_path / "c.json", out)))
        code, _, err = run_cli(*argv, flag, str(value), "--out", str(out), "--quiet")
        assert code == 2, err
        assert f"{flag} must be >= {least}, got {value}" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        (["eval"], "--seed"), (["ood-bench"], "--seed"),
        (["dump-features", "--task-id", "1"], "--seed"),
        (["predict", "--input", "in.csv", "--output", "out.csv"], "--seed"),
        (["predict", "--input", "in.csv", "--output", "out.csv"], "--out"),
    ])
    @pytest.mark.parametrize("before", [False, True], ids=["after", "before"])
    def test_a_global_flag_the_command_does_not_read_exits_2(
            self, run_dir, tmp_path, monkeypatch, argv, flag, before):
        monkeypatch.chdir(tmp_path)  # relative paths land in tmp_path
        given = [flag, "99" if flag == "--seed" else "out.json"]
        code, out, err = run_cli(*(given + argv if before else argv + given),
                                 "--run", str(run_dir))
        assert (code, out) == (2, ""), err
        assert err == (f"error: {flag} is not read by {argv[0]} "
                       f"(only by {', '.join(cli._FLAG_READERS[flag])})\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("target,problem", [
        ("afile", "it is not a directory"),
        ("afile/run", "{tmp}/afile is not a directory"),
        ("afile/deeper/run", "{tmp}/afile is not a directory"),
    ])
    def test_train_refuses_an_output_directory_it_cannot_make_before_training(
            self, tmp_path, monkeypatch, target, problem):
        (tmp_path / "afile").write_text("a regular file")
        calls = []
        monkeypatch.setattr(trainer, "run_sequence", lambda *a, **k: calls.append(a))
        out = tmp_path / target
        cfg = write_config(tmp_path / "c.json", out)
        code, stdout, err = run_cli("train", "--config", str(cfg))
        assert (code, stdout, calls) == (2, "", [])
        assert err == (f"error: {out}: cannot be a run directory "
                       f"({problem.format(tmp=tmp_path)})\n")
        assert (tmp_path / "afile").read_text() == "a regular file"

    def test_a_non_finite_loss_stops_training_at_once(self, tmp_path, monkeypatch):
        """A diverging step ends ``train`` in the batch whose loss is nan, with
        one error line naming the task and epoch and no numpy warning (any
        ``RuntimeWarning`` fails this suite)."""
        calls = []
        monkeypatch.setattr(trainer, "compute_task_stats", lambda *a, **k: calls.append(a))
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           **{"training.learning_rate": 1e300, "training.epochs": 4})
        code, stdout, err = run_cli("train", "--config", str(cfg))
        assert (code, stdout, calls) == (3, "", [])
        assert err == ("error: task 1, epoch 2: training loss is nan; "
                       "lower the learning_rate or rescale the features\n")
        assert not (tmp_path / "run").exists()

    def test_a_separation_whose_mean_distances_overflow_is_a_config_error(
            self, tmp_path, monkeypatch):
        """Class means 1e300 apart overflow their squared distances: the config
        is refused before any draw, with no warning (any ``RuntimeWarning``
        fails this suite)."""
        calls = []
        monkeypatch.setattr(data, "generate_gaussian_stream",
                            lambda *a, **k: calls.append(a))
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           **{"dataset.separation": 1e300, "training.epochs": 4})
        code, stdout, err = run_cli("train", "--config", str(cfg))
        assert (code, stdout, calls) == (2, "", [])
        assert err == (f"error: {cfg}: dataset.separation: 1e+300 is above "
                       f"{data.MAX_SEPARATION:.6g}, where the squared distances "
                       "between class means overflow\n")
        assert not (tmp_path / "run").exists()

    def test_the_largest_separation_draws_no_overflow_at_the_largest_radius(self):
        radius = max(data.MAX_SEPARATION, 1.0) * 1.5 ** (data._MAX_RADIUS_ESCALATIONS - 1)
        for dim in (2, 6, 64):
            v = np.ones(dim)
            a = v * (radius / np.linalg.norm(v))
            g = a - (-a)  # two antipodal means, as far apart as the sphere allows
            with np.errstate(over="raise"):
                assert math.isfinite(g.dot(g))
        data.generate_gaussian_stream(2, 2, 6, data.MAX_SEPARATION, 1, 1, RngState(0))

    def test_bad_usage_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            with contextlib.redirect_stderr(io.StringIO()):
                cli.main(["train"])  # --config is required
        assert exc.value.code == 2


# --- train and the run directory --------------------------------------------

class TestTrain:
    def test_run_directory_layout(self, run_dir):
        for name in RUN_FILES:
            assert (run_dir / name).is_file(), name
        assert not (run_dir / "scores.bin").exists()
        stats = sorted(p.name for p in (run_dir / "stats").iterdir())
        assert stats == ["task_1.bin", "task_1.json", "task_2.bin", "task_2.json"]

    def test_trajectory_payload(self, run_dir):
        payload = json.loads((run_dir / "trajectory.json").read_text())
        assert payload["score_kind"] == "tpl"
        assert payload["calibrated"] is True
        assert len(payload["trajectory"]) == 2
        assert set(payload["til"]) == {"1", "2"}
        assert set(payload["per_task"]["2"]) == {"1", "2"}
        assert all(0.0 <= v <= 1.0 for v in payload["trajectory"])

    def test_builds_one_context_per_task_the_calibration_fit_and_the_stored_scores(
            self, tmp_path, monkeypatch):
        calls = {"indexed_context": 0, "replay_index": 0}
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(scoring, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(scoring, name, counting)
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           **{"dataset.n_tasks": 3, "training.epochs": 4})
        code, _, err = run_cli("train", "--config", str(cfg), "--quiet")
        assert code == 0, err
        assert calls["indexed_context"] == 3 + 1 + 1
        # one replay forward per checkpoint: the calibration fit, the
        # ood-bench rows and the last checkpoint share the finished run's index
        assert calls["replay_index"] == 3

    def test_retraining_fewer_tasks_deletes_only_the_old_task_files(self, tmp_path,
                                                                     probe_file):
        out = tmp_path / "run"
        for n_tasks in (5, 3):
            cfg = write_config(tmp_path / f"c{n_tasks}.json", out,
                               **{"dataset.n_tasks": n_tasks, "training.epochs": 4})
            code, _, err = run_cli("train", "--config", str(cfg), "--quiet")
            assert code == 0, err
            (out / "stats" / "notes.txt").write_text("kept")
        stats = sorted(p.name for p in (out / "stats").iterdir())
        assert stats == ["notes.txt"] + [f"task_{t}{ext}" for t in (1, 2, 3)
                                         for ext in (".bin", ".json")]
        code, _, err = run_cli("predict", "--run", str(out), "--input", str(probe_file[0]),
                               "--output", str(tmp_path / "p.csv"))
        assert code == 0, err

    def test_training_into_an_earlier_layout_deletes_its_scores_bin(self, tmp_path):
        """An earlier layout of the run directory stored ``scores.bin``; no
        reader is left for it, so a new run in that directory removes it."""
        out = tmp_path / "run"
        out.mkdir()
        (out / "scores.bin").write_bytes(b"left by an earlier layout")
        cfg = write_config(tmp_path / "c.json", out, **{"training.epochs": 4})
        code, _, err = run_cli("train", "--config", str(cfg), "--quiet")
        assert code == 0, err
        assert sorted(p.name for p in out.iterdir()) == sorted([*RUN_FILES, "stats"])

    def test_stdout_reports_trajectory(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           **{"dataset.n_tasks": 1, "training.epochs": 8})
        code, out, _ = run_cli("train", "--config", str(cfg))
        assert code == 0
        assert "A<=1" in out

    def test_quiet_suppresses_stdout(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           **{"dataset.n_tasks": 1, "training.epochs": 8})
        code, out, _ = run_cli("train", "--config", str(cfg), "--quiet")
        assert code == 0
        assert out == ""

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", tmp_path / "runA",
                           **{"dataset.n_tasks": 1, "training.epochs": 8})
        code, _, _ = run_cli("train", "--config", str(cfg), "--seed", "11")
        assert code == 0
        stored = json.loads((tmp_path / "runA" / "config.json").read_text())
        assert stored["seed"] == 11

    def test_seed_flag_accepted_before_subcommand(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", tmp_path / "runB",
                           **{"dataset.n_tasks": 1, "training.epochs": 8})
        code, _, _ = run_cli("--seed", "12", "train", "--config", str(cfg))
        assert code == 0
        stored = json.loads((tmp_path / "runB" / "config.json").read_text())
        assert stored["seed"] == 12

    def test_out_flag_required_when_config_has_no_out_dir(self, tmp_path):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli("train", "--config", str(path))
        assert code == 2
        assert "out" in err

    def test_manifest_dataset_trains_and_evals(self, tmp_path):
        write_manifest_dataset(tmp_path / "data")
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           dataset={"kind": "manifest", "path": "data/manifest.json"},
                           **{"training.epochs": 15, "training.buffer_capacity": 40})
        code, _, err = run_cli("train", "--config", str(cfg), "--quiet")
        assert code == 0, err
        code, _, err = run_cli("eval", "--run", str(tmp_path / "run"), "--quiet")
        assert code == 0, err
        report = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert len(report["trajectory"]) == 2
        assert report["a_last"] >= 0.8


class TestPersistence:
    def test_model_file_round_trips_bitwise(self, run_dir, tmp_path):
        original = (run_dir / "model.bin").read_bytes()
        net = cli.load_model(run_dir / "model.bin")
        cli.save_model(tmp_path / "copy.bin", net)
        assert (tmp_path / "copy.bin").read_bytes() == original

    def test_model_bad_magic_rejected(self, run_dir, tmp_path):
        raw = bytearray((run_dir / "model.bin").read_bytes())
        raw[:4] = b"XXXX"
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(Exception, match="magic"):
            cli.load_model(bad)

    def test_load_run_reconstructs_scoring_state(self, run_dir):
        run, rc = cli.load_run(run_dir)
        assert run.task_ids() == [1, 2]
        assert sorted(run.stats) == [1, 2]
        assert run.net.input_dim == 6
        assert len(run.buffer) == 60
        assert run.buffer.labels.tolist() == [0] * 15 + [1] * 15 + [2] * 15 + [3] * 15
        assert run.buffer.tasks.tolist() == [1] * 30 + [2] * 30
        assert set(run.calibration) == {1, 2}
        ctx = scoring.context_from_run(run, calibrated=rc.calibrate)
        assert run.task_classes == {1: (0, 1), 2: (2, 3)}
        ds = cli.build_stream(rc).tasks[0]
        preds = scoring.predict(ctx, ds.test_x)
        assert np.mean(preds.global_class == ds.test_y) >= 0.9

    @pytest.mark.parametrize("overrides", [
        {}, {"calibrate": False}, {"dataset.n_tasks": 1},
    ], ids=["calibrated", "uncalibrated", "single-task"])
    def test_calibration_round_trips_exactly(self, tmp_path, overrides):
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           **{"training.epochs": 4, **overrides})
        rc = cli.load_run_config(cfg)
        run = trainer.run_sequence(cli.build_stream(rc), rc.training, rc.seed,
                                   calibrate=rc.calibrate)
        assert sorted(run.calibration) == run.task_ids()
        cli.save_run(run, rc, tmp_path / "run", {})
        loaded, _ = cli.load_run(tmp_path / "run")
        assert loaded.calibration == run.calibration

    def test_saved_stats_hold_only_what_load_run_reads(self, run_dir):
        rc = cli.load_run_config(run_dir / "config.json")
        trained = trainer.run_sequence(cli.build_stream(rc), rc.training, rc.seed,
                                       calibrate=rc.calibrate)
        loaded, _ = cli.load_run(run_dir)
        for t in (1, 2):
            payload = json.loads((run_dir / "stats" / f"task_{t}.json").read_text())
            assert set(payload) == {"task_id", "classes", "beta_mls", "beta_md"}
            assert tuple(payload["classes"]) == trained.task_classes[t]
            assert loaded.task_classes[t] == trained.task_classes[t]
            got, want = loaded.stats[t], trained.stats[t]
            for name in ("class_means", "precision", "precision_factor"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            assert (got.beta_mls, got.beta_md) == (want.beta_mls, want.beta_md)

    def test_model_bin_keeps_the_v1_framing(self, run_dir, tmp_path):
        net = cli.load_model(run_dir / "model.bin")
        # a model.bin written before the header was padded loads the same net,
        # which the writer frames alike, the header space-padded to 64 bytes
        (tmp_path / "old.bin").write_bytes(v1_model_bytes(net))
        cli.save_model(tmp_path / "model.bin", cli.load_model(tmp_path / "old.bin"))
        raw = (tmp_path / "model.bin").read_bytes()
        assert raw == v1_model_bytes(net, align=64)
        (header_len,) = struct.unpack_from("<Q", raw, 8)
        assert (16 + header_len) % 64 == 0

    def test_empty_buffer_round_trips(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           **{"dataset.n_tasks": 1, "training.epochs": 8,
                              "training.buffer_capacity": 0})
        code, _, err = run_cli("train", "--config", str(cfg), "--quiet")
        assert code == 0, err
        assert (tmp_path / "run" / "buffer.csv").read_text() == ""
        run, _ = cli.load_run(tmp_path / "run")
        assert len(run.buffer) == 0
        probe = tmp_path / "in.csv"
        probe.write_text("0," + ",".join(["0.5"] * 6) + "\n")
        code, _, err = run_cli("predict", "--run", str(tmp_path / "run"), "--input",
                               str(probe), "--output", str(tmp_path / "p.csv"))
        assert code == 0, err

    def test_a_buffer_row_below_the_norm_floor_loads_and_serves(self, tmp_path):
        """Seed 1 of this config gives buffer row 0 a task-1 feature norm below
        the floor of ``scoring.normalize_rows``, which the second of the index's
        two normalizations turns into a unit row.  ``load_run``'s spot check
        rebuilds its rows through the same ``scoring.index_rows``, so the run
        ``train`` wrote is the run every reader accepts."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "schema_version": 1, "seed": 1,
            "dataset": {"kind": "synthetic", "n_tasks": 2, "classes_per_task": 1, "dim": 4,
                        "separation": 6.0, "train_per_class": 20, "test_per_class": 5},
            "training": {"epochs": 2, "hidden_widths": [8], "buffer_capacity": 10}}))
        rd = tmp_path / "run"
        code, _, err = run_cli("train", "--config", str(cfg), "--out", str(rd), "--quiet")
        assert code == 0, err
        run, _ = cli.load_run(rd)
        feats = hat_mlp.features(run.net, run.buffer.x[:1], 1)
        assert np.linalg.norm(feats) < scoring._NORM_FLOOR
        probe = tmp_path / "probe.csv"
        probe.write_text("0," + ",".join(map(repr, run.buffer.x[0].tolist())) + "\n")
        for argv in (["eval", "--run", str(rd), "--out", str(tmp_path / "m.json")],
                     ["ood-bench", "--run", str(rd), "--out", str(tmp_path / "o.json")],
                     ["predict", "--run", str(rd), "--input", str(probe),
                      "--output", str(tmp_path / "p.csv")]):
            code, _, err = run_cli(*argv, "--quiet")
            assert code == 0, (argv[0], err)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(x=hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.just(6)),
                        elements=st.floats(allow_nan=False, allow_infinity=False)),
           picks=st.lists(st.integers(0, 3), min_size=12, max_size=12))
    @example(x=np.full((2, 6), -1.7e308), picks=[0] * 12)  # overflows the extractor
    def test_buffer_round_trips_bit_for_bit(self, run_dir, tmp_path, x, picks):
        run, rc = cli.load_run(run_dir)
        owner = {c: t for t, classes in run.task_classes.items() for c in classes}
        labels = np.array(sorted(owner), dtype=np.int64)[picks[: x.shape[0]]]
        tasks = np.array([owner[c] for c in labels.tolist()], dtype=np.int64)
        run.buffer = trainer.ReplayBuffer(rc.training.buffer_capacity, x, labels, tasks)
        out = tmp_path / "run"
        # rows near the float64 limit overflow the features of the KNN index
        with np.errstate(all="ignore"):
            run.replay_index = scoring.replay_index(run.net, run.buffer, run.task_ids())
            if all(np.isfinite(a).all() for index in run.replay_index for a in index.values()):
                cli.save_run(run, rc, out, {})
                loaded = cli.load_run(out)[0].buffer
            else:
                with pytest.raises(ValueError, match=re.escape(
                        f"{out / 'index.bin'}: not written: ") + r".* holds a non-finite"):
                    cli.save_run(run, rc, out, {})
                out.mkdir(exist_ok=True)
                cli._save_buffer(out / "buffer.bin", run.buffer)
                loaded = cli._load_buffer(out / "buffer.bin", rc.training.buffer_capacity,
                                          run.net.input_dim, run.task_classes)
        assert loaded.capacity == run.buffer.capacity
        for name in ("x", "labels", "tasks"):
            got, want = getattr(loaded, name), getattr(run.buffer, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    def test_every_buffer_bin_prefix_and_one_extra_byte_exit_3(self, run_dir, probe_file,
                                                               tmp_path):
        run, rc = cli.load_run(run_dir)
        buf = run.buffer
        run.buffer = trainer.ReplayBuffer(buf.capacity, buf.x[:2], buf.labels[:2],
                                          buf.tasks[:2])
        run.replay_index = scoring.replay_index(run.net, run.buffer, run.task_ids())
        out = tmp_path / "run"
        cli.save_run(run, rc, out, {})
        path = out / "buffer.bin"
        raw = path.read_bytes()
        argv = ["predict", "--run", str(out), "--input", str(probe_file[0]),
                "--output", str(tmp_path / "p.csv")]
        assert run_cli(*argv)[0] == 0
        for blob in [raw[:k] for k in range(len(raw))] + [raw + b"\0"]:
            path.write_bytes(blob)
            code, _, err = run_cli(*argv)
            assert code == 3, len(blob)
            assert str(path) in err

    @pytest.mark.parametrize("which", ["run_dir", "single_task_run_dir",
                                       "empty_buffer_run_dir"])
    def test_loaded_index_equals_a_forward_built_one(self, request, which):
        run, _ = cli.load_run(request.getfixturevalue(which))
        loaded = scoring.context_from_run(run)
        fresh = scoring.build_context(run.net, run.stats, run.buffer, run.config,
                                      run.task_classes, run.calibration)
        source = run.buffer.tasks
        for t in run.task_ids():
            for got, want, rows in ((loaded.knn_index[t], fresh.knn_index[t], source != t),
                                    (loaded.own_index[t], fresh.own_index[t], source == t)):
                assert got.shape == want.shape == (np.count_nonzero(rows),
                                                   run.net.feature_dim)
                assert got.tobytes() == want.tobytes()
        if which == "single_task_run_dir":
            assert loaded.knn_index[1].shape[0] == 0 < loaded.own_index[1].shape[0]

    def test_both_context_paths_warn_about_empty_views(self, empty_buffer_run_dir, caplog):
        run, _ = cli.load_run(empty_buffer_run_dir)
        for build in (lambda: scoring.context_from_run(run),
                      lambda: scoring.build_context(run.net, run.stats, run.buffer,
                                                    run.config, run.task_classes)):
            caplog.clear()
            with caplog.at_level("WARNING"):
                build()
            messages = [r.getMessage() for r in caplog.records]
            assert any("empty cross-task replay view" in m for m in messages)
            assert any("empty own-class replay view" in m for m in messages)

    def test_save_run_refuses_a_stale_index(self, run_dir, tmp_path):
        run, rc = cli.load_run(run_dir)
        buf = run.buffer
        run.buffer = trainer.ReplayBuffer(buf.capacity, buf.x[:2], buf.labels[:2],
                                          buf.tasks[:2])
        with pytest.raises(ValueError, match=re.escape(
                f"{tmp_path / 'run' / 'index.bin'}: not written")):
            cli.save_run(run, rc, tmp_path / "run", {})
        assert not (tmp_path / "run").exists()
        # refused before anything changes: an earlier run in the directory stays whole
        old = tmp_path / "old"
        shutil.copytree(run_dir, old)
        before = {p: p.read_bytes() for p in old.rglob("*") if p.is_file()}
        with pytest.raises(ValueError, match="not written"):
            cli.save_run(run, rc, old, {})
        assert {p: p.read_bytes() for p in old.rglob("*") if p.is_file()} == before

    def test_every_index_bin_prefix_and_one_extra_byte_exit_3(self, run_dir, probe_file,
                                                              tmp_path):
        run, rc = cli.load_run(run_dir)
        buf = run.buffer
        keep = [0, -1]  # one row of each task keeps the index small
        run.buffer = trainer.ReplayBuffer(buf.capacity, buf.x[keep], buf.labels[keep],
                                          buf.tasks[keep])
        run.replay_index = scoring.replay_index(run.net, run.buffer, run.task_ids())
        out = tmp_path / "run"
        cli.save_run(run, rc, out, {})
        path = out / "index.bin"
        raw = path.read_bytes()
        argv = ["predict", "--run", str(out), "--input", str(probe_file[0]),
                "--output", str(tmp_path / "p.csv")]
        assert run_cli(*argv)[0] == 0
        for blob in [raw[:k] for k in range(len(raw))] + [raw + b"\0"]:
            path.write_bytes(blob)
            code, _, err = run_cli(*argv)
            assert code == 3, len(blob)
            assert str(path) in err

    def test_second_save_is_byte_identical(self, run_dir, tmp_path):
        run, rc = cli.load_run(run_dir)
        payload = json.loads((run_dir / "trajectory.json").read_text())
        out = tmp_path / "resaved"
        cli.save_run(run, rc, out, payload)
        for name in RUN_FILES:
            if name == "config.json":
                continue  # out_dir field differs by design
            assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


#: The benchmark's two shapes at their full widths, with fewer rows and
#: epochs: ``desk`` (5 tasks x 2 classes, 16 features, widths 64-64, buffer
#: 200) and ``many-tasks`` (8 x 5, 32 features, widths 96-96, buffer 800).
WIDE_SHAPES = {
    "desk": {"dataset.n_tasks": 5, "dataset.classes_per_task": 2, "dataset.dim": 16,
             "dataset.train_per_class": 30, "training.hidden_widths": [64, 64],
             "training.buffer_capacity": 200},
    "many-tasks": {"dataset.n_tasks": 8, "dataset.classes_per_task": 5, "dataset.dim": 32,
                   "dataset.train_per_class": 25, "training.hidden_widths": [96, 96],
                   "training.buffer_capacity": 800},
}
SHAPED_RUNS = [(shape, seed, variant) for shape in WIDE_SHAPES for seed in (1, 7)
               for variant in ("canonical", "algorithm1")]


@pytest.fixture(scope="module")
def shaped_run(tmp_path_factory):
    """``get(shape, seed, variant)``: the (trained, saved and loaded, test
    rows) of a small run of that shape, trained on first use."""
    cache = {}

    def get(shape, seed, variant):
        if (shape, seed, variant) not in cache:
            root = tmp_path_factory.mktemp(f"{shape}-{seed}-{variant}")
            cfg = write_config(root / "c.json", root / "run", seed=seed, **WIDE_SHAPES[shape],
                               **{"dataset.test_per_class": 5, "training.epochs": 2,
                                  "training.calibration_epochs": 5,
                                  "training.score_variant": variant})
            rc = cli.load_run_config(cfg)
            stream = cli.build_stream(rc)
            run = trainer.run_sequence(stream, rc.training, rc.seed, calibrate=True)
            cli.save_run(run, rc, root / "run", {})
            x = np.concatenate([d.test_x for d in stream.tasks])
            cache[shape, seed, variant] = run, cli.load_run(root / "run")[0], x
        return cache[shape, seed, variant]
    return get


class TestKernelReadyRunState:
    """A run keeps its scoring state as the kernels read it: index rows
    normalized twice and each precision's Cholesky factor, with subnormal
    entries flushed to 0.  Every score keeps the bits the per-call
    normalization and factorization gave."""

    @pytest.mark.parametrize("shape,seed,variant", SHAPED_RUNS)
    def test_index_rows_and_factors_are_stored_as_the_kernels_read_them(
            self, shaped_run, shape, seed, variant):
        run, loaded, _ = shaped_run(shape, seed, variant)
        source = run.buffer.tasks
        for t in run.task_ids():
            feats = hat_mlp.features(run.net, run.buffer.x, t)
            twice = flush_subnormals(scoring.normalize_rows(scoring.normalize_rows(feats)))
            factor = flush_subnormals(np.linalg.cholesky(run.stats[t].precision))
            for held in (run, loaded):
                knn, own = held.replay_index
                assert knn[t].tobytes() == twice[source != t].tobytes()
                assert own[t].tobytes() == twice[source == t].tobytes()
                assert held.stats[t].precision_factor.tobytes() == factor.tobytes()

    @pytest.mark.parametrize("shape,seed,variant", SHAPED_RUNS)
    def test_bundle_columns_equal_the_public_kernels_on_the_raw_state(
            self, shaped_run, shape, seed, variant):
        run, loaded, x = shaped_run(shape, seed, variant)
        for held in (run, loaded):
            ctx = scoring.context_from_run(held)
            bundle = scoring.compute_bundle(ctx, x)
            for j, t in enumerate(ctx.task_ids):
                feats, _ = hat_mlp.forward(held.net, x, t)
                once = scoring.normalize_rows(hat_mlp.features(held.net, held.buffer.x, t))
                mine = held.buffer.tasks == t
                for column, rows in ((bundle.knn_dist, ~mine), (bundle.knn_own, mine)):
                    want = (scoring.knn_kth_distance(scoring.knn_queries(feats),
                                                     scoring.normalize_rows(once[rows]), ctx.k)
                            if rows.any() else np.zeros(x.shape[0]))
                    assert column[:, j].tobytes() == want.tobytes(), (t, rows.sum())
                st = held.stats[t]
                d2 = np.min(whitened_sq(feats, st.class_means, precision_factor(st.precision)),
                            axis=1)
                want = 1.0 / np.maximum(d2, scoring.MD_FLOOR)
                assert bundle.md[:, j].tobytes() == want.tobytes(), t

    @pytest.mark.parametrize("shape,seed,variant", SHAPED_RUNS)
    def test_predict_on_the_loaded_run_equals_predict_on_the_trained_one(
            self, shaped_run, shape, seed, variant):
        run, loaded, x = shaped_run(shape, seed, variant)
        for kind in scoring.SCORE_KINDS:
            got = scoring.predict(scoring.context_from_run(loaded), x, kind)
            want = scoring.predict(scoring.context_from_run(run), x, kind)
            for field in dataclasses.fields(scoring.Predictions):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert a.tobytes() == b.tobytes(), (kind, field.name)

    def test_flushing_the_stored_subnormals_changes_no_output_byte(self, tmp_path,
                                                                  monkeypatch):
        def arrays(run):
            """Every array of the run's two binary files, by (file, name)."""
            files = {"stats/task_1.bin": cli._STATS_MAGIC, "stats/task_2.bin": cli._STATS_MAGIC,
                     "index.bin": cli._INDEX_MAGIC}
            return {(name, k): a for name, magic in files.items()
                    for k, a in cli._read_container(run / name, magic)[1].items()}

        def subnormal(a):
            return (a != 0) & (np.abs(a) < np.finfo(float).tiny)

        cfg = write_config(tmp_path / "c.json", tmp_path / "unused", seed=1)
        runs = {"raw": tmp_path / "raw", "flushed": tmp_path / "flushed"}
        with monkeypatch.context() as m:
            for module in (numerics, trainer, scoring):
                m.setattr(module, "flush_subnormals", lambda a: a)
            assert run_cli("train", "--config", str(cfg), "--out", str(runs["raw"]))[0] == 0
        assert run_cli("train", "--config", str(cfg), "--out", str(runs["flushed"]))[0] == 0
        raw, flushed = arrays(runs["raw"]), arrays(runs["flushed"])
        # seed 1 of the base config stores subnormal means, factor entries and
        # rows of both indexes when nothing flushes them
        for operand in ("class_means", "precision_factor", "knn.", "own."):
            assert any(subnormal(a).any() for (_, k), a in raw.items()
                       if k.startswith(operand)), operand
        assert raw.keys() == flushed.keys()
        for key, a in raw.items():  # the precision is stored as fitted
            want = a if key[1] == "precision" else flush_subnormals(a.copy())
            assert flushed[key].tobytes() == want.tobytes(), key
            assert key[1] == "precision" or not subnormal(flushed[key]).any(), key

        probe = tmp_path / "probe.csv"
        ds = cli.build_stream(cli.load_run_config(cfg)).tasks[0]
        probe.write_text("".join(",".join([str(int(y)), *map(repr, row)]) + "\n"
                                 for y, row in zip(ds.test_y.tolist(), ds.test_x.tolist())))
        stdout = {}
        for name, run in runs.items():
            out = tmp_path / f"{name}-out"
            out.mkdir()
            stdout[name] = [run_cli(*argv)[:2] for argv in (
                ["eval", "--run", str(run), "--out", str(out / "metrics.json")],
                ["ood-bench", "--run", str(run), "--out", str(out / "ood_bench.json"),
                 "--scatter", str(out / "ood_scatter.csv")],
                ["predict", "--run", str(run), "--input", str(probe),
                 "--output", str(out / "predictions.csv")])]
            assert [code for code, _ in stdout[name]] == [0, 0, 0]
        assert ([o.replace(str(runs["raw"]), "<run>") for _, o in stdout["raw"]]
                == [o.replace(str(runs["flushed"]), "<run>") for _, o in stdout["flushed"]])
        for name in ("metrics.json", "ood_bench.json", "ood_scatter.csv", "predictions.csv"):
            assert ((tmp_path / "raw-out" / name).read_bytes()
                    == (tmp_path / "flushed-out" / name).read_bytes()), name
        for name in ("trajectory.json", "calibration.json", "model.bin", "buffer.bin",
                     "buffer.csv", "stats/task_1.json", "stats/task_2.json"):
            assert (runs["raw"] / name).read_bytes() == (runs["flushed"] / name).read_bytes()

    def test_predict_factors_no_precision_and_normalizes_no_index_row(
            self, run_dir, probe_file, tmp_path, monkeypatch):
        factored, normalized, loads = [], [], []
        cholesky, normalize, load_run = np.linalg.cholesky, scoring.normalize_rows, cli.load_run
        monkeypatch.setattr(np.linalg, "cholesky", lambda m: factored.append(m) or cholesky(m))
        monkeypatch.setattr(scoring, "normalize_rows",
                            lambda f: normalized.append(f) or normalize(f))
        monkeypatch.setattr(cli, "load_run", lambda d: loads.append(load_run(d)) or loads[-1])
        code, _, err = run_cli("predict", "--run", str(run_dir), "--input",
                               str(probe_file[0]), "--output", str(tmp_path / "p.csv"))
        assert code == 0, err
        ((run, _),) = loads
        index = [a for views in run.replay_index for a in views.values()]
        assert factored == []
        assert normalized  # the queries, and the spot rows load_run forwards
        assert not any(np.may_share_memory(f, a) for f in normalized for a in index)

    def test_a_run_written_before_the_factor_was_stored_exits_3_before_its_index(
            self, run_dir, probe_file, tmp_path, monkeypatch):
        old = tmp_path / "run"
        shutil.copytree(run_dir, old)
        for t in (1, 2):
            rewrite_stats_bin(drop_precision_factor)(old / "stats" / f"task_{t}.bin")
        monkeypatch.setattr(cli, "_load_index", lambda *a: pytest.fail("index.bin was read"))
        code, out, err = run_cli("predict", "--run", str(old), "--input", str(probe_file[0]),
                                 "--output", str(tmp_path / "p.csv"))
        assert (code, out) == (3, "")
        assert err == (f"error: {old / 'stats' / 'task_1.bin'}: malformed (ValueError: "
                       "holds arrays ['class_means', 'precision'], the model needs "
                       "['class_means', 'precision', 'precision_factor']); "
                       "retrain the run\n")
        assert not (tmp_path / "p.csv").exists()


#: Each command that writes a report, CSV or cache, with the output flag
#: under test set to ``target`` and every other output in ``tmp``.
WRITERS = {
    "predict --output": lambda run, probe, tmp, target: [
        "predict", "--run", run, "--input", probe, "--output", target],
    "eval --out": lambda run, probe, tmp, target: ["eval", "--run", run, "--out", target],
    "eval --ncl --out": lambda run, probe, tmp, target: [
        "eval", "--run", run, "--ncl", tmp / "ncl", "--out", target],
    "ood-bench --out": lambda run, probe, tmp, target: [
        "ood-bench", "--run", run, "--out", target, "--scatter", tmp / "s.csv"],
    "ood-bench --scatter": lambda run, probe, tmp, target: [
        "ood-bench", "--run", run, "--out", tmp / "b.json", "--scatter", target],
    "theory-check --out": lambda run, probe, tmp, target: [
        "theory-check", "--case", "density", "--samples", "50", "--out", target],
    "dump-features --out": lambda run, probe, tmp, target: [
        "dump-features", "--run", run, "--task-id", "1", "--input", probe, "--out", target],
}

#: The first step of each writer's work after its output paths are checked:
#: none of them may run when a path cannot be written.
WRITER_WORK = {
    "predict --output": (cli, "load_run"),
    "eval --out": (cli, "_load_trajectory"),
    "eval --ncl --out": (evaluation, "build_ncl_reference"),
    "ood-bench --out": (cli, "_load_trajectory"),
    "ood-bench --scatter": (cli, "_load_trajectory"),
    "theory-check --out": (theory_lab, "density_estimator_check"),
    "dump-features --out": (data, "read_feature_file"),
}

#: Each way a write can fail: the output path under ``tmp`` it is made at,
#: and the reason the error line gives.
WRITE_FAULTS = {
    "missing parent": (lambda tmp: tmp / "nodir" / "out", "No such file or directory"),
    "parent is a file": (lambda tmp: tmp / "afile" / "out", "Not a directory"),
    "target is a directory": (lambda tmp: tmp / "adir", "Is a directory"),
}

#: The text files ``train`` writes into the run directory, each a target of
#: the writer tests: a directory in its place fails the write.
RUN_TEXT_FILES = ("config.json", "stats/task_1.json", "buffer.csv", "trajectory.json",
                  "calibration.json")


class TestWriters:
    @pytest.mark.parametrize("writer,fault", [
        (writer, fault) for writer in WRITERS for fault in WRITE_FAULTS])
    def test_every_writer_and_write_fault_exits_3_with_one_line_naming_the_file(
            self, run_dir, probe_file, tmp_path, monkeypatch, writer, fault):
        (tmp_path / "afile").write_text("a regular file")
        (tmp_path / "adir").mkdir()
        loads = []
        load_run = cli.load_run
        monkeypatch.setattr(cli, "load_run", lambda d: loads.append(d) or load_run(d))
        make_target, reason = WRITE_FAULTS[fault]
        target = make_target(tmp_path)
        argv = WRITERS[writer](run_dir, probe_file[0], tmp_path, target)
        code, out, err = run_cli(*map(str, argv))
        assert (code, out) == (3, "")
        assert err == f"error: {target}: cannot write ({reason})\n"
        if writer == "predict --output":  # checked before the run is loaded
            assert loads == []

    @pytest.mark.parametrize("writer,fault", [
        (writer, fault) for writer in WRITERS for fault in WRITE_FAULTS])
    def test_an_unwritable_output_stops_the_command_before_any_work_or_file(
            self, run_dir, probe_file, tmp_path, monkeypatch, writer, fault):
        (tmp_path / "afile").write_text("a regular file")
        (tmp_path / "adir").mkdir()

        def files():
            return {p: p.read_bytes() for root in (tmp_path, run_dir)
                    for p in root.rglob("*") if p.is_file()}

        before = files()
        module, name = WRITER_WORK[writer]
        work, calls = getattr(module, name), []
        monkeypatch.setattr(module, name,
                            lambda *a, **k: calls.append(name) or work(*a, **k))
        make_target, reason = WRITE_FAULTS[fault]
        target = make_target(tmp_path)
        argv = WRITERS[writer](run_dir, probe_file[0], tmp_path, target)
        code, out, err = run_cli(*map(str, argv))
        assert (code, out, err) == (3, "", f"error: {target}: cannot write ({reason})\n")
        assert calls == []
        assert files() == before

    @pytest.mark.parametrize("name", RUN_TEXT_FILES)
    def test_a_run_text_file_that_cannot_be_written_exits_3_with_one_line_naming_it(
            self, tmp_path, name):
        cfg = write_config(tmp_path / "c.json", tmp_path / "run", **{"training.epochs": 2})
        target = tmp_path / "run" / name
        target.mkdir(parents=True)
        code, out, err = run_cli("train", "--config", str(cfg), "--quiet")
        assert (code, out, err) == (3, "", f"error: {target}: cannot write (Is a directory)\n")

    @pytest.mark.parametrize("cache_dir,reason", [
        ("afile", "File exists"), ("afile/ncl", "Not a directory"),
    ], ids=["a-file", "below-a-file"])
    def test_an_ncl_cache_directory_that_cannot_be_made_exits_3_naming_it(
            self, run_dir, tmp_path, cache_dir, reason):
        (tmp_path / "afile").write_text("a regular file")
        target = tmp_path / cache_dir
        code, out, err = run_cli("eval", "--run", str(run_dir), "--ncl", str(target),
                                 "--out", str(tmp_path / "m.json"))
        assert (code, out) == (3, "")
        assert err == f"error: {target}: cannot write ({reason})\n"

    @pytest.mark.parametrize("name,make,reason", [
        ("stats", lambda path: path.write_text("a regular file"), "File exists"),
        ("scores.bin", Path.mkdir, "Is a directory"),
        ("stats/task_7.json", Path.mkdir, "Is a directory"),
    ], ids=["stats-is-a-file", "scores-bin-is-a-directory", "stale-stats-file-is-a-directory"])
    def test_a_run_directory_that_cannot_be_prepared_exits_3_with_one_line_naming_it(
            self, tmp_path, name, make, reason):
        cfg = write_config(tmp_path / "c.json", tmp_path / "run", **{"training.epochs": 2})
        target = tmp_path / "run" / name
        target.parent.mkdir(parents=True)
        make(target)
        code, out, err = run_cli("train", "--config", str(cfg), "--quiet")
        assert (code, out, err) == (3, "", f"error: {target}: cannot write ({reason})\n")

    @pytest.mark.parametrize("fault,message", [
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
         "{out}: cannot write (No space left on device)"),
        (MemoryError(), "out of memory: an allocation failed"),
    ], ids=["disk-full", "out-of-memory"])
    def test_a_text_write_that_fails_partway_leaves_the_old_file_and_no_temporary(
            self, run_dir, probe_file, tmp_path, monkeypatch, fault, message):
        out = tmp_path / "p.csv"
        argv = ["predict", "--run", str(run_dir), "--input", str(probe_file[0]),
                "--output", str(out)]
        assert run_cli(*argv)[0] == 0
        old = out.read_bytes()
        opened, real_open = [], open

        class FailingPartway:
            """A file whose first write stores half its bytes, then raises."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, chunk):
                self.fh.write(chunk[:len(chunk) // 2])
                self.fh.flush()
                opened.append(Path(self.fh.name).read_bytes())
                raise fault

        def open_failing_partway(file, mode="r", **kwargs):
            fh = real_open(file, mode, **kwargs)
            return FailingPartway(fh) if "w" in mode else fh

        monkeypatch.setattr(data, "open", open_failing_partway, raising=False)
        code, stdout, err = run_cli(*argv)
        assert (code, stdout, err) == (3, "", f"error: {message.format(out=out)}\n")
        assert len(opened) == 1 and 0 < len(opened[0]) < len(old)
        assert out.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]

    def test_an_output_symlink_is_replaced_and_its_target_kept(
            self, run_dir, probe_file, tmp_path):
        kept = tmp_path / "kept.csv"
        kept.write_text("kept\n")
        out = tmp_path / "p.csv"
        out.symlink_to(kept)
        code, _, err = run_cli("predict", "--run", str(run_dir), "--input",
                               str(probe_file[0]), "--output", str(out))
        assert code == 0, err
        assert not out.is_symlink() and out.read_text().startswith("row,")
        assert kept.read_text() == "kept\n"

    def test_an_output_name_near_the_file_system_limit_is_written(
            self, run_dir, probe_file, tmp_path):
        out = tmp_path / ("p" * 246 + ".csv")  # 250 bytes, under the usual 255
        code, _, err = run_cli("predict", "--run", str(run_dir), "--input",
                               str(probe_file[0]), "--output", str(out))
        assert code == 0, err
        assert [p.name for p in tmp_path.iterdir()] == [out.name]

    def test_a_special_file_is_refused_as_an_output_before_any_work(
            self, run_dir, probe_file, tmp_path, monkeypatch):
        target = tmp_path / "fifo"
        os.mkfifo(target)
        monkeypatch.setattr(cli, "load_run", lambda d: pytest.fail("the run was loaded"))
        code, out, err = run_cli("predict", "--run", str(run_dir), "--input",
                                 str(probe_file[0]), "--output", str(target))
        assert (code, out, err) == (3, "", f"error: {target}: cannot write (not a regular file)\n")
        assert stat.S_ISFIFO(target.stat().st_mode)


def v1_container_bytes(magic: bytes, header: dict, arrays: list, align: int = 1) -> bytes:
    """A container in the v1 framing: magic, version, header length, the
    sorted-key JSON header listing the ``(name, array)`` pairs ``arrays``,
    space-padded so the data section starts at a multiple of ``align``
    bytes, then the arrays as little-endian f8.  ``align=1`` is the framing
    written before the header was padded."""
    blob = json.dumps({**header, "arrays": [{"name": name, "shape": list(a.shape)}
                                            for name, a in arrays]},
                      sort_keys=True).encode("utf-8")
    blob += b" " * (-(16 + len(blob)) % align)
    return (magic + struct.pack("<I", 1) + struct.pack("<Q", len(blob)) + blob
            + b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in arrays))


def v1_model_bytes(net, align: int = 1) -> bytes:
    """``model.bin`` as the v1 writer framed it before the container was
    shared (``v1_container_bytes``)."""
    arrays = ([(f"weights.{l}", w) for l, w in enumerate(net.weights)]
              + [(f"biases.{l}", b) for l, b in enumerate(net.biases)]
              + [(f"past_masks.{l}", m) for l, m in enumerate(net.past_masks)])
    for t in net.task_ids():
        arrays += [(f"embeddings.{t}.{l}", e) for l, e in enumerate(net.embeddings[t])]
        arrays += [(f"head_weight.{t}", net.heads[t].weight),
                   (f"head_bias.{t}", net.heads[t].bias)]
    header = {
        "input_dim": net.input_dim,
        "hidden_widths": list(net.hidden_widths),
        "s_max": net.s_max,
        "n_past_masks": len(net.past_masks),
        "tasks": {str(t): net.heads[t].n_classes for t in net.task_ids()},
    }
    return v1_container_bytes(b"TPLM", header, arrays, align)


def loaded_run_arrays(run) -> list[np.ndarray]:
    """Every float array of a loaded run that holds a container's values as
    stored (the buffer's labels and tasks are converted to integers)."""
    net = run.net
    arrays = [*net.weights, *net.biases, *net.past_masks, run.buffer.x]
    for t in net.task_ids():
        stats = run.stats[t]
        arrays += [*net.embeddings[t], net.heads[t].weight, net.heads[t].bias,
                   stats.class_means, stats.precision, stats.precision_factor]
    return arrays + [index[t] for index in run.replay_index for t in index]


def maps_a_file(a: np.ndarray) -> bool:
    """Whether ``a`` is a view of a file mapping."""
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(a, memoryview) and isinstance(a.obj, mmap.mmap)


def unpad_container(path: Path) -> bool:
    """Rewrite a container with its header unpadded, as written before the
    padding; whether its data section then starts off an 8-byte boundary."""
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<Q", raw, 8)
    blob = raw[16:16 + n].rstrip(b" ")
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + raw[16 + n:])
    return (16 + len(blob)) % 8 != 0


def float_bits(*bits: int) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


# Any finite float64 bit pattern: -0.0, subnormals, the largest magnitudes.
ANY_FINITE_FLOAT64_ARRAY = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


class TestContainer:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(task_id=st.integers(-2**40, 2**40),
           arrays=st.dictionaries(st.text(min_size=1, max_size=6),
                                  ANY_FINITE_FLOAT64_ARRAY, max_size=4))
    @example(task_id=0, arrays={
        "specials": float_bits(0x8000000000000000,   # -0.0
                               0x0000000000000001,   # smallest subnormal
                               0x000FFFFFFFFFFFFF,   # largest subnormal
                               0xFFEFFFFFFFFFFFFF),  # most negative finite
        "empty": np.zeros((0, 3)),
        "empty-inner": np.zeros((2, 0, 5)),
        "scalar": np.array(-0.0),
    })
    def test_round_trips_bit_for_bit(self, tmp_path, task_id, arrays):
        path = tmp_path / "c.bin"
        cli._write_container(path, cli._STATS_MAGIC, {"task_id": task_id}, arrays)
        header, loaded = cli._read_container(path, cli._STATS_MAGIC)
        assert header == {"task_id": task_id}
        assert list(loaded) == list(arrays)
        for name, a in arrays.items():
            assert loaded[name].dtype == np.float64
            assert loaded[name].shape == a.shape
            assert loaded[name].tobytes() == a.tobytes(), name
            assert loaded[name].flags.writeable, name

    def test_every_prefix_and_one_extra_byte_are_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        cli._write_container(path, cli._STATS_MAGIC, {"task_id": 1}, {
            "a": np.arange(6.0).reshape(2, 3), "none": np.zeros((0, 2)),
            "b": np.array([-0.0]),
        })
        raw = path.read_bytes()
        for blob in [raw[:k] for k in range(len(raw))] + [raw + b"\0"]:
            path.write_bytes(blob)
            with pytest.raises(ParseError, match=re.escape(str(path))):
                cli._read_container(path, cli._STATS_MAGIC)

    @pytest.mark.parametrize("bits", [0x7FF0000000000001, 0xFFF8000000000ABC,
                                      0x7FF0000000000000, 0xFFF0000000000000],
                             ids=["signalling-nan", "negative-nan-payload", "inf", "-inf"])
    def test_non_finite_array_is_rejected(self, tmp_path, bits):
        path = tmp_path / "c.bin"
        values = np.concatenate([np.arange(3.0), float_bits(bits)])
        cli._write_container(path, cli._STATS_MAGIC, {"task_id": 1}, {"a": values})
        with pytest.raises(ParseError, match=re.escape(str(path)) + ".*non-finite"):
            cli._read_container(path, cli._STATS_MAGIC)

    def test_wrong_magic_is_rejected(self, run_dir):
        with pytest.raises(ParseError, match="magic"):
            cli._read_container(run_dir / "model.bin", cli._STATS_MAGIC)

    @pytest.mark.parametrize("fault,raised", [
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), WriteError),
        (MemoryError(), MemoryError),
    ], ids=["disk-full", "out-of-memory"])
    def test_a_write_that_fails_partway_leaves_the_old_file_and_no_temporary(
            self, tmp_path, monkeypatch, fault, raised):
        path = tmp_path / "c.bin"
        cli._write_container(path, cli._STATS_MAGIC, {"task_id": 1}, {"a": np.arange(3.0)})
        old = path.read_bytes()
        convert, calls = np.ascontiguousarray, []

        def fail_on_the_second_array(a, dtype=None):
            calls.append(a)
            if len(calls) == 2:
                raise fault
            return convert(a, dtype=dtype)

        monkeypatch.setattr(np, "ascontiguousarray", fail_on_the_second_array)
        with pytest.raises(raised) as info:
            cli._write_container(path, cli._STATS_MAGIC, {"task_id": 2},
                                 {"a": np.ones(4), "b": np.ones(5)})
        assert len(calls) == 2  # the header and the first array were written
        if raised is WriteError:
            assert str(info.value) == f"{path}: cannot write (No space left on device)"
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["c.bin"]

    @pytest.mark.parametrize("note", range(8))
    def test_an_unaligned_container_loads_bit_for_bit(self, tmp_path, note):
        # a header of each length modulo 8 puts the data section at every
        # offset a container written before the padding can have
        arrays = [("specials", float_bits(0x8000000000000000, 0x0000000000000001,
                                          0xFFEFFFFFFFFFFFFF)),
                  ("m", np.arange(12.0).reshape(3, 4) / 7), ("none", np.zeros((0, 2)))]
        path = tmp_path / "c.bin"
        path.write_bytes(v1_container_bytes(cli._STATS_MAGIC, {"note": "x" * note},
                                            arrays))
        header, loaded = cli._read_container(path, cli._STATS_MAGIC)
        assert header == {"note": "x" * note}
        assert list(loaded) == [name for name, _ in arrays]
        for name, a in arrays:
            assert loaded[name].shape == a.shape
            assert loaded[name].tobytes() == a.tobytes(), name
            assert loaded[name].flags.aligned and loaded[name].flags.writeable, name

    def test_loaded_arrays_keep_their_values_when_train_rewrites_the_run(
            self, run_dir, probe_file, tmp_path):
        run_copy = tmp_path / "run"
        shutil.copytree(run_dir, run_copy)
        run, _ = cli.load_run(run_copy)
        arrays = loaded_run_arrays(run)
        assert all(maps_a_file(a) for a in arrays)
        before = [a.tobytes() for a in arrays]
        model = (run_copy / "model.bin").read_bytes()
        code, _, err = run_cli("train", "--config", str(run_copy / "config.json"),
                               "--out", str(run_copy), "--seed", str(SEED + 1), "--quiet")
        assert code == 0, err
        assert (run_copy / "model.bin").read_bytes() != model
        assert [a.tobytes() for a in arrays] == before
        for _ in range(2):  # the second pass rewrites both files
            code, _, err = run_cli("eval", "--run", str(run_copy), "--quiet")
            assert code == 0, err
            code, _, err = run_cli("predict", "--run", str(run_copy), "--input",
                                   str(probe_file[0]), "--output", str(run_copy / "p.csv"),
                                   "--quiet")
            assert code == 0, err
        assert {"metrics.json", "p.csv"} <= {p.name for p in run_copy.iterdir()}
        assert not list(run_copy.rglob("*.tmp"))

    def test_a_run_written_before_the_header_padding_predicts_the_same_bytes(
            self, run_dir, probe_file, tmp_path):
        old = tmp_path / "old"
        shutil.copytree(run_dir, old)
        containers = [old / "model.bin", old / "buffer.bin", old / "index.bin",
                      *sorted((old / "stats").glob("*.bin"))]
        unaligned = [unpad_container(path) for path in containers]
        assert any(unaligned)  # so loading copies at least one data section
        outputs = []
        for run in (run_dir, old):
            out = tmp_path / f"{run.name}.csv"
            code, _, err = run_cli("predict", "--run", str(run), "--input",
                                   str(probe_file[0]), "--output", str(out))
            assert code == 0, err
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


# --- eval --------------------------------------------------------------------

class TestEval:
    def test_metrics_written_and_sane(self, run_dir):
        code, out, err = run_cli("eval", "--run", str(run_dir))
        assert code == 0, err
        report = json.loads((run_dir / "metrics.json").read_text())
        assert len(report["trajectory"]) == 2
        assert report["a_last"] == report["trajectory"][-1]
        assert abs(report["a_aia"] - np.mean(report["trajectory"])) < 1e-12
        assert report["a_last"] >= 0.9
        assert set(report["ood"]) == {"1", "2"}
        assert report["ood_mean"] >= 0.9
        assert report["f_cil_last"] is None
        assert "A_last" in out

    def test_run_trained_without_tests_has_no_trajectory_to_report(self, tmp_path):
        # trajectory.json holds an empty trajectory and per_task: a consistent
        # file, so eval refuses for the missing test rows, not a malformed file
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           **{"dataset.test_per_class": 0, "training.epochs": 4})
        code, out, err = run_cli("train", "--config", str(cfg))
        assert code == 0, err
        assert "trajectory skipped" in out
        code, _, err = run_cli("eval", "--run", str(tmp_path / "run"))
        assert code == 3
        assert "no stored trajectory (trained without tests)" in err

    def test_ncl_reference_enables_forgetting(self, run_dir, tmp_path):
        ncl_dir = tmp_path / "ncl"
        code, _, err = run_cli("eval", "--run", str(run_dir),
                               "--ncl", str(ncl_dir))
        assert code == 0, err
        report = json.loads((run_dir / "metrics.json").read_text())
        assert report["f_cil_last"] is not None
        assert report["f_cil_aia"] is not None
        caches = list(ncl_dir.glob("ncl-*.json"))
        assert len(caches) == 1
        # second call reuses the cache and reproduces the numbers exactly
        before = (run_dir / "metrics.json").read_bytes()
        code, _, _ = run_cli("eval", "--run", str(run_dir), "--ncl", str(ncl_dir))
        assert code == 0
        assert (run_dir / "metrics.json").read_bytes() == before
        assert list(ncl_dir.glob("ncl-*.json")) == caches

    def test_a_non_finite_reference_loss_exits_3_and_caches_nothing(
            self, run_dir, tmp_path, monkeypatch):
        """A joint-reference step whose loss is nan ends ``eval --ncl`` with one
        error line naming the prefix and epoch; no cache or report is written."""
        monkeypatch.setattr(hat_mlp, "train_step", lambda *a, **k: math.nan)
        ncl_dir, out = tmp_path / "ncl", tmp_path / "m.json"
        code, stdout, err = run_cli("eval", "--run", str(run_dir), "--ncl", str(ncl_dir),
                                    "--out", str(out))
        assert (code, stdout) == (3, "")
        assert err == ("error: joint reference for prefix 1, epoch 1: training loss is "
                       "nan; lower the learning_rate or rescale the features\n")
        assert list(ncl_dir.iterdir()) == [] and not out.exists()

    def test_ncl_cache_of_an_older_reference_is_not_read(self, run_dir, tmp_path):
        # the key the cache had before it named the reference's version; a
        # cache under it may hold a reference trained with leaky gates
        rc = cli.load_run_config(run_dir / "config.json")
        old_key = hashlib.sha256(cli._dump_json({
            "dataset": rc.dataset, "seed": rc.seed,
            "training": cli.run_config_payload(rc)["training"],
        }).encode("utf-8")).hexdigest()[:16]
        planted = tmp_path / "ncl" / f"ncl-{old_key}.json"
        planted.parent.mkdir()
        planted.write_text(json.dumps({
            "per_task": {"1": {"1": 0.125}, "2": {"1": 0.125, "2": 0.125}},
            "pooled": {"1": 0.125, "2": 0.125},
        }))
        sentinel = planted.read_bytes()
        for ncl_dir in (planted.parent, tmp_path / "fresh"):
            code, _, err = run_cli("eval", "--run", str(run_dir), "--ncl", str(ncl_dir),
                                   "--out", str(ncl_dir / "m.json"), "--quiet")
            assert code == 0, err
        assert planted.read_bytes() == sentinel
        assert len(list(planted.parent.glob("ncl-*.json"))) == 2
        assert ((planted.parent / "m.json").read_bytes()
                == (tmp_path / "fresh" / "m.json").read_bytes())

    def test_metrics_equal_the_in_memory_report(self, run_dir, tmp_path):
        # eval reads the stored trajectory; compute_report on the same run
        # trained in memory recomputes it from the checkpoints
        rc = cli.load_run_config(run_dir / "config.json")
        stream = cli.build_stream(rc)
        run = trainer.run_sequence(stream, rc.training, rc.seed, calibrate=rc.calibrate)
        ncl = evaluation.build_ncl_reference(stream, rc.training, rc.seed)
        for ncl_argv, ref in (([], None), (["--ncl", str(tmp_path / "ncl")], ncl)):
            out = tmp_path / "metrics.json"
            code, _, err = run_cli("eval", "--run", str(run_dir), "--out", str(out),
                                   "--quiet", *ncl_argv)
            assert code == 0, err
            expected = evaluation.compute_report(run, stream, ref)
            assert json.loads(out.read_text()) == expected.as_dict()

    def test_single_task_metrics_have_no_detection_auc(self, single_task_run_dir,
                                                        tmp_path):
        out = tmp_path / "metrics.json"
        code, _, err = run_cli("eval", "--run", str(single_task_run_dir),
                               "--out", str(out), "--quiet")
        assert code == 0, err
        report = json.loads(out.read_text())
        assert report["ood"] == {}
        assert report["ood_mean"] is None

    def test_train_then_eval_reproduces_metrics_bitwise(self, tmp_path):
        blobs = []
        for name in ("first", "second"):
            cfg = write_config(tmp_path / f"{name}.json", tmp_path / name)
            code, _, err = run_cli("train", "--config", str(cfg), "--quiet")
            assert code == 0, err
            code, _, err = run_cli("eval", "--run", str(tmp_path / name), "--quiet")
            assert code == 0, err
            blobs.append((tmp_path / name / "metrics.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_reports_need_no_train_csv_but_the_joint_reference_does(self, tmp_path):
        manifest = write_manifest_dataset(tmp_path / "data")
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           dataset={"kind": "manifest", "path": str(manifest)},
                           **{"training.epochs": 4, "training.buffer_capacity": 40})
        code, _, err = run_cli("train", "--config", str(cfg), "--quiet")
        assert code == 0, err
        run = str(tmp_path / "run")
        commands = {
            "metrics.json": ["eval"],
            "bench.json": ["ood-bench", "--scatter", str(tmp_path / "scatter.csv")],
        }

        def reports() -> dict[str, str | bytes]:
            got = {}
            for name, argv in commands.items():
                code, got[argv[0]], err = run_cli(*argv, "--run", run,
                                                  "--out", str(tmp_path / name))
                assert code == 0, err
            for name in (*commands, "scatter.csv"):
                got[name] = (tmp_path / name).read_bytes()
            return got

        before = reports()
        for t in (1, 2):
            (tmp_path / "data" / f"t{t}_train.csv").unlink()
        assert reports() == before
        # the joint (NCL) reference trains on the training split
        code, out, err = run_cli("eval", "--run", run, "--ncl", str(tmp_path / "ncl"))
        assert code == 3 and out == ""
        assert err == f"error: {tmp_path / 'data' / 't1_train.csv'}: missing\n"

    def test_test_csv_of_another_width_names_its_line(self, tmp_path):
        manifest = write_manifest_dataset(tmp_path / "data")
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           dataset={"kind": "manifest", "path": str(manifest)},
                           **{"training.epochs": 2, "training.buffer_capacity": 40})
        code, _, err = run_cli("train", "--config", str(cfg), "--quiet")
        assert code == 0, err
        test_csv = tmp_path / "data" / "t2_test.csv"
        original = test_csv.read_bytes()
        rows = test_csv.read_text().splitlines()
        test_csv.write_text("\n".join(row + ",0.5" for row in rows) + "\n")
        # every command that reads the dataset checks its fingerprint first
        for command in ("eval", "ood-bench", "dump-features"):
            code, out, err = run_cli(*report_argv(command, tmp_path / "run", tmp_path))
            assert code == 3 and out == ""
            assert err.startswith(f"error: {test_csv}: ")
            assert err.endswith(f"{tmp_path / 'run' / 'trajectory.json'} was computed on "
                                f"{len(original)} bytes with crc32 "
                                f"{zlib.crc32(original):08x}; retrain the run\n")
        # the test rows are rebuilt at the run's input width
        rc = cli.load_run_config(tmp_path / "run" / "config.json")
        with pytest.raises(DimensionMismatch,
                           match=re.escape(f"{test_csv}:1: expected 3 features, got 4")):
            cli.build_stream(rc, False, 3)
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "dim": 4}))
        with pytest.raises(DimensionMismatch, match=re.escape(f"{manifest}: dim 4, expected 3")):
            cli.build_stream(rc, False, 3)


# --- predict -----------------------------------------------------------------

@pytest.fixture(scope="module")
def probe_file(run_dir, tmp_path_factory):
    ds = cli.build_stream(cli.load_run_config(run_dir / "config.json")).tasks[1]
    path = tmp_path_factory.mktemp("probe") / "probe.csv"
    lines = [
        ",".join([str(int(y))] + [repr(float(v)) for v in row])
        for y, row in zip(ds.test_y, ds.test_x)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path, ds.test_y


class TestPredict:
    def test_tiny_posterior_temperature_gives_finite_posteriors(self, probe_file,
                                                                tmp_path):
        # scores / T overflows at T = 1e-310 but not at 1e-300; both must pick
        # the same tasks, with finite posteriors
        trajectories = {}
        for temperature in (1e-300, 1e-310):
            run = tmp_path / f"run-{temperature}"
            cfg = write_config(tmp_path / f"c-{temperature}.json", run,
                               **{"training.posterior_temperature": temperature})
            code, _, err = run_cli("train", "--config", str(cfg), "--quiet")
            assert code == 0, err
            trajectories[temperature] = json.loads(
                (run / "trajectory.json").read_text())["trajectory"]
            out = tmp_path / f"p-{temperature}.csv"
            code, _, err = run_cli("predict", "--run", str(run), "--input",
                                   str(probe_file[0]), "--output", str(out))
            assert code == 0, err
            p_task = [float(line.split(",")[3]) for line in out.read_text().splitlines()[1:]]
            assert all(0.0 <= v <= 1.0 for v in p_task)
        assert trajectories[1e-310] == trajectories[1e-300]

    def test_output_format_and_accuracy(self, run_dir, probe_file, tmp_path):
        path, labels = probe_file
        out = tmp_path / "pred.csv"
        code, _, err = run_cli("predict", "--run", str(run_dir),
                               "--input", str(path), "--output", str(out))
        assert code == 0, err
        lines = out.read_text().splitlines()
        assert lines[0] == "row,predicted_class,predicted_task,p_task,score_variant"
        assert len(lines) == labels.shape[0] + 1
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == list(range(labels.shape[0]))
        assert all(r[4] == "canonical" for r in rows)
        assert all(0.0 <= float(r[3]) <= 1.0 for r in rows)
        predicted = np.array([int(r[1]) for r in rows])
        assert np.mean(predicted == labels) >= 0.9

    def test_predict_forwards_only_its_input(self, run_dir, probe_file, tmp_path,
                                             monkeypatch):
        rows = []
        forward = hat_mlp.forward

        def counting(net, x, task_id):
            rows.append(np.asarray(x).shape[0])
            return forward(net, x, task_id)

        monkeypatch.setattr(hat_mlp, "forward", counting)
        code, _, err = run_cli("predict", "--run", str(run_dir), "--input",
                               str(probe_file[0]), "--output", str(tmp_path / "p.csv"))
        assert code == 0, err
        # one forward per task, of the input rows; the KNN index is read
        assert rows == [probe_file[1].shape[0]] * 2

    @pytest.mark.parametrize("command", ["eval", "ood-bench"])
    def test_reports_never_forward_the_buffer(self, run_dir, tmp_path, monkeypatch,
                                              command):
        buf = cli.load_run(run_dir)[0].buffer
        x, source = buf.x, buf.tasks
        spot_checked = {x[i].tobytes() for i in np.unique(source, return_index=True)[1]}
        seen = set()
        features = hat_mlp.features  # forward's trunk, so this sees forward's rows too

        def recording(net, x, task_id):
            seen.update(row.tobytes() for row in x)
            return features(net, x, task_id)

        monkeypatch.setattr(hat_mlp, "features", recording)
        extra = ["--scatter", str(tmp_path / "s.csv")] if command == "ood-bench" else []
        code, _, err = run_cli(command, "--run", str(run_dir), "--out",
                               str(tmp_path / "out.json"), *extra)
        assert code == 0, err
        # only the load's spot check sees buffer rows: its first row of each task
        assert seen & {row.tobytes() for row in x} == spot_checked

    def test_predict_builds_no_stream(self, run_dir, probe_file, tmp_path, monkeypatch):
        calls = []
        for module, name in ((cli, "build_stream"), (data, "generate_gaussian_stream")):
            def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        code, _, err = run_cli("predict", "--run", str(run_dir), "--input",
                               str(probe_file[0]), "--output", str(tmp_path / "p.csv"))
        assert code == 0, err
        assert calls == []

    def test_predict_and_dump_features_need_no_dataset(self, tmp_path):
        manifest = write_manifest_dataset(tmp_path / "data")
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           dataset={"kind": "manifest", "path": str(manifest)},
                           **{"training.epochs": 4, "training.buffer_capacity": 40})
        code, _, err = run_cli("train", "--config", str(cfg), "--quiet")
        assert code == 0, err
        probe = tmp_path / "probe.csv"
        shutil.copy(tmp_path / "data" / "t2_test.csv", probe)
        commands = {
            "pred.csv": ["predict", "--output"],
            "feat.csv": ["dump-features", "--task-id", "2", "--quiet", "--out"],
        }

        def outputs() -> dict[str, bytes]:
            got = {}
            for name, argv in commands.items():
                out = tmp_path / name
                code, _, err = run_cli(*argv, str(out), "--run", str(tmp_path / "run"),
                                       "--input", str(probe))
                assert code == 0, err
                got[name] = out.read_bytes()
            return got

        before = outputs()
        shutil.rmtree(tmp_path / "data")
        assert outputs() == before
        # eval checks the dataset against its fingerprint, so it still needs it
        code, _, err = run_cli("eval", "--run", str(tmp_path / "run"), "--quiet")
        assert code == 3
        assert str(manifest) in err

    def test_predictions_deterministic(self, run_dir, probe_file, tmp_path):
        path, _ = probe_file
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code, _, _ = run_cli("predict", "--run", str(run_dir),
                                 "--input", str(path), "--output", str(out))
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


# --- ood-bench ---------------------------------------------------------------

BENCH_ROWS = ["MSP", "MLS", "EBO", "MD", "KNN",
              "TPL-canonical", "TPL-algorithm1"]


@pytest.fixture(scope="module")
def single_task_run_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-single")
    cfg = write_config(root / "c.json", root / "run",
                       **{"dataset.n_tasks": 1, "training.epochs": 8})
    code, _, err = run_cli("train", "--config", str(cfg), "--quiet")
    assert code == 0, err
    return root / "run"


def per_row_bench_report(run_dir) -> dict:
    """The ood-bench report rebuilt row by row: every row scores the pooled
    test rows afresh through ``cil_accuracy`` and ``task_ood_aucs``."""
    run, rc = cli.load_run(run_dir)
    stream = cli.build_stream(rc)
    classes = {d.task_id: d.classes for d in stream.tasks}
    single = len(stream) == 1
    scores, pairs = {}, []
    for label, kind in evaluation.BENCH_ROWS:
        variant = "algorithm1" if label == "TPL-algorithm1" else "canonical"
        ctx = scoring.build_context(
            run.net, run.stats, run.buffer,
            dataclasses.replace(rc.training, score_variant=variant), classes,
        )
        acc = evaluation.cil_accuracy(ctx, stream.tasks, kind)
        per_task, mean_auc = {}, None
        if not single:
            aucs, mean_auc = evaluation.task_ood_aucs(ctx, stream, kind)
            per_task = {str(t): v for t, v in sorted(aucs.items())}
            pairs.append((mean_auc, acc))
        scores[label] = {"auc_per_task": per_task, "auc_mean": mean_auc,
                         "cil_last_acc": acc}
    r = slope = None
    if not single:
        try:
            r, slope = evaluation.auc_acc_correlation(pairs)
        except DegenerateVariance:
            pass
    return {"calibration": "off", "auc_applicable": not single,
            "scores": scores, "pearson_r": r, "slope": slope}


@pytest.fixture(scope="module")
def report(run_dir):
    code, _, err = run_cli("ood-bench", "--run", str(run_dir), "--quiet")
    assert code == 0, err
    return json.loads((run_dir / "ood_bench.json").read_text())


class TestOodBench:
    EXPECTED_ROWS = BENCH_ROWS

    def test_all_rows_present(self, report):
        assert sorted(report["scores"]) == sorted(self.EXPECTED_ROWS)
        assert report["auc_applicable"] is True
        assert report["calibration"] == "off"
        for entry in report["scores"].values():
            assert set(entry["auc_per_task"]) == {"1", "2"}
            assert 0.0 <= entry["auc_mean"] <= 1.0
            assert 0.0 <= entry["cil_last_acc"] <= 1.0

    def test_composite_beats_plain_logit_score(self, report):
        tpl = report["scores"]["TPL-canonical"]["cil_last_acc"]
        mls = report["scores"]["MLS"]["cil_last_acc"]
        assert tpl >= mls

    def test_fit_fields_present(self, report):
        assert report["pearson_r"] is None or -1.0 <= report["pearson_r"] <= 1.0
        assert "slope" in report

    def test_scatter_file_format(self, run_dir, report):
        lines = (run_dir / "ood_scatter.csv").read_text().splitlines()
        assert lines[0] == "score,auc_mean,cil_last_acc"
        assert [line.split(",")[0] for line in lines[1:]] == self.EXPECTED_ROWS
        for line in lines[1:]:
            _, auc, acc = line.split(",")
            assert 0.0 <= float(auc) <= 1.0
            assert 0.0 <= float(acc) <= 1.0

    def test_rerun_is_bitwise_identical(self, run_dir, report):
        before = (run_dir / "ood_bench.json").read_bytes()
        code, _, _ = run_cli("ood-bench", "--run", str(run_dir), "--quiet")
        assert code == 0
        assert (run_dir / "ood_bench.json").read_bytes() == before

    @pytest.mark.parametrize("which", ["run_dir", "single_task_run_dir"])
    def test_stored_rows_match_per_row_scoring(self, request, which, tmp_path,
                                               monkeypatch):
        target = request.getfixturevalue(which)
        expected = per_row_bench_report(target)
        rows_scored = []
        real = scoring.compute_bundle

        def spy(ctx, x, *args):
            rows_scored.append(x.shape[0])
            return real(ctx, x, *args)

        monkeypatch.setattr(scoring, "compute_bundle", spy)
        out = tmp_path / "bench.json"
        code, _, err = run_cli("ood-bench", "--run", str(target), "--quiet",
                               "--out", str(out),
                               "--scatter", str(tmp_path / "scatter.csv"))
        assert code == 0, err
        assert rows_scored == []  # the rows are train's measurements
        assert json.loads(out.read_text()) == expected

    def test_single_task_run_marks_auc_not_applicable(self, single_task_run_dir):
        code, out, err = run_cli("ood-bench", "--run", str(single_task_run_dir))
        assert code == 0, err
        report = json.loads((single_task_run_dir / "ood_bench.json").read_text())
        assert report["auc_applicable"] is False
        assert report["pearson_r"] is None
        for entry in report["scores"].values():
            assert entry["auc_mean"] is None
            assert entry["auc_per_task"] == {}
            assert 0.0 <= entry["cil_last_acc"] <= 1.0
        assert "not applicable" in out


# --- measurements stored in trajectory.json ----------------------------------

def report_argv(command: str, run: Path, tmp_path: Path) -> list[str]:
    """``command`` (``eval``, ``ood-bench`` or ``dump-features`` of the test
    rows) on ``run``, writing only paths named ``out*`` under ``tmp_path``."""
    extra = {"ood-bench": ["--scatter", str(tmp_path / "out.csv")],
             "dump-features": ["--task-id", "1"]}.get(command, [])
    return [command, "--run", str(run), "--out", str(tmp_path / "out.json"), *extra]


def bench_report(rows: dict) -> dict:
    """The ood-bench report of the rows ``evaluation.bench_rows`` returns, as
    the command builds it: the fit runs over the rows in ``BENCH_ROWS`` order."""
    single = all(row["auc_mean"] is None for row in rows.values())
    r = slope = None
    if not single:
        pairs = [(rows[label]["auc_mean"], rows[label]["cil_last_acc"])
                 for label, _ in evaluation.BENCH_ROWS]
        with contextlib.suppress(DegenerateVariance):
            r, slope = evaluation.auc_acc_correlation(pairs)
    return {"calibration": "off", "auc_applicable": not single,
            "scores": rows, "pearson_r": r, "slope": slope}


#: Small configs of the benchmark's two shapes: few wide tasks with many test
#: rows, and many tasks with a few test rows each.
SHAPES = {
    "desk": {"dataset.n_tasks": 3, "dataset.classes_per_task": 2, "dataset.dim": 8,
             "dataset.train_per_class": 30, "dataset.test_per_class": 10,
             "training.epochs": 4, "training.hidden_widths": [16, 16],
             "training.buffer_capacity": 30},
    "many-tasks": {"dataset.n_tasks": 6, "dataset.classes_per_task": 3, "dataset.dim": 10,
                   "dataset.train_per_class": 20, "dataset.test_per_class": 2,
                   "training.epochs": 2, "training.hidden_widths": [24, 24],
                   "training.buffer_capacity": 90},
}


def assert_reports_equal_the_ones_from_the_test_rows(cfg: Path, run_dir: Path) -> dict:
    """Train ``cfg`` into ``run_dir``, run ``eval`` and ``ood-bench``, and
    check that the rows ``train`` stored and the reports written from them
    equal, bit for bit, those computed from the rebuilt test rows; return
    the stored ``trajectory.json``."""
    for argv in (["train", "--config", str(cfg)], ["eval", "--run", str(run_dir)],
                 ["ood-bench", "--run", str(run_dir)]):
        code, _, err = run_cli(*argv, "--quiet")
        assert code == 0, err
    run, rc = cli.load_run(run_dir)
    stream = cli.build_stream(rc)
    shared = scoring.context_from_run(run, calibrated=False)
    rows = evaluation.bench_rows(shared, evaluation.pooled_scores(shared, stream))
    stored = json.loads((run_dir / "trajectory.json").read_text())
    assert cli._dump_json(stored["bench"]) == cli._dump_json(rows)
    trajectory = cli._load_trajectory(run_dir, run, rc)[:2]
    ood = (evaluation.task_ood_aucs(scoring.context_from_run(run), stream)
           if len(stream) > 1 else ({}, None))
    report = evaluation.metrics_report(
        trajectory, evaluation.til_accuracies(run.net, stream.tasks), ood)
    assert (run_dir / "metrics.json").read_text() == cli._dump_json(report.as_dict())
    assert (run_dir / "ood_bench.json").read_text() == cli._dump_json(bench_report(rows))
    return stored


def set_bench(label: str, key: str, value):
    """``trajectory.json`` corrupter setting ``key`` of one ood-bench row."""
    return edit_json(lambda p: p["bench"][label].update({key: value}))


def set_bench_auc(label: str, task: str, value):
    return edit_json(lambda p: p["bench"][label]["auc_per_task"].update({task: value}))


#: The ood-bench labels in sorted order, as an error lists them.
LABELS = sorted(label for label, _ in evaluation.BENCH_ROWS)


class TestStoredMeasurements:
    @pytest.mark.parametrize("variant", ["canonical", "algorithm1"])
    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_reports_from_stored_rows_equal_the_reports_from_the_test_rows(
            self, tmp_path, shape, seed, variant):
        run_dir = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", run_dir, seed=seed,
                           **{**SHAPES[shape], "training.score_variant": variant})
        assert_reports_equal_the_ones_from_the_test_rows(cfg, run_dir)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the row that overflows
    def test_nan_rows_round_trip(self, tmp_path):
        manifest = write_manifest_dataset(tmp_path / "data")
        test_csv = tmp_path / "data" / "t2_test.csv"
        rows = test_csv.read_text().splitlines()
        rows[0] = "2," + ",".join(["-1.7e308"] * 3)  # every score of this row is nan
        test_csv.write_text("\n".join(rows) + "\n")
        run_dir = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", run_dir,
                           dataset={"kind": "manifest", "path": str(manifest)},
                           **{"training.epochs": 4, "training.buffer_capacity": 40})
        stored = assert_reports_equal_the_ones_from_the_test_rows(cfg, run_dir)
        for row in stored["bench"].values():
            assert all(math.isnan(v) for v in row["auc_per_task"].values())
            assert math.isnan(row["auc_mean"])
        for name in ("trajectory.json", "metrics.json", "ood_bench.json"):
            assert "NaN" in (run_dir / name).read_text(), name

    @pytest.mark.parametrize("command", ["eval", "ood-bench", "dump-features"])
    @pytest.mark.parametrize("fixture,name,corrupt,problem", [
        ("run_dir", "trajectory.json", Path.unlink, "{path}: missing"),
        ("run_dir", "trajectory.json", drop_json_key("bench"),
         "{path}: malformed (KeyError: 'bench')"),
        ("run_dir", "trajectory.json", edit_json(lambda p: p["bench"].pop("KNN")),
         "{path}: malformed (ValueError: bench holds the rows "
         f"{[label for label in LABELS if label != 'KNN']}, expected {LABELS})"),
        ("run_dir", "trajectory.json", edit_json(lambda p: p.update(bench={})),
         "{path}: malformed (ValueError: bench holds the rows [], expected "
         f"{LABELS})"),
        ("run_dir", "trajectory.json", set_bench_auc("MD", "1", 1.5),
         "{path}: malformed (ValueError: bench [MD] auc_per_task [1] must lie in "
         "[0, 1], got 1.5)"),
        ("run_dir", "trajectory.json",
         edit_json(lambda p: p["bench"]["EBO"].update(auc_per_task={"1": 0.5}, auc_mean=0.5)),
         "{path}: malformed (ValueError: bench [EBO] holds AUCs of the tasks [1] with "
         "mean 0.5, the run needs the tasks [1, 2] with their mean)"),
        ("run_dir", "trajectory.json", set_bench_auc("MSP", "01", 0.5),
         "{path}: malformed (ValueError: task key '01' is not written as '1')"),
        ("run_dir", "trajectory.json", set_bench("KNN", "auc_mean", None),
         "{path}: malformed (ValueError: bench [KNN] holds AUCs of the tasks [1, 2] with "
         "mean None, the run needs the tasks [1, 2] with their mean)"),
        ("run_dir", "trajectory.json", set_bench("MLS", "cil_last_acc", float("nan")),
         "{path}: malformed (ValueError: bench [MLS] cil_last_acc must be a finite "
         "number, got nan)"),
        ("run_dir", "trajectory.json", set_bench("TPL-canonical", "cil_last_acc", "0.5"),
         "{path}: malformed (ValueError: bench [TPL-canonical] cil_last_acc must be a "
         "finite number, got '0.5')"),
        ("single_task_run_dir", "trajectory.json", set_bench("MD", "auc_mean", 0.5),
         "{path}: malformed (ValueError: bench [MD] holds AUCs of the tasks [] with "
         "mean 0.5, the run needs none (a single task))"),
        ("single_task_run_dir", "trajectory.json", set_bench_auc("MD", "1", 0.5),
         "{path}: malformed (ValueError: bench [MD] holds AUCs of the tasks [1] with "
         "mean None, the run needs none (a single task))"),
        ("run_dir", "trajectory.json", edit_json(lambda p: p["classes"].update({"2": [2, 4]})),
         "{path}: malformed (ValueError: measured the tasks and classes "
         "{{'1': [0, 1], '2': [2, 4]}}, which differ from the run's "
         "{{'1': [0, 1], '2': [2, 3]}})"),
        ("run_dir", "config.json", edit_json(lambda p: p["dataset"].update(separation=7.0)),
         "{path}: the dataset or seed differs from the one {run}/trajectory.json was "
         "computed on"),
        ("run_dir", "config.json", edit_json(lambda p: p.update(seed=4)),
         "{path}: the dataset or seed differs from the one {run}/trajectory.json was "
         "computed on"),
    ], ids=["missing", "old-layout", "row-missing", "no-rows", "auc-above-one",
            "auc-task-missing", "auc-task-spelled-twice", "auc-mean-null",
            "accuracy-nan", "accuracy-string", "single-task-auc-mean",
            "single-task-auc", "classes-changed", "synthetic-block-changed",
            "seed-changed"])
    def test_a_bad_trajectory_json_or_changed_dataset_exits_3_naming_the_file(
            self, request, tmp_path, command, fixture, name, corrupt, problem):
        bad_run = Path(shutil.copytree(request.getfixturevalue(fixture), tmp_path / "run"))
        corrupt(bad_run / name)
        code, out, err = run_cli(*report_argv(command, bad_run, tmp_path))
        assert code == 3, err
        assert out == ""
        assert err == (f"error: {problem.format(path=bad_run / name, run=bad_run)}"
                       "; retrain the run\n")
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("command", ["eval", "ood-bench", "dump-features"])
    @pytest.mark.parametrize("name", ["t1_test.csv", "manifest.json"])
    def test_an_edited_manifest_or_test_csv_exits_3_naming_it(self, tmp_path, command,
                                                              name):
        manifest = write_manifest_dataset(tmp_path / "data")
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           dataset={"kind": "manifest", "path": str(manifest)},
                           **{"training.epochs": 4, "training.buffer_capacity": 40})
        code, _, err = run_cli("train", "--config", str(cfg), "--quiet")
        assert code == 0, err
        path = tmp_path / "data" / name
        original = path.read_bytes()
        # the same bytes in another order: only the crc32 tells them apart
        path.write_bytes(original[::-1] if name == "manifest.json"
                         else b"".join(reversed(original.splitlines(keepends=True))))
        code, out, err = run_cli(*report_argv(command, tmp_path / "run", tmp_path))
        assert code == 3, err
        assert out == ""
        assert err == (f"error: {path}: {len(original)} bytes with crc32 "
                       f"{zlib.crc32(path.read_bytes()):08x}, but "
                       f"{tmp_path / 'run' / 'trajectory.json'} was computed on "
                       f"{len(original)} bytes with crc32 {zlib.crc32(original):08x}"
                       "; retrain the run\n")
        assert not list(tmp_path.glob("out*"))

    def test_a_run_trained_without_test_rows_stores_no_rows(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "c.json", out,
                           **{"dataset.test_per_class": 0, "training.epochs": 4})
        code, _, err = run_cli("train", "--config", str(cfg), "--quiet")
        assert code == 0, err
        stored = json.loads((out / "trajectory.json").read_text())
        assert (stored["trajectory"], stored["til"], stored["bench"]) == ([], {}, {})
        for command, message in (
                ("eval", "run has no stored trajectory (trained without tests)"),
                ("ood-bench", "no test samples in any supplied dataset"),
                ("dump-features", "task 1 has no test samples to dump")):
            code, stdout, err = run_cli(*report_argv(command, out, tmp_path))
            assert (code, stdout, err) == (3, "", f"error: {message}\n")

    def test_predict_and_dump_features_input_never_read_trajectory_json(
            self, run_dir, probe_file, tmp_path):
        run = Path(shutil.copytree(run_dir, tmp_path / "run"))
        commands = {
            "pred.csv": ["predict", "--input", str(probe_file[0]), "--output"],
            "feat-in.csv": ["dump-features", "--task-id", "1", "--input",
                            str(probe_file[0]), "--quiet", "--out"],
        }

        def outputs() -> dict[str, tuple]:
            got = {}
            for name, argv in commands.items():
                code, stdout, err = run_cli(*argv, str(tmp_path / name), "--run", str(run))
                assert code == 0, err
                got[name] = (stdout, err, (tmp_path / name).read_bytes())
            return got

        before = outputs()
        (run / "trajectory.json").unlink()
        assert outputs() == before

    def test_reports_build_no_stream_and_score_nothing(self, run_dir, tmp_path,
                                                       monkeypatch):
        calls = []
        for module, name in ((cli, "build_stream"), (data, "generate_gaussian_stream"),
                             (scoring, "compute_bundle"), (scoring, "indexed_context")):
            def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(module, name, spy)
        for command in ("eval", "ood-bench"):
            code, _, err = run_cli(*report_argv(command, run_dir, tmp_path), "--quiet")
            assert code == 0, err
        assert calls == []

    def test_a_cached_joint_reference_needs_no_training_split(self, tmp_path):
        manifest = write_manifest_dataset(tmp_path / "data")
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           dataset={"kind": "manifest", "path": str(manifest)},
                           **{"training.epochs": 4, "training.buffer_capacity": 40})
        code, _, err = run_cli("train", "--config", str(cfg), "--quiet")
        assert code == 0, err
        argv = ["eval", "--run", str(tmp_path / "run"), "--ncl", str(tmp_path / "ncl"),
                "--quiet"]
        code, _, err = run_cli(*argv)  # a cold cache: the reference trains
        assert code == 0, err
        before = (tmp_path / "run" / "metrics.json").read_bytes()
        for t in (1, 2):
            (tmp_path / "data" / f"t{t}_train.csv").unlink()
        code, _, err = run_cli(*argv)
        assert code == 0, err
        assert (tmp_path / "run" / "metrics.json").read_bytes() == before

    def test_a_cached_joint_reference_draws_no_stream(self, run_dir, tmp_path,
                                                      monkeypatch):
        argv = ["eval", "--run", str(run_dir), "--ncl", str(tmp_path / "ncl"),
                "--out", str(tmp_path / "m.json"), "--quiet"]
        code, _, err = run_cli(*argv)
        assert code == 0, err
        names = []
        real_stream = RngState.stream

        def recording(self, name):
            names.append(name)
            return real_stream(self, name)

        monkeypatch.setattr(RngState, "stream", recording)
        code, _, err = run_cli(*argv)
        assert code == 0, err
        assert not [n for n in names if n.startswith(("train-noise-", "test-noise-"))]


# --- theory-check ------------------------------------------------------------

class TestTheoryCheck:
    def test_narrow_pair_case(self, tmp_path):
        out = tmp_path / "report.json"
        code, _, err = run_cli("theory-check", "--case", "sec41",
                               "--samples", "5000", "--out", str(out), "--quiet")
        assert code == 0, err
        report = json.loads(out.read_text())
        assert abs(report["log_ratio"]["at_zero"] - np.log(0.1)) < 1e-12
        assert abs(report["log_ratio"]["at_one"] - (np.log(0.1) + 49.5)) < 1e-12
        assert abs(report["auc"]["lr"]["oracle"] - 0.9365489651) < 1e-8
        assert abs(report["auc"]["p_t_only"]["oracle"] - 0.0634510349) < 1e-8
        assert abs(report["threshold"]["value"] - (-0.401062976750)) < 1e-9
        assert abs(report["threshold"]["empirical_type1"] - 0.05) < 0.02

    def test_dominance_case(self, tmp_path):
        out = tmp_path / "report.json"
        code, _, err = run_cli("theory-check", "--case", "dominance",
                               "--samples", "5000", "--out", str(out), "--quiet")
        assert code == 0, err
        report = json.loads(out.read_text())
        assert sorted(report["pairs"]) == sorted(theory_lab.FIXTURE_PAIRS)
        assert report["dominance_holds"] is True
        assert report["min_margin"] >= -1e-4
        for entry in report["pairs"].values():
            assert set(entry["oracle"]) == set(theory_lab.SCORER_NAMES)
            for scorer in theory_lab.SCORER_NAMES:
                gap = abs(entry["empirical"][scorer] - entry["oracle"][scorer])
                assert gap <= 5.0 / np.sqrt(5000)

    def test_density_case(self, tmp_path):
        out = tmp_path / "report.json"
        code, _, err = run_cli("theory-check", "--case", "density",
                               "--samples", "200", "--out", str(out), "--quiet")
        assert code == 0, err
        report = json.loads(out.read_text())
        assert report["md_spearman"] == 1.0
        assert report["knn_spearman"] >= 0.9
        assert report["buffer_size"] == 2001

    def test_unknown_case_rejected_by_parser(self):
        with pytest.raises(SystemExit) as exc:
            with contextlib.redirect_stderr(io.StringIO()):
                cli.main(["theory-check", "--case", "nonsense"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 7.28 TiB for an array", "Unable to allocate 7.28 TiB for an array"),
        ("", "an allocation failed"),
    ], ids=["numpy-message", "no-message"])
    def test_out_of_memory_exits_3_without_traceback(self, tmp_path, monkeypatch,
                                                     message, shown):
        # a stand-in for ``--samples 1000000000000``, whose draws cannot be
        # allocated; a real giant allocation could take real memory
        def exhausted(*_args, **_kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(theory_lab, "empirical_aucs", exhausted)
        out = tmp_path / "report.json"
        code, stdout, err = run_cli("theory-check", "--case", "sec41",
                                    "--out", str(out), "--quiet")
        assert code == 3
        assert err == f"error: out of memory: {shown}\n"
        assert stdout == ""
        assert not out.exists()


# --- dump-features -----------------------------------------------------------

class TestDumpFeatures:
    def test_dump_shape_and_determinism(self, run_dir, tmp_path):
        first = tmp_path / "a.csv"
        code, _, err = run_cli("dump-features", "--run", str(run_dir),
                               "--task-id", "2", "--out", str(first), "--quiet")
        assert code == 0, err
        lines = first.read_text().splitlines()
        cells = lines[0].split(",")
        width = (len(cells) - 1) // 2
        assert cells == (["label"] + [f"f{j}" for j in range(width)]
                         + [f"n{j}" for j in range(width)])
        assert len(lines) == 41  # header + one row per test sample
        # normalized block has unit rows whenever the raw block is nonzero
        for line in lines[1:3]:
            vals = [float(v) for v in line.split(",")[1:]]
            normed = np.array(vals[width:])
            assert abs(np.linalg.norm(normed) - 1.0) < 1e-9
        second = tmp_path / "b.csv"
        code, _, _ = run_cli("dump-features", "--run", str(run_dir),
                             "--task-id", "2", "--out", str(second), "--quiet")
        assert code == 0
        assert second.read_bytes() == first.read_bytes()

    def test_default_output_lands_in_run_dir(self, run_dir):
        code, _, err = run_cli("dump-features", "--run", str(run_dir),
                               "--task-id", "1", "--quiet")
        assert code == 0, err
        assert (run_dir / "features_task_1.csv").is_file()

    def test_explicit_input_is_projected(self, run_dir, tmp_path):
        ds = cli.build_stream(cli.load_run_config(run_dir / "config.json")).tasks[0]
        probe = tmp_path / "probe.csv"
        lines = [
            ",".join([str(int(y))] + [repr(float(v)) for v in row])
            for y, row in zip(ds.train_y[:5], ds.train_x[:5])
        ]
        probe.write_text("\n".join(lines) + "\n")
        out = tmp_path / "feat.csv"
        code, _, err = run_cli("dump-features", "--run", str(run_dir),
                               "--task-id", "1", "--input", str(probe),
                               "--out", str(out), "--quiet")
        assert code == 0, err
        assert len(out.read_text().splitlines()) == 6
