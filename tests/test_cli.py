"""End-to-end tests for the command-line interface: config validation and
exit codes, run-directory persistence, and every subcommand driven
in-process through ``main``."""

import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from tpl import cli, evaluation, scoring, theory_lab, trainer
from tpl.errors import ConfigError, DegenerateVariance
from tpl.trainer import clone_config

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

RUN_FILES = ("config.json", "model.bin", "buffer.csv", "trajectory.json",
             "calibration.json")


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


def run_cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One trained run directory shared by the read-only command tests."""
    root = tmp_path_factory.mktemp("cli-run")
    cfg = write_config(root / "config.json", root / "run")
    code, out, err = run_cli("train", "--config", str(cfg))
    assert code == 0, err
    assert "run written to" in out
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
        assert rc.training.score_variant == "softmin"
        # and the resolved payload presents the public token again
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

    def test_missing_run_dir_exits_2(self):
        code, _, _ = run_cli("eval", "--run", "/nonexistent/run")
        assert code == 2

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
        lines = (bad_run / "buffer.csv").read_text().splitlines()
        cells = lines[4].split(",")
        cells[2] = "nan"
        lines[4] = ",".join(cells)
        (bad_run / "buffer.csv").write_text("\n".join(lines) + "\n")
        probe = tmp_path / "in.csv"
        probe.write_text("0," + ",".join(["0.5"] * 6) + "\n")
        for argv in (["predict", "--input", str(probe), "--output", str(tmp_path / "p.csv")],
                     ["ood-bench", "--out", str(tmp_path / "b.json"),
                      "--scatter", str(tmp_path / "s.csv")]):
            code, _, err = run_cli(*argv, "--run", str(bad_run))
            assert code == 3
            assert "buffer.csv:5: non-finite" in err
        assert not any((tmp_path / name).exists() for name in ("p.csv", "b.json", "s.csv"))

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
        stats = sorted(p.name for p in (run_dir / "stats").glob("task_*.json"))
        assert stats == ["task_1.json", "task_2.json"]

    def test_trajectory_payload(self, run_dir):
        payload = json.loads((run_dir / "trajectory.json").read_text())
        assert payload["score_kind"] == "tpl"
        assert payload["calibrated"] is True
        assert len(payload["trajectory"]) == 2
        assert set(payload["til"]) == {"1", "2"}
        assert set(payload["per_task"]["2"]) == {"1", "2"}
        assert all(0.0 <= v <= 1.0 for v in payload["trajectory"])

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
        rng = np.random.default_rng(0)
        centers = {0: np.array([4.0, 0.0, 0.0]), 1: np.array([0.0, 4.0, 0.0]),
                   2: np.array([0.0, 0.0, 4.0]), 3: np.array([-4.0, 0.0, 0.0])}

        def write_split(name, classes, per_class):
            lines = []
            for c in classes:
                for _ in range(per_class):
                    row = centers[c] + rng.normal(size=3)
                    lines.append(",".join([str(c)] + [repr(float(v)) for v in row]))
            (tmp_path / name).write_text("\n".join(lines) + "\n")

        for t, classes in ((1, (0, 1)), (2, (2, 3))):
            write_split(f"t{t}_train.csv", classes, 30)
            write_split(f"t{t}_test.csv", classes, 15)
        (tmp_path / "manifest.json").write_text(json.dumps({
            "dim": 3,
            "tasks": [
                {"task_id": 1, "classes": [0, 1],
                 "train": "t1_train.csv", "test": "t1_test.csv"},
                {"task_id": 2, "classes": [2, 3],
                 "train": "t2_train.csv", "test": "t2_test.csv"},
            ],
        }))
        cfg = write_config(tmp_path / "c.json", tmp_path / "run",
                           dataset={"kind": "manifest", "path": "manifest.json"},
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
        assert sorted(run.buffer.task_of.values()) == [1, 1, 2, 2]
        assert set(run.calibration) == {1, 2}
        ctx = scoring.context_from_run(run, calibrated=rc.calibrate)
        ds = run.stream.tasks[0]
        preds = scoring.predict(ctx, ds.test_x)
        assert np.mean(preds.global_class == ds.test_y) >= 0.9

    def test_saved_stats_carry_covariance_and_precision(self, run_dir):
        payload = json.loads((run_dir / "stats" / "task_1.json").read_text())
        precision = np.array(payload["precision"])
        covariance = np.array(payload["covariance"])
        np.testing.assert_allclose(covariance @ precision,
                                   np.eye(precision.shape[0]), atol=1e-8)

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

    def test_second_save_is_byte_identical(self, run_dir, tmp_path):
        run, rc = cli.load_run(run_dir)
        payload = json.loads((run_dir / "trajectory.json").read_text())
        out = tmp_path / "resaved"
        cli.save_run(run, rc, out, payload)
        for name in RUN_FILES:
            if name == "config.json":
                continue  # out_dir field differs by design
            assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


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
            expected = evaluation.compute_report(run, ref, calibrated=rc.calibrate)
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


# --- predict -----------------------------------------------------------------

@pytest.fixture(scope="module")
def probe_file(run_dir, tmp_path_factory):
    run, _ = cli.load_run(run_dir)
    ds = run.stream.tasks[1]
    path = tmp_path_factory.mktemp("probe") / "probe.csv"
    lines = [
        ",".join([str(int(y))] + [repr(float(v)) for v in row])
        for y, row in zip(ds.test_y, ds.test_x)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path, ds.test_y


class TestPredict:
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
    classes = {t: run.stream.task(t).classes for t in run.task_ids()}
    single = len(run.stream) == 1
    scores, pairs = {}, []
    for label, kind in cli._BENCH_ROWS:
        variant = "softmin" if label == "TPL-algorithm1" else "canonical"
        ctx = scoring.build_context(
            run.net, run.stats, run.buffer,
            clone_config(rc.training, score_variant=variant), classes,
        )
        acc = evaluation.cil_accuracy(ctx, run.stream.tasks, kind)
        per_task, mean_auc = {}, None
        if not single:
            aucs, mean_auc = evaluation.task_ood_aucs(ctx, run.stream, kind)
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
    def test_one_bundle_matches_per_row_scoring(self, request, which, tmp_path,
                                                monkeypatch):
        target = request.getfixturevalue(which)
        expected = per_row_bench_report(target)
        rows_scored = []
        real = scoring.compute_bundle

        def spy(ctx, x):
            rows_scored.append(x.shape[0])
            return real(ctx, x)

        monkeypatch.setattr(scoring, "compute_bundle", spy)
        out = tmp_path / "bench.json"
        code, _, err = run_cli("ood-bench", "--run", str(target), "--quiet",
                               "--out", str(out),
                               "--scatter", str(tmp_path / "scatter.csv"))
        assert code == 0, err
        assert len(rows_scored) == 1
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
        run, _ = cli.load_run(run_dir)
        ds = run.stream.tasks[0]
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
