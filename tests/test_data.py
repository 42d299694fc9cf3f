import math

import numpy as np
import pytest
from scipy import integrate

from tpl import data
from tpl.errors import (
    DimensionMismatch,
    NoDensityAvailable,
    OverlappingLabelSets,
    ParseError,
    UnknownTask,
)
from tpl.numerics import RngState


def small_stream(seed=0, **kw):
    args = dict(
        n_tasks=3,
        classes_per_task=2,
        dim=4,
        separation=5.0,
        samples_per_class_train=50,
        samples_per_class_test=20,
        rng=RngState(seed),
    )
    args.update(kw)
    return data.generate_gaussian_stream(**args)


# --- generation -------------------------------------------------------------

def test_generate_shapes_and_counts():
    s = small_stream()
    assert len(s) == 3
    for t, task in enumerate(s.tasks, start=1):
        assert task.task_id == t
        assert task.train_x.shape == (100, 4)
        assert task.test_x.shape == (40, 4)
        for c in task.classes:
            assert int(np.sum(task.train_y == c)) == 50
            assert int(np.sum(task.test_y == c)) == 20


def test_generate_label_sets_disjoint_and_ordered():
    s = small_stream()
    assert [c for task in s.tasks for c in task.classes] == [0, 1, 2, 3, 4, 5]
    seen = set()
    for task in s.tasks:
        assert not (seen & set(task.classes))
        seen |= set(task.classes)


def test_generate_mean_separation():
    s = small_stream()
    means = [g.mean for t in s.tasks for g in t.gaussians.values()]
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            assert np.linalg.norm(means[i] - means[j]) >= 5.0 - 1e-9


def test_generate_deterministic():
    a = small_stream(seed=11)
    b = small_stream(seed=11)
    for ta, tb in zip(a.tasks, b.tasks):
        assert np.array_equal(ta.train_x, tb.train_x)
        assert np.array_equal(ta.test_y, tb.test_y)
    c = small_stream(seed=12)
    assert not np.array_equal(a.tasks[0].train_x, c.tasks[0].train_x)


def test_generate_anisotropic_diagonal():
    diag = np.array([100.0, 0.01, 1.0, 1.0])
    s = small_stream(seed=2, covariance_diag=diag, samples_per_class_train=2000)
    x = s.tasks[0].train_x
    y = s.tasks[0].train_y
    c = s.tasks[0].classes[0]
    pts = x[y == c]
    v = np.var(pts, axis=0)
    assert v[0] > 50.0
    assert v[1] < 0.1


def test_generate_crowded_low_dim_escalates_radius():
    # 10 classes at separation 6 cannot sit on a radius-6 circle; escalation
    # must still produce a valid placement
    s = data.generate_gaussian_stream(
        n_tasks=5, classes_per_task=2, dim=2, separation=6.0,
        samples_per_class_train=5, samples_per_class_test=2, rng=RngState(4),
    )
    means = [g.mean for t in s.tasks for g in t.gaussians.values()]
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            assert np.linalg.norm(means[i] - means[j]) >= 6.0 - 1e-9


def test_label_positions_mapping():
    s = small_stream()
    t2 = s.task(2)
    assert t2.classes == (2, 3)
    pos = data.label_positions([3, 2, 3], t2.classes)
    assert pos.dtype == np.int64
    assert pos.tolist() == [1, 0, 1]
    assert data.label_positions(np.empty(0, dtype=np.int64), t2.classes).tolist() == []
    with pytest.raises(UnknownTask, match="label 0"):
        data.label_positions([2, 0], t2.classes)
    with pytest.raises(UnknownTask):
        s.task(99)


# --- manifest loading -------------------------------------------------------

def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")


def write_manifest(tmp_path, tasks, dim=None):
    doc = {"tasks": tasks}
    if dim is not None:
        doc["dim"] = dim
    p = tmp_path / "manifest.json"
    import json

    p.write_text(json.dumps(doc))
    return p


def test_load_roundtrip(tmp_path):
    write_csv(tmp_path / "t1_train.csv", [[0, 1.0, 2.0], [1, 3.0, 4.0]])
    write_csv(tmp_path / "t1_test.csv", [[0, 1.5, 2.5]])
    write_csv(tmp_path / "t2_train.csv", [[2, 0.0, 1.0]])
    write_csv(tmp_path / "t2_test.csv", [[2, 0.5, 0.5]])
    man = write_manifest(
        tmp_path,
        [
            {"task_id": 1, "classes": [0, 1], "train": "t1_train.csv", "test": "t1_test.csv"},
            {"task_id": 2, "classes": [2], "train": "t2_train.csv", "test": "t2_test.csv"},
        ],
        dim=2,
    )
    s = data.load_feature_stream(man)
    assert len(s) == 2
    assert s.dim == 2
    assert np.array_equal(s.task(1).train_x, [[1.0, 2.0], [3.0, 4.0]])
    assert s.task(1).train_y.tolist() == [0, 1]
    assert s.task(2).classes == (2,)


def test_load_parse_error_reports_line(tmp_path):
    write_csv(tmp_path / "bad.csv", [[0, 1.0], ["oops", 2.0]])
    write_csv(tmp_path / "ok.csv", [[0, 1.0]])
    man = write_manifest(
        tmp_path,
        [{"task_id": 1, "classes": [0], "train": "bad.csv", "test": "ok.csv"}],
    )
    with pytest.raises(ParseError, match=r"bad\.csv:2"):
        data.load_feature_stream(man)


def test_load_dimension_mismatch(tmp_path):
    write_csv(tmp_path / "a.csv", [[0, 1.0, 2.0], [0, 1.0]])
    write_csv(tmp_path / "b.csv", [[0, 1.0, 2.0]])
    man = write_manifest(
        tmp_path,
        [{"task_id": 1, "classes": [0], "train": "a.csv", "test": "b.csv"}],
    )
    with pytest.raises(DimensionMismatch, match=r"a\.csv:2"):
        data.load_feature_stream(man)


def test_load_declared_dim_enforced(tmp_path):
    write_csv(tmp_path / "a.csv", [[0, 1.0, 2.0]])
    write_csv(tmp_path / "b.csv", [[0, 1.0, 2.0]])
    man = write_manifest(
        tmp_path,
        [{"task_id": 1, "classes": [0], "train": "a.csv", "test": "b.csv"}],
        dim=3,
    )
    with pytest.raises(DimensionMismatch):
        data.load_feature_stream(man)


def test_load_overlapping_labels(tmp_path):
    write_csv(tmp_path / "a.csv", [[0, 1.0]])
    write_csv(tmp_path / "b.csv", [[0, 2.0]])
    man = write_manifest(
        tmp_path,
        [
            {"task_id": 1, "classes": [0], "train": "a.csv", "test": "a.csv"},
            {"task_id": 2, "classes": [0], "train": "b.csv", "test": "b.csv"},
        ],
    )
    with pytest.raises(OverlappingLabelSets):
        data.load_feature_stream(man)


def test_load_label_outside_declared_classes(tmp_path):
    write_csv(tmp_path / "a.csv", [[7, 1.0]])
    man = write_manifest(
        tmp_path,
        [{"task_id": 1, "classes": [0], "train": "a.csv", "test": "a.csv"}],
    )
    with pytest.raises(OverlappingLabelSets):
        data.load_feature_stream(man)


def test_load_malformed_manifest(tmp_path):
    p = tmp_path / "manifest.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        data.load_feature_stream(p)


# --- exact density ----------------------------------------------------------

def test_density_peaks_at_class_mean():
    s = small_stream()
    t1 = s.tasks[0]
    mean = t1.gaussians[t1.classes[0]].mean
    at_mean, away = data.mixture_log_density(t1, np.stack([mean, mean + 3.0]))
    assert at_mean > away


def test_density_mixture_integrates_to_one():
    s = data.generate_gaussian_stream(
        n_tasks=1, classes_per_task=3, dim=1, separation=2.0,
        samples_per_class_train=5, samples_per_class_test=2, rng=RngState(9),
    )
    total, err = integrate.quad(
        lambda x: math.exp(data.mixture_log_density(s.tasks[0], np.array([[x]]))[0]),
        -60.0, 60.0, limit=200,
    )
    assert err < 1e-8
    assert math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6)


def test_density_matches_hand_formula():
    s = data.generate_gaussian_stream(
        n_tasks=1, classes_per_task=1, dim=2, separation=1.0,
        samples_per_class_train=5, samples_per_class_test=2, rng=RngState(3),
    )
    g = s.tasks[0].gaussians[0]
    x = g.mean + np.array([0.5, -0.25])
    expect = -0.5 * (0.5**2 + 0.25**2) - math.log(2 * math.pi)
    got = data.mixture_log_density(s.tasks[0], x[None])
    assert got.shape == (1,)
    assert math.isclose(got[0], expect, rel_tol=0, abs_tol=1e-12)
    with pytest.raises(DimensionMismatch):
        data.mixture_log_density(s.tasks[0], x)


def test_density_unavailable_for_loaded(tmp_path):
    write_csv(tmp_path / "a.csv", [[0, 1.0]])
    man = write_manifest(
        tmp_path,
        [{"task_id": 1, "classes": [0], "train": "a.csv", "test": "a.csv"}],
    )
    s = data.load_feature_stream(man)
    with pytest.raises(NoDensityAvailable):
        data.mixture_log_density(s.tasks[0], np.array([[0.0]]))


def test_stream_rejects_duplicate_classes_across_tasks():
    t1 = data.TaskDataset(
        task_id=1, classes=(0,),
        train_x=np.zeros((1, 2)), train_y=np.zeros(1, dtype=np.int64),
        test_x=np.zeros((1, 2)), test_y=np.zeros(1, dtype=np.int64),
    )
    t2 = data.TaskDataset(
        task_id=2, classes=(0,),
        train_x=np.zeros((1, 2)), train_y=np.zeros(1, dtype=np.int64),
        test_x=np.zeros((1, 2)), test_y=np.zeros(1, dtype=np.int64),
    )
    with pytest.raises(OverlappingLabelSets):
        data.TaskStream(tasks=[t1, t2])
