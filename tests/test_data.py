import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from tpl import data
from tpl.errors import (
    DimensionMismatch,
    NoDensityAvailable,
    OverlappingLabelSets,
    ParseError,
    TplError,
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
    means = np.concatenate([t.means for t in s.tasks])
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


def test_generate_split_is_each_class_in_turn_from_its_named_stream():
    # a split holds class 0's rows, then class 1's, each mean + sqrt(cov) * z
    # with z the next block of the split's own noise stream
    diag = np.array([0.5, 2.0, 1.0, 3.0])
    s = small_stream(seed=5, covariance_diag=diag)
    for t, task in enumerate(s.tasks, start=1):
        for split, per_class in (("train", 50), ("test", 20)):
            noise = RngState(5).stream(f"{split}-noise-{t}")
            expect = np.concatenate([
                task.means[k] + np.sqrt(diag) * noise.standard_normal((per_class, 4))
                for k in range(task.n_classes)
            ])
            assert getattr(task, f"{split}_x").tobytes() == expect.tobytes()
            assert getattr(task, f"{split}_y").tolist() == np.repeat(
                task.classes, per_class).tolist()
        np.testing.assert_array_equal(task.cov_diag, diag)


def test_generate_empty_test_split():
    s = small_stream(dim=1, separation=2.0, samples_per_class_test=0)
    for task in s.tasks:
        assert task.test_x.shape == (0, 1) and task.test_x.dtype == np.float64
        assert task.test_y.shape == (0,) and task.test_y.dtype == np.int64
        assert task.means.shape == (2, 1)


@pytest.mark.parametrize("seed, kw", [
    (1, {}),
    (7, {}),
    (7, {"covariance_diag": np.array([0.5, 2.0, 1.0, 3.0])}),
    (1, {"samples_per_class_test": 0}),
], ids=["seed1", "seed7", "covariance", "no-test-rows"])
def test_test_only_stream_keeps_the_test_bits(monkeypatch, seed, kw):
    full = small_stream(seed=seed, **kw)
    drawn = []
    stream = RngState.stream

    def recording(self, name):
        drawn.append(name)
        return stream(self, name)

    monkeypatch.setattr(RngState, "stream", recording)
    test_only = small_stream(seed=seed, train=False, **kw)
    assert not [name for name in drawn if name.startswith("train-noise-")]
    assert [name for name in drawn if name.startswith("test-noise-")] == [
        "test-noise-1", "test-noise-2", "test-noise-3"]
    for a, b in zip(full.tasks, test_only.tasks):
        assert b.train_x.shape == (0, 4) and b.train_x.dtype == np.float64
        assert b.train_y.shape == (0,) and b.train_y.dtype == np.int64
        assert b.test_x.tobytes() == a.test_x.tobytes()
        assert b.test_y.tobytes() == a.test_y.tobytes()
        assert b.means.tobytes() == a.means.tobytes()
        assert b.cov_diag.tobytes() == a.cov_diag.tobytes()
        assert b.classes == a.classes and b.dim == a.dim


def test_generate_crowded_low_dim_escalates_radius():
    # 10 classes at separation 6 cannot sit on a radius-6 circle; escalation
    # must still produce a valid placement
    s = data.generate_gaussian_stream(
        n_tasks=5, classes_per_task=2, dim=2, separation=6.0,
        samples_per_class_train=5, samples_per_class_test=2, rng=RngState(4),
    )
    means = np.concatenate([t.means for t in s.tasks])
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            assert np.linalg.norm(means[i] - means[j]) >= 6.0 - 1e-9


def reference_class_means(n_classes, dim, separation, rng):
    """The placement loop as first written, one ``np.linalg.norm`` per pair
    of means, kept as the bitwise reference for ``_place_class_means``."""
    draw = rng.stream("class-means")
    radius = max(float(separation), 1.0)
    for _ in range(data._MAX_RADIUS_ESCALATIONS):
        means = []
        budget = 200 * n_classes
        while len(means) < n_classes and budget > 0:
            budget -= 1
            v = draw.standard_normal(dim)
            norm = float(np.linalg.norm(v))
            if norm < 1e-12:
                continue
            cand = v * (radius / norm)
            if all(float(np.linalg.norm(cand - m)) >= separation for m in means):
                means.append(cand)
        if len(means) == n_classes:
            return np.stack(means), radius
        radius *= 1.5
    raise AssertionError("reference placement failed")


# (classes, dim, separation): the first two crowd a circle and a sphere, so
# the radius escalates at every seed
MEAN_SHAPES = [(6, 2, 6.0), (12, 3, 6.0), (10, 16, 6.0), (40, 32, 6.0), (100, 64, 3.0)]


@pytest.mark.parametrize("shape", MEAN_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_class_means_match_the_per_pair_norm_loop_bitwise(shape):
    n_classes, dim, separation = shape
    escalated = 0
    for seed in range(25):
        want, radius = reference_class_means(n_classes, dim, separation, RngState(seed))
        got = data._place_class_means(n_classes, dim, separation, RngState(seed))
        assert got.dtype == want.dtype and got.shape == (n_classes, dim)
        assert got.tobytes() == want.tobytes(), seed
        escalated += radius > max(separation, 1.0)
    assert escalated == (25 if dim <= 3 else 0)


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


def test_label_beyond_int64_reports_line(tmp_path):
    write_csv(tmp_path / "a.csv", [[0, 1.0], [-2**63, 2.0], [2**63, 3.0]])
    with pytest.raises(ParseError, match=r"a\.csv:3: label 9223372036854775808 does not fit"):
        data.read_feature_file(tmp_path / "a.csv", None)


def test_field_beyond_the_csv_field_limit_is_a_parse_error_naming_the_file(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("0," + "1" * 200_000 + "\n")
    with pytest.raises(ParseError, match=r"a\.csv: malformed \(Error: field larger than"):
        data.read_feature_file(path, None)


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


def test_load_manifest_that_is_not_utf8(tmp_path):
    p = tmp_path / "manifest.json"
    p.write_bytes(b'{"tasks": [], "dim": "\xff"}')
    with pytest.raises(ParseError, match="manifest.json"):
        data.load_feature_stream(p)


def two_task_manifest() -> dict:
    """A valid manifest over the files ``write_two_task_files`` writes."""
    return {"dim": 2, "tasks": [
        {"task_id": 1, "classes": [0, 1], "train": "a.csv", "test": "a.csv"},
        {"task_id": 2, "classes": [2, 3], "train": "b.csv", "test": "b.csv"},
    ]}


def write_two_task_files(root):
    write_csv(root / "a.csv", [[0, 1.0, 2.0], [1, 3.0, 4.0]])
    write_csv(root / "b.csv", [[2, 0.0, 1.0], [3, 0.5, 0.5]])


def with_task_edit(key, value):
    doc = two_task_manifest()
    doc["tasks"][0][key] = value
    return doc


#: Manifests that break the format, each with the entry the error must name.
MALFORMED_MANIFESTS = {
    "tasks-not-a-list": ({"tasks": 5}, "'tasks' list"),
    "task-not-an-object": ({"tasks": [5]}, "tasks[0] must be an object"),
    "task-missing-test": ({"tasks": [{"task_id": 1, "classes": [0], "train": "a.csv"}]},
                          "missing ['test']"),
    "classes-not-a-list": (with_task_edit("classes", 3), "tasks[0].classes"),
    "class-float": (with_task_edit("classes", [0.5, 1]), "tasks[0].classes[0]"),
    "class-string": (with_task_edit("classes", [0, "1"]), "tasks[0].classes[1]"),
    "class-bool": (with_task_edit("classes", [False, 1]), "tasks[0].classes[0]"),
    "class-beyond-int64": (with_task_edit("classes", [0, 2**63]), "tasks[0].classes[1]"),
    "task_id-list": (with_task_edit("task_id", [1]), "tasks[0].task_id"),
    "task_id-string": (with_task_edit("task_id", "x"), "tasks[0].task_id"),
    "task_id-float": (with_task_edit("task_id", 1.7), "tasks[0].task_id"),
    "task_id-bool": (with_task_edit("task_id", True), "tasks[0].task_id"),
    "task_id-beyond-int64": (with_task_edit("task_id", -2**63 - 1), "tasks[0].task_id"),
    "train-number": (with_task_edit("train", 7), "tasks[0].train"),
    "test-null": (with_task_edit("test", None), "tasks[0].test"),
    "dim-bool": ({**two_task_manifest(), "dim": True}, "dim"),
    "dim-zero": ({**two_task_manifest(), "dim": 0}, "dim"),
    "dim-float": ({**two_task_manifest(), "dim": 2.0}, "dim"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_MANIFESTS))
def test_malformed_manifest_entry_is_a_parse_error_naming_it(tmp_path, name):
    doc, entry = MALFORMED_MANIFESTS[name]
    write_two_task_files(tmp_path)
    man = tmp_path / "manifest.json"
    man.write_text(json.dumps(doc))
    with pytest.raises(ParseError) as info:
        data.load_feature_stream(man)
    assert str(man) in str(info.value) and entry in str(info.value)


def test_base_manifest_of_the_property_loads(tmp_path):
    write_two_task_files(tmp_path)
    man = tmp_path / "manifest.json"
    man.write_text(json.dumps(two_task_manifest()))
    s = data.load_feature_stream(man)
    assert [t.task_id for t in s.tasks] == [1, 2]
    assert [t.classes for t in s.tasks] == [(0, 1), (2, 3)]
    assert all(t.means is None for t in s.tasks)


#: Any JSON scalar; strings are often the names of the two feature files, the
#: empty path or a NUL.
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=8) | st.sampled_from(["a.csv", "b.csv", "", "\0"]))
#: Any JSON value, a scalar about half the time.
JSON_VALUES = JSON_LEAVES | st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def manifests(draw):
    """Any JSON value, or the valid two-task manifest with one entry of its
    top level, of a task or of a task's class list set to any JSON value or
    removed, so the edit reaches the loader's check of that entry."""
    doc = two_task_manifest()
    where = draw(st.sampled_from(["anything", "top", "task", "class"]))
    if where == "anything":
        return draw(JSON_VALUES)
    task = doc["tasks"][draw(st.sampled_from([0, 1]))]
    target = {"top": doc, "task": task, "class": task["classes"]}[where]
    keys = range(len(target)) if where == "class" else sorted({*target, "surprise"})
    key = draw(st.sampled_from(list(keys)))
    if draw(st.booleans()):
        target[key] = draw(JSON_VALUES)
    elif where == "class":
        del target[key]
    else:
        target.pop(key, None)
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=manifests())
@example(doc={"tasks": 5})
@example(doc=with_task_edit("task_id", [1]))
@example(doc=with_task_edit("train", "\0"))
def test_manifest_loader_returns_or_raises_tpl_error(tmp_path, doc):
    write_two_task_files(tmp_path)
    man = tmp_path / "manifest.json"
    man.write_text(json.dumps(doc))
    try:
        data.load_feature_stream(man)
    except TplError:
        pass


# --- the feature-file reader: one C pass, the line reader on refusal --------

def read_outcome(read, path, width):
    """What a feature-file reader gives: its arrays' dtypes, shapes and bytes,
    or its error's type and message."""
    try:
        x, y = read(path, width)
    except TplError as exc:
        return type(exc), str(exc)
    return x.dtype, x.shape, x.tobytes(), y.dtype, y.shape, y.tobytes()


def assert_reads_as_the_line_reader(path, width):
    want = read_outcome(data._read_feature_lines, path, width)
    assert read_outcome(data.read_feature_file, path, width) == want
    return want


#: Field spellings beyond ``repr``: the forms either parser might read
#: differently, and the ones only one of them accepts.
ODD_FIELDS = [
    "", " ", "  1.5  ", "\t2", "+1.5", "-0", "-0.0", "+0", "007", ".5", "5.", "1e5",
    "1E-5", "-2.5e+3", "1e400", "-1e400", "4.9e-324", "1e-400", "nan", "-nan",
    "NaN", "inf", "-inf", "Infinity", "+iNF", "1_0", "1__0", "٣", "١.٥", "0x10", "1e",
    "e1", '"1.5"', '"1', "1#", "#", "\ufeff1", "1\x00", "\x00", "1\x0c", "\xa01",
    "1 2", "1.5 ", "9223372036854775807", "-9223372036854775808",
    "9223372036854775808", "-9223372036854775809", "99999999999999999999",
    "12345678901234567890123456789.5",
]


@st.composite
def feature_files(draw):
    """CSV text of ``label,f0,...`` rows, with occasional blank lines, odd
    fields, trailing commas and rows of another width, under any line ending."""
    width = draw(st.integers(0, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    feature = st.one_of(finite.map(repr), st.one_of(
        st.floats().map(repr),
        finite.map(lambda v: f"{v:.17e}"), finite.map(lambda v: f"{v:g}"),
        finite.map(lambda v: f"{v:.3f}"),
        st.sampled_from(ODD_FIELDS),
        st.tuples(st.sampled_from(["", " ", "\t"]), finite.map(repr),
                  st.sampled_from(["", " ", "  "])).map("".join),
    ))
    label = st.one_of(st.integers(-2**63, 2**63 - 1).map(str), st.one_of(
        st.integers(-2**65, 2**65).map(str),
        st.integers(0, 9).map(lambda v: f"+{v}"),
        st.sampled_from(ODD_FIELDS)))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 9 + ["blank", "odd width", "trailing comma"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "  \t"])))
            continue
        n = width if kind != "odd width" else draw(st.integers(0, 5))
        cells = [draw(label)] + [draw(feature) for _ in range(n)]
        lines.append(",".join(cells) + ("," if kind == "trailing comma" else ""))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(lines) + draw(st.sampled_from([ending, ""]))
    return draw(st.sampled_from(["", "\ufeff"])) + text, width


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=feature_files())
def test_reading_any_text_gives_the_line_readers_arrays_or_error(tmp_path, case):
    text, width = case
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    for w in (None, width):
        assert_reads_as_the_line_reader(path, w)


#: One file for each case the property draws, written as bytes.
READER_CASES = {
    "repr floats": b"1,0.1,-2.5e-300\n2,1.7976931348623157e+308,5e-324\n",
    "other decimal forms": b"1,1.00000000000000000001,2.50E+01\n2,.5,5.\n",
    "signs exponents and spaces": b" +1 , -2.5e+3 ,\t7\n-2,+0,-0\n",
    "blank and whitespace-only lines": b"\n1,2,3\n\n  \n\t\n4,5,6\n\n",
    "cr line endings": b"1,2,3\r4,5,6\r",
    "crlf line endings": b"1,2,3\r\n4,5,6\r\n",
    "quotes": b'1,"2",3\n',
    "hash": b"1,2,3 # a comment\n",
    "bom": "\ufeff1,2,3\n".encode("utf-8"),
    "nul byte": b"1,2\x00,3\n",
    "underscore in a number": b"1,1_000,3\n",
    "non-ascii digits": "1,٣,3\n".encode("utf-8"),
    "non-ascii label digits": "٣,2,3\n".encode("utf-8"),
    "trailing comma": b"1,2,3,\n",
    "wrong width": b"1,2,3\n4,5\n",
    "label above int64": b"1,2,3\n9223372036854775808,5,6\n",
    "label below int64": b"-9223372036854775809,5,6\n",
    "int64 extremes": b"9223372036854775807,5,6\n-9223372036854775808,5,6\n",
    "float label": b"1.0,2,3\n",
    "nan": b"1,2,3\n4,nan,6\n",
    "inf": b"1,2,3\n4,5,-inf\n",
    "overflow to inf": b"1,1e400,3\n",
    "finite field above the csv limit": b"1,0." + b"0" * 200_000 + b"1,3\n",
    "empty file": b"",
    "only blank lines": b"\n \r\n\t\n",
    "not utf-8": b"1,2,3\n4,\xff,6\n",
    "labels only": b"1\n2\n",
}


@pytest.mark.parametrize("name", sorted(READER_CASES))
def test_each_reader_case_reads_as_the_line_reader(tmp_path, name):
    path = tmp_path / "f.csv"
    path.write_bytes(READER_CASES[name])
    for width in (None, 2):
        assert_reads_as_the_line_reader(path, width)


def test_the_reader_refuses_what_csv_refuses(tmp_path):
    path = tmp_path / "f.csv"
    path.write_bytes(READER_CASES["finite field above the csv limit"])
    assert float("0." + "0" * 200_000 + "1") == 0.0  # finite: only the limit refuses it
    with pytest.raises(ParseError, match=r"f\.csv: malformed \(Error: field larger than"):
        data.read_feature_file(path, 2)
    path.write_bytes(b"")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ParseError, match=r"f\.csv: no samples"):
            data.read_feature_file(path, 2)
    assert caught == []  # np.loadtxt's "input contained no data" stays inside
    path.write_bytes(READER_CASES["nan"])
    with pytest.raises(ParseError, match=r"f\.csv:2: non-finite feature value"):
        data.read_feature_file(path, 2)


@pytest.mark.parametrize("rows,width", [(4096, 16), (1024, 32), (1, 1)])
def test_a_valid_file_never_reaches_the_line_reader(tmp_path, monkeypatch, rows, width):
    rng = RngState(rows).stream("bulk")
    x = rng.standard_normal((rows, width)) * np.logspace(-300, 300, width)
    y = rng.integers(-2**63, 2**63 - 1, rows)
    path = tmp_path / "bulk.csv"
    path.write_text("".join(",".join([str(c), *map(repr, row)]) + "\n"
                            for c, row in zip(y.tolist(), x.tolist())))

    def refuse(*args):
        raise AssertionError("the line reader ran")

    monkeypatch.setattr(data, "_read_feature_lines", refuse)
    for w in (None, width):
        got_x, got_y = data.read_feature_file(path, w)
        assert got_x.dtype == np.float64 and got_x.flags.c_contiguous
        assert got_x.shape == x.shape and got_x.tobytes() == x.tobytes()
        assert got_y.dtype == np.int64 and got_y.tobytes() == y.tobytes()


def test_a_request_loads_no_module_beyond_the_command_line(tmp_path):
    # ``np.loadtxt`` given a path imports gzip; given the open file, nothing.
    # The first parse of a command line imports locale (argparse's gettext),
    # so the modules are counted from after it.
    from tpl import cli

    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "schema_version": 1, "seed": 1,
        "dataset": {"kind": "synthetic", "n_tasks": 2, "classes_per_task": 2, "dim": 4,
                    "separation": 6.0, "train_per_class": 20, "test_per_class": 5},
        "training": {"epochs": 1, "hidden_widths": [8], "buffer_capacity": 8}}))
    assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "run"),
                     "--quiet"]) == 0
    rows = RngState(0).stream("request").standard_normal((32, 4))
    (tmp_path / "request.csv").write_text(
        "".join("0," + ",".join(map(repr, row)) + "\n" for row in rows.tolist()))
    argv = ["predict", "--run", str(tmp_path / "run"), "--input",
            str(tmp_path / "request.csv"), "--output", str(tmp_path / "p.csv"), "--quiet"]
    child = ("import json, sys\nfrom tpl import cli\n"
             f"argv = {argv!r}\ncli.build_parser().parse_args(argv)\n"
             "before = set(sys.modules)\nassert cli.main(argv) == 0\n"
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(data.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                          env=env, check=True)
    assert json.loads(done.stdout) == []
    assert (tmp_path / "p.csv").read_text().count("\n") == 33


# --- exact density ----------------------------------------------------------

def test_density_peaks_at_class_mean():
    s = small_stream()
    t1 = s.tasks[0]
    mean = t1.means[0]
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
    x = s.tasks[0].means[0] + np.array([0.5, -0.25])
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
