"""Task streams: synthetic Gaussian class data and CSV/manifest loading.

A stream is an ordered list of tasks; each task owns a disjoint set of global
class labels and carries train/test feature arrays.  Synthetic tasks keep their
generative model, an equal-weight mixture of Gaussian classes with one shared
diagonal covariance, so exact densities stay available to the validation
tooling; loaded tasks do not (``mixture_log_density`` refuses).

Feature-file format: one sample per line, ``label,f0,f1,...,f{m-1}``, no
header.  Manifest format: JSON ``{"dim": optional positive int, "tasks":
[{"task_id", "classes", "train", "test"}, ...]}``: ``task_id`` and each class
id are JSON integers, ``train`` and ``test`` are file paths relative to the
manifest.

Every file the package reads is read inside ``reading``: one rule turns a
failed read or decode into one error naming the file.  ``read_json`` is the
one decode of a JSON text file.  ``writing`` is its twin for writes, and
``write_file`` is the one writer: every file a command writes (run-directory
files, reports, CSVs and caches) goes to a temporary file beside it, which
is then renamed into place.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import json
import math
import os
import struct
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyTestSet,
    NoDensityAvailable,
    OverlappingLabelSets,
    ParseError,
    TplError,
    UnknownTask,
    WriteError,
)
from .numerics import RngState, check_int, diag_gaussian_logpdf, log_sum_exp

_MAX_RADIUS_ESCALATIONS = 40

#: The largest ``separation`` whose squared mean distances stay finite at every
#: radius ``_place_class_means`` may escalate to.  Two means on a sphere of
#: radius r are at most 2r apart, the radius reaches max(separation, 1) times
#: 1.5**(_MAX_RADIUS_ESCALATIONS - 1), and a further factor of 2 leaves room
#: for rounding in the dot product.
MAX_SEPARATION = math.sqrt(sys.float_info.max) / (4 * 1.5 ** (_MAX_RADIUS_ESCALATIONS - 1))


@dataclass
class TaskDataset:
    """One task's data: global class ids plus train/test feature arrays (a
    stream built without its training split holds [0, dim] train arrays).

    A synthetic task also carries its generative model: class k is
    N(means[k], diag(cov_diag)), ``means`` [n_classes, dim] in ``classes``
    order and the diagonal [dim] shared by every class.  Loaded data has
    neither."""

    task_id: int
    classes: tuple[int, ...]
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    means: np.ndarray | None = None
    cov_diag: np.ndarray | None = None

    def __post_init__(self):
        if len(set(self.classes)) != len(self.classes):
            raise OverlappingLabelSets(
                f"task {self.task_id} lists a class twice: {self.classes}"
            )
        for name in ("train", "test"):
            x = getattr(self, f"{name}_x")
            y = getattr(self, f"{name}_y")
            if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
                raise DimensionMismatch(
                    f"task {self.task_id} {name} arrays disagree: "
                    f"x {x.shape}, y {y.shape}"
                )
            extra = set(y.tolist()) - set(self.classes)
            if extra:
                raise OverlappingLabelSets(
                    f"task {self.task_id} {name} labels {sorted(extra)} "
                    f"not in declared classes {self.classes}"
                )
        if self.train_x.shape[1] != self.test_x.shape[1]:
            raise DimensionMismatch(
                f"task {self.task_id}: train dim {self.train_x.shape[1]} "
                f"!= test dim {self.test_x.shape[1]}"
            )

    @property
    def dim(self) -> int:
        return int(self.train_x.shape[1])

    @property
    def n_classes(self) -> int:
        return len(self.classes)


def label_positions(labels, classes) -> np.ndarray:
    """Position of each label in the class list ``classes``, as int64; a label
    not in the list raises ``UnknownTask``."""
    labels = np.asarray(labels, dtype=np.int64)
    classes = np.asarray(classes, dtype=np.int64)
    hit = labels[:, None] == classes[None, :]
    missing = ~hit.any(axis=1)
    if missing.any():
        raise UnknownTask(
            f"label {int(labels[missing][0])} is not one of the classes {classes.tolist()}"
        )
    return np.argmax(hit, axis=1).astype(np.int64)


def pooled_test_rows(datasets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The datasets' test rows stacked in order, ``(x, y, bounds)``: dataset
    j's rows are ``bounds[j]:bounds[j + 1]``.  Raises ``EmptyTestSet`` when
    there are no rows at all."""
    bounds = np.cumsum([0] + [d.test_x.shape[0] for d in datasets])
    if bounds[-1] == 0:
        raise EmptyTestSet("no test samples in any supplied dataset")
    x = np.concatenate([d.test_x for d in datasets])
    return x, np.concatenate([d.test_y for d in datasets]), bounds


@dataclass
class TaskStream:
    """Ordered tasks with pairwise-disjoint label sets and a common feature dim."""

    tasks: list[TaskDataset] = field(default_factory=list)

    def __post_init__(self):
        seen: dict[int, int] = {}
        for task in self.tasks:
            for c in task.classes:
                if c in seen:
                    raise OverlappingLabelSets(
                        f"class {c} appears in both task {seen[c]} and task {task.task_id}"
                    )
                seen[c] = task.task_id
        dims = {t.dim for t in self.tasks}
        if len(dims) > 1:
            raise DimensionMismatch(f"tasks disagree on feature dim: {sorted(dims)}")
        ids = [t.task_id for t in self.tasks]
        if any(b <= a for a, b in zip(ids, ids[1:])):
            raise ParseError(f"task ids must be strictly increasing, got {ids}")

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def dim(self) -> int:
        if not self.tasks:
            raise DimensionMismatch("empty stream has no dimension")
        return self.tasks[0].dim

    def task(self, task_id: int) -> TaskDataset:
        for t in self.tasks:
            if t.task_id == task_id:
                return t
        raise UnknownTask(f"no task with id {task_id}")


def _no_rows(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """An empty split of ``dim``-feature rows: ``(x [0, dim], y [0])``."""
    return np.empty((0, dim)), np.empty(0, dtype=np.int64)


def sample_mixture(means: np.ndarray, cov_diag: np.ndarray, which: np.ndarray,
                   noise: RngState) -> np.ndarray:
    """One draw from each class ``which[i]`` of the Gaussian classes
    N(means[k], diag(cov_diag)): ``means[which] + sqrt(cov_diag) * z`` with z
    a single [len(which), dim] standard-normal draw from ``noise``."""
    z = noise.standard_normal((len(which), means.shape[1]))
    return means[which] + np.sqrt(cov_diag) * z


def _place_class_means(
    n_classes: int, dim: int, separation: float, rng: RngState
) -> np.ndarray:
    """Means on a sphere with min pairwise distance >= separation.

    The sphere radius starts at max(separation, 1) and is escalated when a full
    placement attempt fails, so crowded low-dimensional configurations still
    terminate deterministically.  In one dimension a sphere holds only two
    points, so means sit on a centered lattice spaced ``separation`` instead.
    """
    if dim == 1:
        step = max(float(separation), 1.0)
        offsets = (np.arange(n_classes, dtype=np.float64) - (n_classes - 1) / 2.0) * step
        return offsets.reshape(-1, 1)
    draw = rng.stream("class-means")
    radius = max(float(separation), 1.0)
    means = np.empty((n_classes, dim))
    for _ in range(_MAX_RADIUS_ESCALATIONS):
        placed = 0
        budget = 200 * n_classes
        while placed < n_classes and budget > 0:
            budget -= 1
            v = draw.standard_normal(dim)
            norm = float(np.linalg.norm(v))
            if norm < 1e-12:
                continue
            cand = v * (radius / norm)
            # sqrt(g.g) is np.linalg.norm(g) bit for bit: the same dot
            # product, then a correctly rounded square root
            if all(math.sqrt(g.dot(g)) >= separation for g in cand - means[:placed]):
                means[placed] = cand
                placed += 1
        if placed == n_classes:
            return means
        radius *= 1.5
    raise ValueError(
        f"could not place {n_classes} means at separation {separation} in dim {dim}"
    )


def generate_gaussian_stream(
    n_tasks: int,
    classes_per_task: int,
    dim: int,
    separation: float,
    samples_per_class_train: int,
    samples_per_class_test: int,
    rng: RngState,
    covariance_diag: np.ndarray | None = None,
    train: bool = True,
) -> TaskStream:
    """Synthetic stream of Gaussian classes.

    All class means (across every task) are placed with minimum pairwise
    distance ``separation``.  Covariance is the identity unless a diagonal is
    given, shared by all classes.  Same rng state in, same stream out.  With
    ``train`` off every train split is empty and never drawn; each split has
    its own named noise stream, so the test rows keep their bits.
    """
    if n_tasks < 1 or classes_per_task < 1:
        raise ValueError("need at least one task and one class per task")
    if samples_per_class_train < 1 or samples_per_class_test < 0:
        raise ValueError("bad per-class sample counts")
    if covariance_diag is None:
        cov = np.ones(dim, dtype=np.float64)
    else:
        cov = np.array(covariance_diag, dtype=np.float64)
        if cov.shape != (dim,):
            raise DimensionMismatch(f"covariance diagonal must have shape ({dim},)")
        if np.any(cov <= 0):
            raise ValueError("covariance diagonal entries must be positive")

    all_means = _place_class_means(n_tasks * classes_per_task, dim, separation, rng)

    tasks = []
    for t in range(1, n_tasks + 1):
        first = (t - 1) * classes_per_task
        means = all_means[first:first + classes_per_task]

        def draw_split(stream_name: str, per_class: int):
            which = np.repeat(np.arange(classes_per_task, dtype=np.int64), per_class)
            return sample_mixture(means, cov, which, rng.stream(stream_name)), first + which

        tasks.append(TaskDataset(
            t, tuple(range(first, first + classes_per_task)),
            *(draw_split(f"train-noise-{t}", samples_per_class_train) if train
              else _no_rows(dim)),
            *draw_split(f"test-noise-{t}", samples_per_class_test),
            means=means, cov_diag=cov,
        ))
    return TaskStream(tasks=tasks)


#: The task ids, class ids and labels the package's int64 arrays can hold.
_INT64 = range(-2**63, 2**63)


def _check_id(name: str, v) -> None:
    """``check_int`` for a task or class id, which must also fit in int64."""
    check_int(name, v, _INT64.start)
    if v not in _INT64:
        raise ValueError(f"{name} {v} does not fit in 64 bits")


@contextlib.contextmanager
def reading(path: Path, error: type[TplError] = ParseError):
    """Raise a failed read or decode of ``path`` in the block as one ``error``
    naming the file; errors of the package pass through unchanged."""
    try:
        yield
    except FileNotFoundError:
        raise error(f"{path}: missing") from None
    except OSError as exc:  # a directory, no permission, ...
        raise error(f"{path}: cannot read ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 ({exc})") from None
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise error(f"{path}: JSON nested too deeply") from None
    except (LookupError, TypeError, AttributeError, ValueError, struct.error, csv.Error) as exc:
        raise error(f"{path}: malformed ({type(exc).__name__}: {exc})") from None


@contextlib.contextmanager
def writing(path: Path):
    """Raise a failed write of ``path`` in the block (a missing parent, a
    parent that is a file, a directory in its place, ...) as one
    ``WriteError``: ``<path>: cannot write (<reason>)``."""
    try:
        yield
    except OSError as exc:
        raise WriteError(f"{path}: cannot write ({exc.strerror or exc})") from None


def check_writable(path: Path) -> None:
    """Raise, before any work, the ``writing`` error that writing ``path``
    would meet when its parent is missing or not a directory, or when
    ``path`` is a directory.  A special file (a device, a pipe) in its place
    is refused too: ``write_file`` would replace it.  Creates nothing."""
    with writing(path):
        if not path.parent.is_dir():
            path.parent.stat()  # missing, or below a file: raises as open would
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    if path.exists() and not path.is_file():
        raise WriteError(f"{path}: cannot write (not a regular file)")


def write_file(path: Path, chunks) -> None:
    """Write the bytes ``chunks`` yields, one at a time, to ``path``: the
    one way the package writes a file.

    The chunks go to ``.<name>.<pid>.tmp`` beside ``path`` (the name cut to
    200 characters, so a name that fits the file system's limit still fits
    with the suffix), which replaces ``path`` only once it is complete, so a
    reader never sees a part-written file and arrays mapped from the file it
    replaces keep their values.  A write that fails, for any reason, leaves
    ``path`` as it was and removes the temporary file; an ``OSError`` is
    raised as ``writing``'s error."""
    temporary = path.with_name(f".{path.name[:200]}.{os.getpid()}.tmp")
    with writing(path):
        try:
            with open(temporary, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
            os.replace(temporary, path)
        except BaseException:
            with contextlib.suppress(OSError):
                temporary.unlink()
            raise


def read_json(path: Path, decode=lambda doc: doc, error: type[TplError] = ParseError):
    """``decode`` applied to the UTF-8 JSON file ``path``, inside ``reading``."""
    with reading(path, error):
        return decode(json.loads(path.read_text(encoding="utf-8")))


def read_feature_file(path: Path, width: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Parse a non-empty ``label,f0,f1,...`` feature CSV into (features,
    labels); blank lines are skipped.  Malformed or non-finite rows raise
    ``ParseError`` naming their 1-based line; a row with other than ``width``
    features (default: the first row's count) raises ``DimensionMismatch``.

    The file is parsed in one C pass (``_read_columns``); whenever that pass
    refuses it, ``_read_feature_lines`` reads it again.  The line reader
    defines the format and builds every error, so both give the same
    arrays, bit for bit, or the same error."""
    with reading(path), open(path, newline="", encoding="utf-8") as fh:
        parsed = _read_columns(fh, width)
    return _read_feature_lines(path, width) if parsed is None else parsed


def _read_columns(fh, width: int | None) -> tuple[np.ndarray, np.ndarray] | None:
    """The (features, labels) of the open feature file ``fh`` from one
    ``np.loadtxt`` pass, or None wherever it could differ from
    ``_read_feature_lines``: any value or decode error or warning (an empty
    file warns), no rows, a non-finite value, or a line longer than the
    ``csv`` field limit, which ``np.loadtxt`` would parse and ``csv``
    refuses.  ``np.loadtxt`` is given the open file, not its path, so the
    call imports nothing."""
    try:
        if max(map(len, fh), default=0) > csv.field_size_limit():
            return None
        fh.seek(0)
        if width is None:
            first = next((line for line in fh if line.strip()), None)
            if first is None:
                return None
            width = first.count(",")
            fh.seek(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(fh, dtype=[("y", "<i8"), ("x", "<f8", (width,))],
                              delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    x = np.ascontiguousarray(rows["x"])
    if rows.shape[0] == 0 or not np.isfinite(x).all():
        return None
    return x, np.ascontiguousarray(rows["y"])


def _read_feature_lines(path: Path, width: int | None) -> tuple[np.ndarray, np.ndarray]:
    """``read_feature_file`` one ``csv`` row at a time: the reference
    reader, and the only one that builds an error."""
    xs: list[list[float]] = []
    ys: list[int] = []
    linenos: list[int] = []
    with reading(path), open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # ignore blank lines
            try:
                label = int(row[0])
                if label not in _INT64:
                    raise ValueError(f"label {label} does not fit in 64 bits")
                feats = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            if width is None:
                width = len(feats)
            if len(feats) != width:
                raise DimensionMismatch(
                    f"{path}:{lineno}: expected {width} features, got {len(feats)}"
                )
            xs.append(feats)
            ys.append(label)
            linenos.append(lineno)
    if not xs:
        raise ParseError(f"{path}: no samples")
    x = np.asarray(xs, dtype=np.float64)
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        bad = linenos[int(np.argmin(finite))]
        raise ParseError(f"{path}:{bad}: non-finite feature value (nan or inf)")
    return x, np.asarray(ys, dtype=np.int64)


def _check_manifest(doc) -> dict:
    """A decoded manifest, returned as it is; raise ``ValueError`` naming its
    first entry that breaks the format in the module docstring."""
    if not isinstance(doc, dict) or not isinstance(doc.get("tasks"), list):
        raise ValueError("manifest must be an object with a 'tasks' list")
    if doc.get("dim") is not None:
        check_int("dim", doc["dim"], 1)
    for i, entry in enumerate(doc["tasks"]):
        where = f"tasks[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object, got {entry!r}")
        missing = {"task_id", "classes", "train", "test"} - set(entry)
        if missing:
            raise ValueError(f"{where} is missing {sorted(missing)}")
        _check_id(f"{where}.task_id", entry["task_id"])
        if not isinstance(entry["classes"], list):
            raise ValueError(f"{where}.classes must be a list, got {entry['classes']!r}")
        for j, c in enumerate(entry["classes"]):
            _check_id(f"{where}.classes[{j}]", c)
        for split in ("train", "test"):
            if not isinstance(entry[split], str):
                raise ValueError(f"{where}.{split} must be a string, got {entry[split]!r}")
    return doc


def manifest_test_paths(manifest_path: str | Path) -> list[Path]:
    """The test CSV of each task a manifest lists, in order, none opened."""
    manifest_path = Path(manifest_path)
    doc = read_json(manifest_path, _check_manifest)
    return [manifest_path.parent / entry["test"] for entry in doc["tasks"]]


def load_feature_stream(
    manifest_path: str | Path, train: bool = True, width: int | None = None
) -> TaskStream:
    """Load a stream from a JSON manifest of per-task CSV feature files; a
    manifest that breaks the format is a ``ParseError`` naming it.

    Every file must hold ``width`` features (default: the manifest's ``dim``,
    else each task's first file); a manifest ``dim`` other than ``width`` is
    a ``DimensionMismatch`` naming it.  With ``train`` off the train files
    are never opened and every train split is empty."""
    manifest_path = Path(manifest_path)
    doc = read_json(manifest_path, _check_manifest)
    dim = doc.get("dim")
    if width is None:
        width = dim
    elif dim is not None and dim != width:
        raise DimensionMismatch(f"{manifest_path}: dim {dim}, expected {width}")
    base = manifest_path.parent

    tasks = []
    for entry in doc["tasks"]:
        if train:
            train_x, train_y = read_feature_file(base / entry["train"], width)
            test_x, test_y = read_feature_file(base / entry["test"], train_x.shape[1])
        else:
            test_x, test_y = read_feature_file(base / entry["test"], width)
            train_x, train_y = _no_rows(test_x.shape[1])
        tasks.append(TaskDataset(entry["task_id"], tuple(entry["classes"]),
                                 train_x, train_y, test_x, test_y))
    return TaskStream(tasks=tasks)


def mixture_log_density(task: TaskDataset, x: np.ndarray) -> np.ndarray:
    """Exact log-density of each row of ``x`` [n, dim] under the task's
    equal-weight Gaussian class mixture: [n].

    Only synthetic tasks carry their generative parameters; loaded data raises
    ``NoDensityAvailable``.
    """
    if task.means is None:
        raise NoDensityAvailable(
            f"task {task.task_id} has no generative description (loaded data?)"
        )
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != task.dim:
        raise DimensionMismatch(f"points have shape {x.shape}, task has dim {task.dim}")
    per_class = np.stack([diag_gaussian_logpdf(x, mu, task.cov_diag) for mu in task.means],
                         axis=1)
    return log_sum_exp(per_class) - math.log(task.n_classes)
