"""Task streams: synthetic Gaussian class data and CSV/manifest loading.

A stream is an ordered list of tasks; each task owns a disjoint set of global
class labels and carries train/test feature arrays.  Synthetic streams keep
their per-class generative parameters so exact densities stay available to the
validation tooling; loaded streams do not (``mixture_log_density`` refuses).

Feature-file format: one sample per line, ``label,f0,f1,...,f{m-1}``, no
header.  Manifest format: JSON ``{"dim": optional int, "tasks": [{"task_id",
"classes", "train", "test"}, ...]}`` with file paths relative to the manifest.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyTestSet,
    NoDensityAvailable,
    OverlappingLabelSets,
    ParseError,
    UnknownTask,
)
from .numerics import RngState, diag_gaussian_logpdf, log_sum_exp

_MAX_RADIUS_ESCALATIONS = 40


@dataclass(frozen=True)
class ClassGaussian:
    """Generative description of one synthetic class: mean + diagonal covariance."""

    mean: np.ndarray
    cov_diag: np.ndarray


@dataclass
class TaskDataset:
    """One task's data: global class ids plus train/test feature arrays."""

    task_id: int
    classes: tuple[int, ...]
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    gaussians: dict[int, ClassGaussian] | None = None

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
            extra = set(np.unique(y).tolist()) - set(self.classes)
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
    for _ in range(_MAX_RADIUS_ESCALATIONS):
        means: list[np.ndarray] = []
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
            return np.stack(means)
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
) -> TaskStream:
    """Synthetic stream of Gaussian classes.

    All class means (across every task) are placed with minimum pairwise
    distance ``separation``.  Covariance is the identity unless a diagonal is
    given, shared by all classes.  Same rng state in, same stream out.
    """
    if n_tasks < 1 or classes_per_task < 1:
        raise ValueError("need at least one task and one class per task")
    if samples_per_class_train < 1 or samples_per_class_test < 0:
        raise ValueError("bad per-class sample counts")
    if covariance_diag is None:
        cov = np.ones(dim, dtype=np.float64)
    else:
        cov = np.asarray(covariance_diag, dtype=np.float64)
        if cov.shape != (dim,):
            raise DimensionMismatch(f"covariance diagonal must have shape ({dim},)")
        if np.any(cov <= 0):
            raise ValueError("covariance diagonal entries must be positive")

    total = n_tasks * classes_per_task
    means = _place_class_means(total, dim, separation, rng)
    scale = np.sqrt(cov)

    tasks = []
    next_class = 0
    for t in range(1, n_tasks + 1):
        classes = tuple(range(next_class, next_class + classes_per_task))
        next_class += classes_per_task
        gaussians = {
            c: ClassGaussian(mean=means[c].copy(), cov_diag=cov.copy()) for c in classes
        }

        def draw_split(stream_name: str, per_class: int):
            noise = rng.stream(stream_name)
            xs, ys = [], []
            for c in classes:
                pts = means[c] + scale * noise.standard_normal((per_class, dim))
                xs.append(pts)
                ys.append(np.full(per_class, c, dtype=np.int64))
            if per_class == 0:
                return np.empty((0, dim)), np.empty(0, dtype=np.int64)
            return np.concatenate(xs), np.concatenate(ys)

        train_x, train_y = draw_split(f"train-noise-{t}", samples_per_class_train)
        test_x, test_y = draw_split(f"test-noise-{t}", samples_per_class_test)
        tasks.append(
            TaskDataset(
                task_id=t,
                classes=classes,
                train_x=train_x,
                train_y=train_y,
                test_x=test_x,
                test_y=test_y,
                gaussians=gaussians,
            )
        )
    return TaskStream(tasks=tasks)


def read_feature_file(path: Path, width: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Parse a non-empty ``label,f0,f1,...`` feature CSV into (features,
    labels); blank lines are skipped.  Malformed or non-finite rows raise
    ``ParseError`` naming their 1-based line; a row with other than ``width``
    features (default: the first row's count) raises ``DimensionMismatch``."""
    xs: list[list[float]] = []
    ys: list[int] = []
    linenos: list[int] = []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    with fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # ignore blank lines
            try:
                label = int(row[0])
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


def load_feature_stream(manifest_path: str | Path) -> TaskStream:
    """Load a stream from a JSON manifest of per-task CSV feature files."""
    manifest_path = Path(manifest_path)
    try:
        raw = manifest_path.read_text()
    except OSError as exc:
        raise ParseError(f"{manifest_path}: {exc}") from None
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{manifest_path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict) or "tasks" not in doc:
        raise ParseError(f"{manifest_path}: manifest must be an object with 'tasks'")
    dim = doc.get("dim")
    if dim is not None and (not isinstance(dim, int) or dim < 1):
        raise ParseError(f"{manifest_path}: 'dim' must be a positive integer")
    base = manifest_path.parent

    tasks = []
    for entry in doc["tasks"]:
        missing = {"task_id", "classes", "train", "test"} - set(entry)
        if missing:
            raise ParseError(f"{manifest_path}: task entry missing {sorted(missing)}")
        classes = tuple(int(c) for c in entry["classes"])
        train_x, train_y = read_feature_file(base / entry["train"], dim)
        file_dim = train_x.shape[1]
        test_x, test_y = read_feature_file(base / entry["test"], file_dim)
        tasks.append(
            TaskDataset(
                task_id=int(entry["task_id"]),
                classes=classes,
                train_x=train_x,
                train_y=train_y,
                test_x=test_x,
                test_y=test_y,
                gaussians=None,
            )
        )
    return TaskStream(tasks=tasks)


def mixture_log_density(task: TaskDataset, x: np.ndarray) -> np.ndarray:
    """Exact log-density of each row of ``x`` [n, dim] under the task's
    equal-weight Gaussian class mixture: [n].

    Only synthetic tasks carry their generative parameters; loaded data raises
    ``NoDensityAvailable``.
    """
    if not task.gaussians:
        raise NoDensityAvailable(
            f"task {task.task_id} has no generative description (loaded data?)"
        )
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != task.dim:
        raise DimensionMismatch(f"points have shape {x.shape}, task has dim {task.dim}")
    per_class = np.stack([diag_gaussian_logpdf(x, g.mean, g.cov_diag)
                          for _, g in sorted(task.gaussians.items())], axis=1)
    return log_sum_exp(per_class) - math.log(len(task.gaussians))
