"""Package layering: each ``tpl`` module imports only the modules below it.

Every intra-package import is read from the source with ``ast``, at module
level and inside functions alike; imports under ``if TYPE_CHECKING:`` are
for annotations only and are skipped.  The task-score definitions live in
``scoring`` alone, so ``trainer`` fits its score rates through them.  No
module imports any part of scipy, at module level or inside a function:
ranking is ``numerics.average_ranks``, the theory oracles run on ``math`` and
numpy, and importing scipy would add about a third of a second to every CLI
call.  Every public name of the package is read by package code outside its
own definition, so the public surface is what the commands run;
``UNREAD_PUBLIC_NAMES`` lists the exceptions, each with its reason.  Only
``data.write_file`` writes a file: no other function opens one for writing,
writes a ``Path`` or renames a file."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tpl
from tpl import cli, theory_lab

#: The package's modules from the bottom layer up.
LAYERS = ("errors", "numerics", "data", "hat_mlp", "scoring", "calibration",
          "trainer", "evaluation", "theory_lab", "cli")

SRC = Path(tpl.__file__).parent


def parse(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def is_type_checking_block(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
        or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")
    )


def package_imports(node: ast.AST) -> set[str]:
    """``tpl`` modules imported anywhere under ``node``, outside
    ``if TYPE_CHECKING:`` blocks."""
    found: set[str] = set()
    for child in ast.iter_child_nodes(node):
        if is_type_checking_block(child):
            found |= set().union(*(package_imports(n) for n in child.orelse))
            continue
        if isinstance(child, ast.ImportFrom):
            module = child.module or ""
            if child.level == 0:
                if module != "tpl" and not module.startswith("tpl."):
                    continue
                module = module[len("tpl."):]
            if module:
                found.add(module.split(".")[0])
            else:  # ``from . import a, b``
                found |= {alias.name for alias in child.names}
        elif isinstance(child, ast.Import):
            found |= {alias.name.split(".")[1] for alias in child.names
                      if alias.name.startswith("tpl.")}
        found |= package_imports(child)
    return found


def top_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def module_references(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """``(module, name)`` of every top-level name that ``tree``, the source of
    ``tpl.<module>``, reads: a bare name of its own or one imported by
    ``from .m import name``, or ``m.name`` after ``from . import m``.  A
    top-level statement's reads of the names it defines are not counted (a
    recursive call or a class naming itself is not a caller), and an import
    or a docstring reads nothing."""
    modules: dict[str, str] = {}
    imported: dict[str, tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module:
                    imported[alias.asname or alias.name] = (node.module, alias.name)
                else:
                    modules[alias.asname or alias.name] = alias.name
    found: set[tuple[str, str]] = set()
    for stmt in tree.body:
        reads = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                reads.add(imported.get(node.id, (module, node.id)))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                reads.add((modules[node.value.id], node.attr))
        found |= reads - {(module, name) for name in top_level_names(ast.Module([stmt], []))}
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)
    assert package_imports(ast.parse((SRC / "__init__.py").read_text())) == set()


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_only_lower_layers(module):
    below = set(LAYERS[: LAYERS.index(module)])
    above = package_imports(parse(module)) - below
    assert not above, f"tpl.{module} imports {sorted(above)}, which are not below it"


def test_type_checking_imports_are_skipped():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from .trainer import RunArtifacts\n"
        "def f():\n    from . import calibration, cli\n"
        "    import tpl.data\n"
    )
    assert package_imports(tree) == {"calibration", "cli", "data"}


@pytest.mark.parametrize("name", ["MD_FLOOR", "TaskStats", "identity_calibration"])
def test_score_definitions_live_in_scoring_alone(name):
    homes = [m for m in LAYERS if name in top_level_names(parse(m))]
    assert homes == ["scoring"]


def test_trainer_fits_rates_through_the_scoring_kernels():
    """No inline max-logit or floored inverse-distance expression in trainer."""
    tree = parse("trainer")
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not {"MD_FLOOR", "whitened_sq"} & (names | attrs)
    assert "max" not in attrs  # np.max over logits is scoring.mls_score
    assert {"mls_score", "md_score"} <= names


#: Public names that no ``src/tpl`` code reads, each with the reason it stays.
UNREAD_PUBLIC_NAMES = {
    "evaluation.compute_report": "recomputes every metric from the run's checkpoints: "
    "the reference that `tpl eval`'s report from stored measurements is compared "
    "against, and the report acceptance criterion 7 checks",
}


def test_every_public_name_is_read_by_the_package():
    """Each top-level public function, class and constant is read by package
    code outside its own definition (``module_references``), so the public
    surface is what the commands run; the allowlist names the exceptions."""
    read = set().union(*(module_references(m, parse(m)) for m in LAYERS))
    unread = {f"{m}.{name}" for m in LAYERS for name in top_level_names(parse(m))
              if not name.startswith("_") and (m, name) not in read}
    assert unread == set(UNREAD_PUBLIC_NAMES)


def test_module_references_counts_only_reads_outside_the_definition():
    sources = {
        "a": ('"""f is documented here."""\n'
              "def f():\n    return f()\n"
              "def g():\n    return h\n"
              "h = 1\n"
              "class C:\n    def m(self):\n        return C()\n"),
        "b": ("from . import a\nfrom .a import C as K, h\n"
              "def k():\n    return a.g(), K\n"),
    }
    read = set().union(*(module_references(m, ast.parse(s)) for m, s in sources.items()))
    assert {("a", "g"), ("a", "h"), ("a", "C")} <= read
    assert not {("a", "f"), ("b", "k")} & read


def file_writes(tree: ast.Module) -> list[tuple[str, ast.Call]]:
    """``(top-level definition, call)`` for each call in ``tree`` that writes
    a file: ``open`` (or an ``.open`` method) in a mode holding ``w``, ``a``,
    ``x`` or ``+``, or in a mode that is not a literal; ``.write_text`` or
    ``.write_bytes``; ``os.replace`` or ``os.rename``, however imported."""
    renames = {"os.replace", "os.rename"} | {
        alias.asname or alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "os"
        for alias in node.names if alias.name in ("replace", "rename")}
    found = []
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func)
            method = func.rpartition(".")[2]
            if method == "open":
                # open(file, mode) and its io/os forms; Path.open(mode)
                at = 1 if func in ("open", "io.open", "os.open") else 0
                modes = [k.value for k in node.keywords if k.arg in ("mode", "flags")]
                mode = modes[0] if modes else (
                    node.args[at] if len(node.args) > at else ast.Constant("r"))
                writes = not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                              and not set("wax+") & set(mode.value))
            else:
                writes = func in renames or method in ("write_text", "write_bytes")
            if writes:
                found.append((getattr(stmt, "name", "<module>"), node))
    return found


def test_only_data_writes_files():
    """``data.write_file`` is the one function of the package that writes a
    file (``file_writes``): every other module writes through it, so every
    file is written by rename and no write can leave a part-written file."""
    writers: dict[str, list[str]] = {}
    for module in LAYERS:
        for name, call in file_writes(parse(module)):
            writers.setdefault(f"{module}.{name}", []).append(ast.unparse(call))
    assert set(writers) == {"data.write_file"}, writers


def test_file_writes_sees_every_form_of_a_write():
    tree = ast.parse(
        "import io, os\nfrom os import rename as mv\n"
        "def reads(p, q):\n"
        "    open(p); open(p, 'rb'); open(p, newline=''); p.open(); p.open(encoding='u8')\n"
        "    p.read_text(); p.read_bytes(); 'ab'.replace('a', 'b'); os.path.join(p, q)\n"
        "def w1(p):\n    open(p, 'w')\n"
        "def w2(p):\n    open(p, 'ab')\n"
        "def w3(p):\n    open(p, mode='x')\n"
        "def w4(p):\n    open(p, 'r+')\n"
        "def w5(p, m):\n    open(p, m)\n"
        "def w6(p):\n    p.open('wb')\n"
        "def w7(p):\n    io.open(p, 'w')\n"
        "def w8(p):\n    os.open(p, os.O_WRONLY)\n"
        "def w9(p):\n    p.write_text('t')\n"
        "def w10(p):\n    p.write_bytes(b'')\n"
        "def w11(p, q):\n    os.replace(p, q)\n"
        "def w12(p, q):\n    os.rename(p, q)\n"
        "def w13(p, q):\n    mv(p, q)\n"
        "class C:\n    def w14(self, p):\n        open(p, 'w')\n"
    )
    assert [name for name, _ in file_writes(tree)] == [f"w{i}" for i in range(1, 14)] + ["C"]


def imported_modules(tree: ast.Module) -> set[str]:
    """Every absolute module name an ``import`` or ``from ... import`` names,
    with ``from a import b`` counted as both ``a`` and ``a.b``."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module)
            found |= {f"{node.module}.{alias.name}" for alias in node.names}
    return found


def is_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


@pytest.mark.parametrize("module", LAYERS)
def test_no_module_imports_scipy_stats(module):
    """No import of ``scipy`` or any of its modules, ``scipy.stats`` included."""
    assert not {n for n in imported_modules(parse(module)) if is_scipy(n)}


def test_imported_modules_sees_every_form_of_the_import():
    for source in ("import scipy.stats", "from scipy.stats import rankdata",
                   "from scipy import stats", "def f():\n    import scipy.stats as s\n"):
        assert "scipy.stats" in imported_modules(ast.parse(source)), source
    for source in ("import scipy", "from scipy.special import ndtr",
                   "def f():\n    from scipy.optimize import brentq\n",
                   "class C:\n    def f(self):\n        from scipy import integrate\n"):
        assert any(is_scipy(n) for n in imported_modules(ast.parse(source))), source


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    """``import tpl.cli`` loads no scipy module at all."""
    code = ("import sys, tpl.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"


#: Runs theory-check cases, given as (case, samples) argument pairs after the
#: output directory, in a process where every import of scipy fails.
BLOCKED_CHILD = """
import sys
sys.modules["scipy"] = None  # ``import scipy`` and its submodules now raise
from tpl import cli
out = sys.argv[1]
codes = [cli.main(["theory-check", "--case", case, "--samples", samples,
                   "--out", f"{out}/{case}.json", "--quiet"])
         for case, samples in zip(sys.argv[2::2], sys.argv[3::2])]
sys.exit(max(codes))
"""

#: Each theory-check case at its smallest ``--samples``.
THEORY_CASES = {"sec41": theory_lab.MIN_EMPIRICAL_N, "dominance": theory_lab.MIN_EMPIRICAL_N,
                "density": theory_lab.MIN_PROBES}


def test_theory_check_runs_with_scipy_blocked(tmp_path):
    """With ``import scipy`` made to fail, every theory-check case exits 0 and
    writes the report an unblocked run writes."""
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    args = [str(blocked)] + [str(v) for item in THEORY_CASES.items() for v in item]
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", BLOCKED_CHILD, *args], capture_output=True,
                         text=True, env=env)
    assert run.returncode == 0, run.stderr
    for case, samples in THEORY_CASES.items():
        report = tmp_path / f"{case}.json"
        assert cli.main(["theory-check", "--case", case, "--samples", str(samples),
                         "--out", str(report), "--quiet"]) == 0
        assert (blocked / f"{case}.json").read_bytes() == report.read_bytes(), case


#: Trains a tiny synthetic run and runs ``theory-check --case density`` in the
#: directory given as the first argument, then prints whether ``numpy.ma``
#: was ever imported.
MA_CHILD = """
import json, sys
from tpl import cli
out = sys.argv[1]
with open(f"{out}/c.json", "w") as f:
    json.dump({"schema_version": 1, "seed": 1,
               "dataset": {"kind": "synthetic", "n_tasks": 2, "classes_per_task": 2,
                           "dim": 4, "separation": 6.0, "train_per_class": 20,
                           "test_per_class": 5},
               "training": {"epochs": 2, "hidden_widths": [8], "buffer_capacity": 8}}, f)
assert cli.main(["train", "--config", f"{out}/c.json", "--out", f"{out}/run",
                 "--quiet"]) == 0
assert cli.main(["theory-check", "--case", "density", "--samples", sys.argv[2],
                 "--out", f"{out}/density.json", "--quiet"]) == 0
print("numpy.ma" in sys.modules)
"""


def test_train_and_theory_check_leave_numpy_ma_unloaded(tmp_path):
    """``numpy.ma`` costs 10-15 ms to import, and no command needs it: the
    label check of a ``TaskDataset`` reads a set, not ``np.unique``."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    run = subprocess.run([sys.executable, "-c", MA_CHILD, str(tmp_path),
                          str(theory_lab.MIN_PROBES)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
