"""Package layering: each ``tpl`` module imports only the modules below it.

Every intra-package import is read from the source with ``ast``, at module
level and inside functions alike; imports under ``if TYPE_CHECKING:`` are
for annotations only and are skipped.  The task-score definitions live in
``scoring`` alone, so ``trainer`` fits its score rates through them.  No
module imports any part of scipy, at module level or inside a function:
ranking is ``numerics.average_ranks``, the theory oracles run on ``math`` and
numpy, and importing scipy would add about a third of a second to every CLI
call."""

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
