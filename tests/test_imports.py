"""Every module-level import in the library is used, and the heavy ones
stay out of the modules that do not need them.

No linter is a dependency of the project, so this scans the syntax trees:
a name bound by a module-level ``import`` counts as used when the module
reads it anywhere, or lists it in ``__all__``.  ``__init__.py`` re-exports
its imports and ``from __future__`` imports bind nothing.

Loading scipy's graph and solver routines costs more than importing the
rest of the library, so the modules import them inside the functions that
use them; a fresh interpreter checks which modules an import loads.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "omegadp"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nimport scipy.sparse\n"
              "from .a import b, c as d\n"
              "__all__ = ['d']\n"
              "x = np.zeros(1) + scipy.sparse.eye(1)\n")
    assert unused_imports(source) == [(2, "os"), (5, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def scipy_modules_loaded_by(statement):
    """The ``scipy`` modules in ``sys.modules`` after ``statement`` runs in
    a fresh interpreter."""
    code = (f"import sys; {statement}; print(*(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return set(run.stdout.split())


def test_the_automaton_modules_load_no_scipy():
    assert scipy_modules_loaded_by(
        "import omegadp, omegadp.automata, omegadp.reduction, "
        "omegadp.lasso_bulk, omegadp.streett") == set()


def test_the_mdp_module_loads_no_graph_or_solver_routines():
    loaded = scipy_modules_loaded_by("import omegadp.mdp")
    assert "scipy.sparse" in loaded
    assert not loaded & {"scipy.sparse.csgraph", "scipy.sparse.linalg"}
