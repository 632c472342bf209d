"""The third-party modules that the code imports are the ones that
pyproject.toml declares: src/ imports only runtime dependencies, and tests/
only runtime or `test` dependencies.  The declared numpy floor has every
numpy function that src/ calls."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11")


def _declared(requirements):
    """Module names of requirement strings: 'scipy>=1.10' -> 'scipy'."""
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
            .replace("-", "_") for req in requirements}


def _third_party_imports(directory):
    """Top-level module names imported anywhere under directory that are
    neither the standard library nor cryodrum itself."""
    names = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module)
    return {name.split(".")[0] for name in names} \
        - set(sys.stdlib_module_names) - {"cryodrum"}


def test_imports_are_declared_dependencies():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = _declared(project["dependencies"])
    test = _declared(project["optional-dependencies"]["test"])
    assert runtime == {"numpy"}
    assert _third_party_imports(ROOT / "src") <= runtime
    assert _third_party_imports(ROOT / "tests") <= runtime | test


def test_numpy_floor_has_trapezoid():
    # fitting.integrate_peak calls np.trapezoid, new in NumPy 2.0
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    floors = [re.fullmatch(r"numpy>=(\d+)\.(\d+)", req)
              for req in project["dependencies"]]
    assert [tuple(map(int, m.groups())) >= (2, 0)
            for m in floors if m] == [True]
