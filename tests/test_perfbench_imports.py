"""Every package name the benchmark imports must exist.

The benchmark's catalog check in ``perfbench/checks.py`` imports names such
as ``macrostab.operators.LocalOperator`` inside its functions, so a rename
or deletion in the package shows only when the benchmark runs.  This test
reads each ``from macrostab... import ...`` statement of ``perfbench/``
with ``ast`` and resolves its names, without running the benchmark.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _package_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "macrostab"
        for alias in node.names
    ]


def _resolves(module, attr):
    """``from module import attr`` finds an attribute or a submodule."""
    return hasattr(importlib.import_module(module), attr) or importlib.util.find_spec(f"{module}.{attr}") is not None


def test_catalog_check_imports_the_package():
    assert ("macrostab.operators", "LocalOperator") in _package_imports(PERFBENCH / "checks.py")


@pytest.mark.parametrize("name", sorted(p.name for p in PERFBENCH.glob("*.py")))
def test_every_imported_name_resolves(name):
    missing = [
        (module, attr)
        for module, attr in _package_imports(PERFBENCH / name)
        if not _resolves(module, attr)
    ]
    assert missing == []
