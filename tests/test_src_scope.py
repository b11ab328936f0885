"""``src/`` defines nothing that only tests call.

Every function, class and method of ``src/macrostab`` (``__init__.py`` aside,
which only re-exports) that is not a dunder must be read somewhere in the
package, as a name or as an attribute, or be imported by the benchmark in
``perfbench/``.  Oracles and test helpers belong in ``tests/conftest.py``.

The scan matches names, not bindings: a definition whose name is also a
local variable elsewhere in ``src/`` counts as used.  A method ``overlap``,
say, would slip past it, because ``ground_state`` holds a local variable
of that name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(paths):
    return [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths]


def test_every_definition_is_used_in_src_or_by_the_benchmark():
    src = _parse(p for p in ROOT.glob("src/macrostab/*.py") if p.name != "__init__.py")
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    defined = {
        node.name
        for tree in src
        for node in ast.walk(tree)
        if isinstance(node, defs) and not (node.name.startswith("__") and node.name.endswith("__"))
    }
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in src
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    benchmark = {
        alias.name
        for tree in _parse(ROOT.glob("perfbench/*.py"))
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "macrostab"
        for alias in node.names
    }
    assert sorted(defined - used - benchmark) == []
