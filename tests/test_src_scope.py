"""``src/`` defines nothing that only tests call, imports nothing it does not
read, and each name has one spelling.

Every function, class and method of ``src/macrostab`` that is not a dunder
must be read somewhere in the package, as a name or as an attribute, or be
imported by the benchmark in ``perfbench/``.  Oracles and test helpers
belong in ``tests/conftest.py``.  Every name an ``import`` binds in a module
of ``src/macrostab`` must be read in that module.  The package namespace binds only
``__version__``, so tests and the benchmark import every other name from
the module that defines it.

Input errors, every error class that exits 2 or 4, are raised only where
input arrives: the scenario gate, the command line, the state file, the
state builders that need N, the horizon guard, and the projection-postulate
oracle.  The layers below trust what they are given.

The scan matches names, not bindings: a definition whose name is also a
local variable elsewhere in ``src/`` counts as used.  A method ``overlap``,
say, would slip past it, because ``ground_state`` holds a local variable
of that name.
"""

import ast
import importlib.util
from pathlib import Path

from macrostab import errors

ROOT = Path(__file__).resolve().parents[1]


def _parse(paths):
    return [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths]


def test_every_definition_is_used_in_src_or_by_the_benchmark():
    src = _parse(ROOT.glob("src/macrostab/*.py"))
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


def test_every_imported_name_is_read_in_its_module():
    paths = sorted(ROOT.glob("src/macrostab/*.py"))
    unread = []
    for path, tree in zip(paths, _parse(paths)):
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # "import a.b" binds "a"
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append((path.name, name))
    assert unread == []


def test_package_namespace_binds_only_the_version():
    [tree] = _parse([ROOT / "src/macrostab/__init__.py"])
    body = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
    # a statement that is not an assignment counts as itself
    bound = [ast.unparse(target) for node in body for target in getattr(node, "targets", [node])]
    assert bound == ["__version__"]


def test_package_imports_name_a_submodule_or_the_version():
    paths = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py")])
    strays = [
        (path.name, alias.name)
        for path, tree in zip(paths, _parse(paths))
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "macrostab"
        for alias in node.names
        if alias.name != "__version__" and importlib.util.find_spec(f"macrostab.{alias.name}") is None
    ]
    assert strays == []


_INPUT_ERRORS = {
    cls.__name__
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.MacrostabError) and cls.exit_code in (2, 4)
}

# every function of src/macrostab that raises an input error
_INPUT_GATES = {
    "cli.parse_sizes",
    "scenario._require", "scenario.checked_value", "scenario.check_state_params",
    "scenario.Scenario.__post_init__", "scenario.load_scenario",
    "runner._state_entries", "runner.run_decohere",
    "stateio.import_state", "stateio._read",
    "lattice.LatticeSpec.validate_site",
    "states.StateVector.__init__", "states.make_ghz", "states.make_dicke",
    "operators.LocalOperator.__init__", "measure.conditional_distribution",
}


def _error_name(exc):
    """The class name in ``raise E``, ``raise E(...)`` or ``raise errors.E(...)``."""
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)


def _raising_functions(node, prefix):
    """Qualified names of the functions under ``node`` whose body raises an input error."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            found |= _raising_functions(child, name)
            if not isinstance(child, ast.ClassDef) and any(
                isinstance(sub, ast.Raise) and _error_name(sub.exc) in _INPUT_ERRORS for sub in ast.walk(child)
            ):
                found.add(name)
    return found


def test_input_errors_are_raised_only_at_the_gate():
    paths = sorted(ROOT.glob("src/macrostab/*.py"))
    raising = set()
    for path, tree in zip(paths, _parse(paths)):
        raising |= _raising_functions(tree, path.stem)
    assert raising == _INPUT_GATES
