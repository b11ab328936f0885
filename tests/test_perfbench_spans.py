"""The traced benchmark wraps package functions by name; each must exist.

``perfbench/run.py --trace 1`` replaces every ``(module, attr)`` of
``perfbench/spans.py``'s ``LAYER_CALLS`` and ``Hamiltonian.matvec`` with a
timing wrapper, so a rename or deletion in the package breaks the traced
run.  This test only reads ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _load_spans()
    missing = [
        (module_name, attr)
        for module_name, attr, _, _ in spans.LAYER_CALLS
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
    assert callable(importlib.import_module("macrostab.hamiltonian").Hamiltonian.matvec)
