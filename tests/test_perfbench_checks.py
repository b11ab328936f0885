"""The benchmark's catalog pair check passes on a fresh catalog-measure run.

``perfbench/checks.py`` recomputes every reported site pair through the
projection-postulate oracle ``conditional_distribution``, so a broken oracle,
or a sweep that drifts from it, shows here instead of only in a benchmark
run.  This test only reads ``perfbench/``.
"""

import importlib.util
from pathlib import Path

from macrostab import runner
from macrostab.scenario import validate_scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_catalog_measure_passes_the_benchmark_pair_check():
    checks, workloads = _load("checks"), _load("workloads")
    raw = workloads.scenario_for("catalog-measure", workloads.DEFAULT_SEED, None)
    report = runner.run_scenario(validate_scenario(raw))
    assert report["results"]["measure"]["per_state"]
    assert checks.check_catalog_measure(report, checks.load_reference()["catalog-measure"]) == []
