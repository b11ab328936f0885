"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

They cover the self-time arithmetic, the exact repetition of the work
counts between two traced passes, and the refusal to run outside a
checkout.  The scenarios are smaller than the workloads but reach the same
layers.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import EXACT_COUNTS  # noqa: E402
from spans import Tracer  # noqa: E402


def test_self_time_excludes_direct_children():
    tracer = Tracer()
    tracer.spans = [
        ["runner", 0.0, 10.0, None],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    summary = tracer.summary()
    assert summary["runner"]["self_s"] == pytest.approx(6.0)
    assert summary["b"] == pytest.approx({"calls": 2, "total_s": 4.0, "self_s": 3.0})
    assert summary["c"]["self_s"] == pytest.approx(1.0)
    assert sum(s["self_s"] for s in summary.values()) == pytest.approx(10.0)


SMALL_SCENARIOS = (
    {"name": "layers", "state": {"family": "ghz"}, "sizes": [2, 3, 4],
     "experiments": ["cluster", "measure", "decohere"], "params": {"n_traj": 100, "seed": 3}},
    {"name": "ground", "sizes": [6, 8, 10], "experiments": ["symmetry-breaking"]},
)


@pytest.mark.parametrize("raw", SMALL_SCENARIOS, ids=lambda raw: raw["name"])
def test_work_counts_repeat_between_traced_passes(raw):
    from macrostab import runner
    from macrostab.scenario import validate_scenario

    scenario = validate_scenario(raw)
    tracer = Tracer()
    tracer.install()
    try:
        counts = []
        for _ in range(2):
            tracer.reset()
            tracer.span("runner", runner.run_scenario)(scenario)
            summary = tracer.summary()
            counts.append({
                **tracer.counts,
                "analyzer.covariance_matrix.calls": summary["analyzer.covariance_matrix"]["calls"],
                "ground.ground_state.calls": summary.get("ground.ground_state", {}).get("calls", 0),
            })
    finally:
        tracer.uninstall()
    assert counts[0]["analyzer.covariance_matrix.calls"] > 0
    for name in EXACT_COUNTS + ("hamiltonian.matvec.calls",):
        assert counts[0].get(name) == counts[1].get(name), name


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symmetry-breaking", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
