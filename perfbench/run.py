"""Benchmark for the macrostab package: one scenario workload per run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  The benchmark drives the package
the way a ``macrostab run`` user does: one scenario at a time, in a closed
loop with one client, in one child process with ``src`` on its path, one
BLAS thread and ``MACROSTAB_THREADS`` unset.  It

* times ``setup_s`` as the median of several fresh interpreters that import
  the package and validate the scenario;
* runs scenario passes for ``--seconds`` seconds (at least one) and
  reports the median pass as ``run_s``, from the runner call until the
  report files are written;
* checks every pass's report (``checks.py``) and counts failing passes;
* with ``--trace 1`` runs untraced passes, then traced ones whose spans
  around each layer give the per-layer metrics (``spans.py``), and checks
  that the work counts repeat exactly between traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of
the run, with provenance, goes to ``.perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import LAYER_CALLS, ROOT  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, scenario_for  # noqa: E402

DEFAULT_SECONDS = 20
SETUP_REPS = 5
SETUP_TIMEOUT_S = 15
DEADLINE_S = 170       # the whole benchmark, including the checks
CHECK_RESERVE_S = 15
# One BLAS thread.  On 2 cores, OpenBLAS's
# second thread spins between the many small calls of these workloads: the
# symmetry-breaking pass then burns 2.6 CPU seconds for 1.3 s of wall time
# instead of 1.0 s for 1.0 s, and its time spreads more from run to run.
BLAS_THREADS = 1

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "1"),
)

# (metric, unit); per traced pass unless noted, reported as the median
PER_LAYER = (
    ("measure.stability_test.calls", "count"),
    ("measure.stability_test.self_s", "s"),
    ("measure.stability_test.share", "1"),
    ("measure.pairs", "count"),
    ("measure.pairs_per_s", "1/s"),
    ("measure.measurement_cascade.self_s", "s"),
    ("measure.cascade_steps", "count"),
    ("evolve.evolve_noisy.self_s", "s"),
    ("evolve.evolve_noisy.share", "1"),
    ("evolve.traj_steps", "count"),
    ("evolve.traj_steps_per_s", "1/s"),
    ("rates.analytic_dephasing_rate.self_s", "s"),
    ("rates.trajectory_rate.self_s", "s"),
    ("ground.ground_state.calls", "count"),
    ("ground.ground_state.self_s", "s"),
    ("ground.pure_phase_vacuum.self_s", "s"),
    ("hamiltonian.build_hamiltonian.self_s", "s"),
    ("hamiltonian.matvec.calls", "count"),
    ("hamiltonian.matvec.calls_spread", "count"),
    ("analyzer.covariance_matrix.calls", "count"),
    ("analyzer.covariance_matrix.self_s", "s"),
    ("analyzer.covariance_matrix.bytes", "B"),
    ("analyzer.max_additive_fluctuation.self_s", "s"),
    ("cluster.omega.self_s", "s"),
    ("catalog.build_state.self_s", "s"),
    ("report.build_report.self_s", "s"),
    ("report.write.self_s", "s"),
    ("report.bytes", "B"),
    ("scenario.load_scenario.s", "s"),
    ("runner.self_s", "s"),
    ("runner.cpu_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "1"),
)

SPAN_NAMES = {name for _, _, name, _ in LAYER_CALLS} | {ROOT}

# work counters kept by the tracer
COUNT_NAMES = (
    "measure.pairs",
    "measure.cascade_steps",
    "evolve.traj_steps",
    "hamiltonian.matvec.calls",
    "analyzer.covariance_matrix.bytes",
    "report.bytes",
)

# counts that must repeat exactly between two traced passes of one run
EXACT_COUNTS = (
    "measure.pairs",
    "evolve.traj_steps",
    "analyzer.covariance_matrix.calls",
    "analyzer.covariance_matrix.bytes",
    "ground.ground_state.calls",
)

# Predictions the traced run reports as holding or contradicted: (span,
# workload prefix, lowest share of the traced pass) and (span, workload)
# that never runs.
SHARE_PREDICTIONS = (
    ("measure.stability_test", "catalog-measure", 0.90),
    ("evolve.evolve_noisy", "decohere-", 0.90),
)
ABSENT_PREDICTIONS = (
    ("measure.stability_test", "symmetry-breaking"),
    ("evolve.evolve_noisy", "symmetry-breaking"),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2^64)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _child_env(root, threads):
    env = dict(os.environ)
    env.pop("MACROSTAB_THREADS", None)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _time_setups(scenario_path, root, env):
    """Seconds from spawning a fresh interpreter until it has validated the scenario."""
    samples, errors = [], []
    cmd = [sys.executable, str(HERE / "worker.py"), "setup", str(scenario_path)]
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            errors.append("setup timed out")
            continue
        if line.strip() == "ready" and proc.returncode == 0:
            samples.append(elapsed)
        else:
            errors.append(f"setup exited {proc.returncode}: {err.strip()[-2000:]}")
    return samples, errors


def _run_worker(scenario_path, out_dir, seconds, trace, root, env, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "run", str(scenario_path), str(out_dir),
           repr(float(seconds)), str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker exceeded {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return json.loads(lines[-1]), None


def _git_sha(root):
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256(root):
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _pass_layers(rec):
    """Per-layer metric values of one traced pass."""
    spans, counts, wall = rec["spans"], rec["counts"], rec["wall_s"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    values = {}
    for metric, _ in PER_LAYER:
        name, _, field = metric.rpartition(".")
        if name in SPAN_NAMES and field in ("calls", "self_s"):
            values[metric] = span(name, field)
    for name in COUNT_NAMES:
        values[name] = counts.get(name, 0)
    for metric, count, layer in (
        ("measure.pairs_per_s", "measure.pairs", "measure.stability_test"),
        ("evolve.traj_steps_per_s", "evolve.traj_steps", "evolve.evolve_noisy"),
    ):
        busy = span(layer, "self_s")
        values[metric] = values[count] / busy if busy > 0 else 0.0
    for layer in ("measure.stability_test", "evolve.evolve_noisy"):
        values[f"{layer}.share"] = span(layer, "total_s") / wall
    values["runner.cpu_s"] = rec["cpu_s"]
    values["trace.run_s"] = wall
    values["trace.coverage"] = sum(s["self_s"] for s in spans.values()) / wall
    return values


def _layer_metrics(workload, worker, untraced, traced, problems, notes):
    per_pass = [_pass_layers(rec) for rec in traced]
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    for name in EXACT_COUNTS:
        seen = sorted({p[name] for p in per_pass})
        if len(seen) > 1:
            problems.append(f"{name} differs between traced passes: {seen}")
    matvecs = [p["hamiltonian.matvec.calls"] for p in per_pass]
    values["hamiltonian.matvec.calls_spread"] = max(matvecs) - min(matvecs)
    if len(set(matvecs)) > 1:
        notes.append(f"hamiltonian.matvec.calls does not repeat: {matvecs}")
    values["scenario.load_scenario.s"] = worker["load_scenario_s"]
    values["trace.overhead_s"] = values["trace.run_s"] - statistics.median(
        r["wall_s"] for r in untraced
    )
    notes.append(f"coverage: layer self times plus runner.self_s cover "
                 f"{values['trace.coverage']:.4%} of the traced run_s")
    for span, prefix, lowest in SHARE_PREDICTIONS:
        if workload.startswith(prefix):
            share = values[f"{span}.share"]
            verdict = "holds" if share >= lowest else "CONTRADICTED"
            notes.append(f"prediction: {span} >= {lowest:.0%} of {workload}: {verdict} ({share:.1%})")
    for span, name in ABSENT_PREDICTIONS:
        if workload == name:
            calls = max(r["spans"].get(span, {}).get("calls", 0) for r in traced)
            verdict = "holds" if calls == 0 else "CONTRADICTED"
            notes.append(f"prediction: no {span} calls on {workload}: {verdict} ({calls} calls)")
    return values


def main(argv=None):
    started = time.perf_counter()
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "macrostab" / "__init__.py").is_file():
        print("perfbench: run from the root of a macrostab checkout (src/macrostab not found)",
              file=sys.stderr)
        return 2

    run_dir = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    scenario_path = run_dir / "scenario.json"
    out_dir = run_dir.relative_to(root)  # report files name it, so keep it checkout-relative
    scenario = scenario_for(args.workload, args.seed, str(out_dir / "report"))
    scenario_path.write_text(json.dumps(scenario, indent=2), encoding="utf-8")

    env = _child_env(root, BLAS_THREADS)
    problems, notes = [], []
    attempted = failed = 0

    setup_samples = []
    if args.trace == 0:
        setup_samples, setup_errors = _time_setups(scenario_path, root, env)
        attempted += SETUP_REPS
        failed += len(setup_errors)
        problems.extend(setup_errors)

    timeout = DEADLINE_S - CHECK_RESERVE_S - (time.perf_counter() - started)
    worker, error = _run_worker(scenario_path, out_dir, args.seconds, args.trace, root, env, timeout)
    passes = worker["passes"] if worker else []
    if worker and worker["error"]:
        error = worker["error"]
    if error:
        attempted += 1
        failed += 1
        problems.append(error)
    attempted += len(passes)

    if passes:
        sys.path.insert(0, str(root / "src"))
        from checks import check_run, load_reference

        pass_dirs = [run_dir / f"pass{rec['index']}" for rec in passes]
        first_problems, mismatched = check_run(args.workload, pass_dirs, load_reference())
        problems.extend(first_problems)
        problems.extend(f"pass{i} did not reproduce pass0's report files" for i in mismatched)
        failed += len(passes) if first_problems else len(mismatched)

    untraced = [r for r in passes if not r["traced"]]
    traced = [r for r in passes if r["traced"]]
    metrics = {}
    if args.trace == 0 and untraced and setup_samples:
        values = {
            "run_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": worker["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    elif args.trace == 1 and untraced and len(traced) >= 2:
        values = _layer_metrics(args.workload, worker, untraced, traced, problems, notes)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        problems.append("too few passes completed to report metrics")

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_feeds_inputs": WORKLOADS[args.workload]["seeded"],
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_env": BLAS_THREADS,
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha256(root),
    }
    if worker:
        for key in ("python", "numpy", "scipy", "blas", "blas_threads", "macrostab_threads"):
            provenance[key] = worker[key]
    result = {"correct": not problems and failed == 0, "attempted": max(attempted, 1),
              "failed": failed, "metrics": metrics}

    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"provenance": provenance, "result": result, "problems": problems, "notes": notes,
              "setup_samples_s": setup_samples, "passes": passes}
    (results_dir / f"{run_dir.name}.json").write_text(json.dumps(record, indent=2), encoding="utf-8")

    for line in problems:
        print(f"problem: {line}")
    for line in notes:
        print(line)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
