"""Child process that drives one workload the way the ``macrostab run`` CLI does.

    python3 perfbench/worker.py setup SCENARIO
        Import the package, load and validate the scenario, print "ready".
    python3 perfbench/worker.py run SCENARIO OUT_DIR SECONDS TRACE
        Run scenario passes in a closed loop with one client for SECONDS
        seconds and print one JSON line with per-pass timings.  With TRACE 1
        the first half of the time runs untraced and the second half traced
        (at least two traced passes, so that work counts can be compared).

Each pass writes its report files under OUT_DIR/pass<k>/.  The run ends
after the first failing pass.
"""

import dataclasses
import json
import os
import resource
import sys
import time
import traceback

from spans import ROOT, Tracer


def _setup(scenario_path):
    from macrostab.scenario import load_scenario

    load_scenario(scenario_path)
    print("ready", flush=True)


def _one_pass(runner, scenario, out_dir, index, tracer=None):
    scenario = dataclasses.replace(scenario, output_path=f"{out_dir}/pass{index}/report")

    def body():
        report = runner.run_scenario(scenario)
        runner.write_report_files(report, scenario)

    if tracer is not None:
        body = tracer.span(ROOT, body)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    body()
    wall = time.perf_counter() - t0
    return {"index": index, "wall_s": wall, "cpu_s": time.process_time() - cpu0}


def _blas_info():
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def _run(scenario_path, out_dir, seconds, traced):
    import numpy as np
    import scipy

    from macrostab import runner
    from macrostab.scenario import load_scenario

    t0 = time.perf_counter()
    scenario = load_scenario(scenario_path)
    load_s = time.perf_counter() - t0

    passes = []
    error = None
    tracer = Tracer()

    def loop(budget, min_passes, trace_on):
        nonlocal error
        start = time.perf_counter()
        done = 0
        while error is None:
            elapsed = time.perf_counter() - start
            if done >= min_passes and elapsed + passes[-1]["wall_s"] > budget:
                break
            tracer.reset()
            try:
                rec = _one_pass(runner, scenario, out_dir, len(passes), tracer if trace_on else None)
            except Exception:  # the benchmark counts every failing pass
                error = traceback.format_exc()
                break
            rec["traced"] = trace_on
            if trace_on:
                rec["spans"] = tracer.summary()
                rec["counts"] = dict(tracer.counts)
            passes.append(rec)
            done += 1

    if traced:
        loop(seconds / 2, 1, False)
        tracer.install()
        try:
            loop(seconds / 2, 2, True)
        finally:
            tracer.uninstall()
    else:
        loop(seconds, 1, False)

    info = {
        "load_scenario_s": load_s,
        "passes": passes,
        "error": error,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "macrostab_threads": os.environ.get("MACROSTAB_THREADS"),
    }
    info.update(_blas_info())
    print(json.dumps(info), flush=True)


def main(argv):
    if argv[0] == "setup":
        _setup(argv[1])
    else:
        _run(argv[1], argv[2], float(argv[3]), argv[4] == "1")


if __name__ == "__main__":
    main(sys.argv[1:])
