"""Spans and counters recorded around the package's layer functions.

The tracer wraps the public functions where their callers look them up
(``runner`` imports ``stability_test`` by name, so the wrapper replaces
``macrostab.runner.stability_test``), which times every layer from outside
without changing the package.  Each function object is wrapped once per
call site, so a call passes through exactly one wrapper.  Spans stay in
memory; a layer's self time is its span time minus the time its direct
child spans cover.
"""

import functools
import importlib
import os
import time
from collections import Counter


def _pairs(counts, args, kwargs, result):
    counts["measure.pairs"] += len(result.pairs)


def _cascade_steps(counts, args, kwargs, result):
    counts["measure.cascade_steps"] += len(result.steps)


def _traj_steps(counts, args, kwargs, result):
    ensemble = args[2] if len(args) > 2 else kwargs["ensemble"]
    counts["evolve.traj_steps"] += ensemble.n_traj * ensemble.n_steps


def _covariance_bytes(counts, args, kwargs, result):
    # the centered applied vectors: 3N complex vectors of length 2^N
    n = result.lattice.n_sites
    counts["analyzer.covariance_matrix.bytes"] += 3 * n * (1 << n) * 16


def _report_bytes(counts, args, kwargs, result):
    counts["report.bytes"] += sum(os.path.getsize(p) for p in result)


# (module, attribute looked up by the caller, span name, counter)
LAYER_CALLS = (
    ("macrostab.runner", "build_state", "catalog.build_state", None),
    ("macrostab.runner", "omega", "cluster.omega", None),
    ("macrostab.runner", "max_additive_fluctuation", "analyzer.max_additive_fluctuation", None),
    ("macrostab.runner", "stability_test", "measure.stability_test", _pairs),
    ("macrostab.runner", "measurement_cascade", "measure.measurement_cascade", _cascade_steps),
    ("macrostab.runner", "evolve_noisy", "evolve.evolve_noisy", _traj_steps),
    ("macrostab.runner", "analytic_dephasing_rate", "rates.analytic_dephasing_rate", None),
    ("macrostab.runner", "trajectory_rate", "rates.trajectory_rate", None),
    ("macrostab.runner", "ground_state", "ground.ground_state", None),
    ("macrostab.runner", "pure_phase_vacuum", "ground.pure_phase_vacuum", None),
    ("macrostab.runner", "build_hamiltonian", "hamiltonian.build_hamiltonian", None),
    ("macrostab.runner", "build_report", "report.build_report", None),
    ("macrostab.runner", "write_report_files", "report.write", _report_bytes),
    ("macrostab.catalog", "ground_state", "ground.ground_state", None),
    ("macrostab.catalog", "pure_phase_vacuum", "ground.pure_phase_vacuum", None),
    ("macrostab.catalog", "build_hamiltonian", "hamiltonian.build_hamiltonian", None),
    ("macrostab.ground", "ground_state", "ground.ground_state", None),
    ("macrostab.ground", "build_hamiltonian", "hamiltonian.build_hamiltonian", None),
    ("macrostab.measure", "max_additive_fluctuation", "analyzer.max_additive_fluctuation", None),
    ("macrostab.analyzer", "covariance_matrix", "analyzer.covariance_matrix", _covariance_bytes),
    ("macrostab.cluster", "covariance_matrix", "analyzer.covariance_matrix", _covariance_bytes),
)

ROOT = "runner"


class Tracer:
    """Records nested spans and work counters of one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self._stack = []
        self._saved = []

    def reset(self):
        self.spans = []
        self.counts = Counter()

    def span(self, name, fn, counter=None):
        """``fn`` wrapped so that each call records a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every layer call site and count Hamiltonian matvecs."""
        for module_name, attr, name, counter in LAYER_CALLS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.span(name, original, counter))
        ham_cls = importlib.import_module("macrostab.hamiltonian").Hamiltonian
        matvec = ham_cls.matvec
        counts_owner = self

        @functools.wraps(matvec)
        def counted_matvec(ham, v):
            counts_owner.counts["hamiltonian.matvec.calls"] += 1
            return matvec(ham, v)

        self._saved.append((ham_cls, "matvec", matvec))
        ham_cls.matvec = counted_matvec

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def summary(self):
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out
