"""Output checks for the benchmark's reports.

Each check returns a list of problems; an empty list means the report is
correct.  The oracles are independent of the code paths they check: pair
deviations are recomputed through the projection postulate
(``conditional_distribution``), analytic rates from dense Kronecker-product
operators, and ground-state energies from a dense eigensolve.  Verdicts and
measurement maxima are compared with ``reference.json``, recorded at the
commit that introduced the benchmark by ``make_reference.py``.
"""

import json
import math
from functools import reduce
from pathlib import Path

import numpy as np
import scipy.linalg

REFERENCE_PATH = Path(__file__).with_name("reference.json")

PAIR_TOL = 1e-9            # recomputed pair deviation vs reported
MAX_DEVIATION_TOL = 1e-6   # reported maxima are lower bounds from a local search
RATE_RTOL = 1e-9           # analytic rate vs dense evaluation
TRAJECTORY_SIGMAS = 5.0    # trajectory rate vs analytic rate, in jackknife errors
ENERGY_TOL = 1e-8          # per unit energy scale
DENSE_DIM_CAP = 4096

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def load_reference():
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _site_op(n, site, matrix):
    """``matrix`` at ``site`` (bit ``site`` of the basis index), identity elsewhere."""
    mats = [np.eye(2, dtype=complex)] * n
    mats[site] = matrix
    return reduce(np.kron, reversed(mats))


def _verdict_problems(report, expected):
    got = report["verdicts"]
    return [
        f"verdict {key}: got {got.get(key)!r}, expected {value!r}"
        for key, value in sorted(expected.items())
        if got.get(key) != value
    ]


def check_catalog_measure(report, reference):
    from macrostab.catalog import build_state, correspondence_catalog
    from macrostab.measure import conditional_distribution
    from macrostab.operators import LocalOperator

    problems = _verdict_problems(report, reference["verdicts"])
    families = {label: (family, params) for label, family, params in correspondence_catalog()}
    seen = set()
    for entry in report["results"]["measure"]["per_state"]:
        label = entry["label"]
        family, params = families[label]
        for row in entry["per_size"]:
            n = row["n"]
            key = f"{label}/{n}"
            seen.add(key)
            floor = reference["max_deviation"][key] - MAX_DEVIATION_TOL
            if not row["max_deviation"] >= floor:
                problems.append(f"{key}: max deviation {row['max_deviation']!r} below {floor!r}")
            state = build_state(family, n, params=params)
            for pair in row["pairs"]:
                obs_a = LocalOperator(pair["x"], sum(c * _PAULI[a] for c, a in zip(pair["direction_a"], "xyz")))
                obs_b = LocalOperator(pair["y"], sum(c * _PAULI[a] for c, a in zip(pair["direction_b"], "xyz")))
                table = conditional_distribution(state, obs_a, obs_b)
                ia = 0 if pair["a"] > 0 else 1
                jb = 0 if pair["b"] > 0 else 1
                cond = table.p_b_given_a[ia, jb]
                marg = table.p_b[jb]
                for name, got, want in (
                    ("p_b_given_a", pair["p_b_given_a"], cond),
                    ("p_b", pair["p_b"], marg),
                    ("deviation", pair["deviation"], abs(cond - marg)),
                ):
                    if not abs(got - want) <= PAIR_TOL:
                        problems.append(
                            f"{key} pair ({pair['x']},{pair['y']}) {name}: reported {got!r}, "
                            f"recomputed {want!r}"
                        )
    missing = set(reference["max_deviation"]) - seen
    if missing:
        problems.append(f"report lacks measurement rows {sorted(missing)}")
    return problems


def _dense_state(family, n):
    dim = 1 << n
    amps = np.zeros(dim, dtype=complex)
    if family == "ghz":
        amps[0] = amps[-1] = 1.0
    elif family == "dicke-half":
        popcount = np.array([bin(i).count("1") for i in range(dim)])
        amps[popcount == n // 2] = 1.0
    else:
        raise ValueError(f"no dense oracle for family {family!r}")
    return amps / np.linalg.norm(amps)


def _dense_rate(amps, n, params):
    op = _PAULI[params["axis"]]
    ops = [_site_op(n, x, op) for x in range(n)]
    applied = [o @ amps for o in ops]
    means = [np.vdot(amps, a).real for a in applied]
    if params["kernel"] == "collective":
        g = np.ones((n, n))
    elif params["kernel"] == "exponential":
        d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        g = np.exp(-d / params["xi"])
    else:
        raise ValueError(f"no dense oracle for kernel {params['kernel']!r}")
    total = 0.0
    for x in range(n):
        for y in range(n):
            total += g[x, y] * (np.vdot(applied[x], applied[y]).real - means[x] * means[y])
    return params["kappa"] * total


def check_decohere(report, reference):
    problems = _verdict_problems(report, reference["verdicts"])
    scenario = report["scenario"]
    family = scenario["state"]["family"]
    params = scenario["params"]
    for row in report["results"]["decohere"]["per_size"]:
        n = row["n"]
        want = _dense_rate(_dense_state(family, n), n, params)
        if family == "ghz" and params["kernel"] == "collective" and params["axis"] == "z":
            closed = params["kappa"] * n * n
            if not abs(want - closed) <= RATE_RTOL * closed:
                problems.append(f"N={n}: dense rate {want!r} differs from kappa N^2 = {closed!r}")
        got = row["gamma_analytic"]
        if not abs(got - want) <= RATE_RTOL * abs(want):
            problems.append(f"N={n}: gamma_analytic {got!r}, dense evaluation {want!r}")
        traj, err = row["gamma_trajectory"], row["gamma_trajectory_stderr"]
        if not (err > 0 and abs(traj - want) <= TRAJECTORY_SIGMAS * err):
            problems.append(
                f"N={n}: trajectory rate {traj!r} +- {err!r} is more than "
                f"{TRAJECTORY_SIGMAS} errors from {want!r}"
            )
        f_mean = np.array(row["fidelity"]["f_mean"])
        if f_mean[0] != 1.0 or not np.all((f_mean >= 0.0) & (f_mean <= 1.0 + 1e-12)):
            problems.append(f"N={n}: fidelity series leaves [0, 1] or does not start at 1")
    return problems


def _dense_tfim(n, J, h):
    """Open-chain H = -J sum sz sz - h sum sx, built from basis-index bits."""
    dim = 1 << n
    idx = np.arange(dim)
    spins = 1 - 2 * ((idx[:, None] >> np.arange(n)) & 1)
    ham = np.zeros((dim, dim))
    ham[idx, idx] = -J * np.sum(spins[:, :-1] * spins[:, 1:], axis=1)
    for x in range(n):
        ham[idx, idx ^ (1 << x)] -= h
    return ham


def check_symmetry_breaking(report, reference):
    problems = _verdict_problems(report, reference["verdicts"])
    params = report["scenario"]["params"]
    for row in report["results"]["symmetry-breaking"]["per_size"]:
        n = row["n"]
        if (1 << n) > DENSE_DIM_CAP:
            continue
        e0, e1 = scipy.linalg.eigh(
            _dense_tfim(n, params["J"], params["h"]), eigvals_only=True, subset_by_index=[0, 1]
        )
        tol = ENERGY_TOL * max(1.0, abs(e0))
        if not abs(row["e_symmetric"] - e0) <= tol:
            problems.append(f"N={n}: e_symmetric {row['e_symmetric']!r}, dense {e0!r}")
        if not abs(row["e_pure_phase"] - 0.5 * (e0 + e1)) <= tol:
            problems.append(f"N={n}: e_pure_phase {row['e_pure_phase']!r}, dense {(e0 + e1) / 2!r}")
    return problems


CHECKS = {
    "catalog-measure": check_catalog_measure,
    "decohere-ghz": check_decohere,
    "decohere-dense": check_decohere,
    "symmetry-breaking": check_symmetry_breaking,
}


def _report_files(pass_dir):
    """Report file contents keyed by name; the JSON without its wall time and
    output path, which differ between passes."""
    files = {}
    for path in sorted(Path(pass_dir).iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            report = json.loads(data)
            report["provenance"].pop("wall_time_s")
            report["scenario"]["output"].pop("path")
            data = json.dumps(report, sort_keys=True)
        files[path.name] = data
    return files


def check_run(workload, pass_dirs, reference):
    """Problems of the first pass's report, and the indices of later passes
    whose report files differ from the first pass's (wall time aside)."""
    first = Path(pass_dirs[0]) / "report.json"
    report = json.loads(first.read_text(encoding="utf-8"))
    problems = CHECKS[workload](report, reference[workload])
    if not math.isfinite(report["provenance"]["wall_time_s"]):
        problems.append("provenance.wall_time_s is not finite")
    files = _report_files(pass_dirs[0])
    mismatched = [i for i, d in enumerate(pass_dirs) if i and _report_files(d) != files]
    return problems, mismatched
