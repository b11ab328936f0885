"""Experiment pipelines behind the command-line front end.

Every scenario value is checked once, when the ``Scenario`` is built,
before any state is resolved, and the layers below trust it; the gate
also bounds kappa so that no rate, at most kappa N^2, overflows.  Only
what needs a state is checked later: a state file's header, contents and
size, a GHZ state's N >= 2 and a Dicke state's k <= N where they are
built, and ``run_decohere``'s guard on every horizon, set or computed
from the rates.  Each refusal is a ``ValidationError`` (exit 2), or a
``CapabilityError`` (exit 4) for a state file over the site cap.  Every
runner returns plain-dict results whose verdicts are recomputable from
the raw numbers included next to them, and leaves all randomness keyed
by the scenario seed.
"""

import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .analyzer import classify_scaling, magnetization, max_additive_fluctuation
from .catalog import build_state, correspondence_catalog
from .cluster import cluster_verdict, omega
from .errors import ValidationError
from .evolve import TrajectoryEnsemble, evolve_noisy
from .ground import ground_state, pure_phase_vacuum
from .hamiltonian import HamiltonianSpec, build_hamiltonian
from .lattice import LatticeSpec
from .measure import measurement_cascade, stability_test
from .noise import NoiseModel
from .rates import MIN_WINDOW_DECAY, RATE_WINDOW_FRACTION, analytic_dephasing_rate, fit_gamma_scaling, trajectory_rate
from .report import build_report, write_experiment_csvs, write_structured
from .scenario import _STATEFUL_EXPERIMENTS, KERNEL_COLLECTIVE, KERNEL_EXPONENTIAL, TRAJECTORY_STEPS, TRANSVERSE_ISING
from .stateio import export_state, import_state


def _state_entries(scenario):
    """Resolve the scenario's state source into (label, {n: state}) entries."""
    src = scenario.state
    p = scenario.params
    if src.file is not None:
        psi = import_state(src.file, geometry=p.geometry)
        if tuple(scenario.sizes) != (psi.n_sites,):
            raise ValidationError(
                f"state file holds n_sites={psi.n_sites} but scenario sizes are "
                f"{list(scenario.sizes)}"
            )
        return [("file", {psi.n_sites: psi})]
    if src.family == "catalog":
        solved = {}  # tfim-ferro and pure-phase share their Hamiltonian's solve
        entries = []
        for label, family, params in correspondence_catalog():
            entries.append(
                (label, {n: build_state(family, n, p.geometry, params, solved) for n in scenario.sizes})
            )
        return entries
    return [
        (
            src.family,
            {n: build_state(src.family, n, p.geometry, src.params) for n in scenario.sizes},
        )
    ]


def run_classify(scenario, entries):
    [(label, states)] = entries
    per_size = []
    points = []
    for n in scenario.sizes:
        rep = max_additive_fluctuation(states[n])
        per_size.append(
            {
                "n": n,
                "max_variance": rep.max_variance,
                "lambda_max": rep.lambda_max,
                "coefficient_normalization": "sum c^2 = N",
            }
        )
        points.append((n, rep.max_variance))
    verdict = classify_scaling(points)
    results = {
        "state": label,
        "per_size": per_size,
        "scaling": {
            "exponent": verdict.exponent,
            "intercept": verdict.intercept,
            "residual": verdict.residual,
            "points": verdict.points,
        },
    }
    return {"classify": results}, {"classification": verdict.verdict}


def run_cluster(scenario, entries):
    per_state = []
    verdicts = {}
    for label, states in entries:
        per_size = []
        points = []
        for n in scenario.sizes:
            rep = omega(states[n], scenario.params.epsilon)
            row = {
                "n": n,
                "epsilon": rep.epsilon,
                "omega": rep.omega,
                "omega_of_x": rep.omega_of_x.tolist(),
                "rho": rep.rho.tolist(),
            }
            per_size.append(row)
            points.append((n, rep.omega))
        entry = {"label": label, "per_size": per_size}
        if len(scenario.sizes) >= 3:
            cv = cluster_verdict(points)
            entry["verdict"] = asdict(cv)
            verdicts[f"cluster/{label}"] = cv.has_cluster_property
        per_state.append(entry)
    return {"cluster": {"per_state": per_state}}, verdicts


def run_measure(scenario, entries):
    p = scenario.params
    per_state = []
    verdicts = {}
    for label, states in entries:
        per_size = []
        for n in scenario.sizes:
            rep = stability_test(states[n], p.epsilon, p.varepsilon, p.min_distance)
            # str keys: json sorts int keys as numbers (6 before 10) before it writes them as text
            by_distance = {str(d): v for d, v in rep.max_deviation_at_distance.items()}
            per_size.append({"n": n, **asdict(rep), "max_deviation_at_distance": by_distance})
        stable_at_largest = per_size[-1]["stable"]
        per_state.append({"label": label, "per_size": per_size, "stable": stable_at_largest})
        verdicts[f"measurement-stable/{label}"] = stable_at_largest
    return {"measure": {"per_state": per_state}}, verdicts


def run_decohere(scenario, entries):
    p = scenario.params
    [(label, states)] = entries
    xi = p.xi if p.kernel == KERNEL_EXPONENTIAL else None
    noise = NoiseModel(kappa=p.kappa, kernel=p.kernel, axis=p.axis, xi=xi)
    per_size = []
    analytic_points = []
    traj_points = []
    gammas = {n: analytic_dephasing_rate(states[n], noise) for n in scenario.sizes}
    # a set horizon (> 0), by default 0.5 / gamma_analytic, fixes the step; the
    # trajectories stop where the rate window, the horizon's first 5%, ends
    dts = {n: (p.horizon or (0.5 / g if g > 1e-12 else 1.0)) / TRAJECTORY_STEPS for n, g in gammas.items()}
    windows = {n: RATE_WINDOW_FRACTION * (dt * TRAJECTORY_STEPS) for n, dt in dts.items()}
    if p.n_traj > 0:  # every horizon, set or computed, is checked before any trajectory
        key, value = ("horizon", p.horizon) if p.horizon is not None else ("kappa", p.kappa)
        for n, window in windows.items():
            # the rate fit squares the window's times; below this they underflow
            if not window * window >= sys.float_info.min:
                raise ValidationError(
                    f"scenario.params.{key} = {value!r} gives at N = {n} a rate window of {window:.3g}, "
                    "too short to fit a rate in floating point"
                )
            decay = gammas[n] * window
            if p.horizon is not None and gammas[n] > 0.0 and decay < MIN_WINDOW_DECAY:
                raise ValidationError(
                    f"scenario.params.horizon = {p.horizon!r} is too short: at N = {n} the rate window "
                    f"decays by gamma_analytic x window = {decay:.3g} < {MIN_WINDOW_DECAY}"
                )
    for n, gamma_a in gammas.items():
        psi = states[n]
        row = {"n": n, "gamma_analytic": gamma_a}
        if p.n_traj > 0:
            ens = TrajectoryEnsemble(p.n_traj, dts[n], round(RATE_WINDOW_FRACTION * TRAJECTORY_STEPS), p.seed)
            res = evolve_noisy(psi, noise, ens)
            fit = trajectory_rate(res, windows[n])
            row.update(
                {
                    "gamma_trajectory": fit.gamma,
                    "gamma_trajectory_stderr": fit.stderr,
                    "rate_window": fit.window,
                    "n_traj": res.n_traj,
                    "dt": res.dt,
                    "fidelity": {
                        "times": res.times.tolist(),
                        "f_mean": res.f_mean.tolist(),
                        "f_stderr": res.f_stderr.tolist(),
                    },
                }
            )
            traj_points.append((n, fit.gamma))
        per_size.append(row)
        analytic_points.append((n, gamma_a))
    results = {"state": label, "kernel": p.kernel, "axis": p.axis, "kappa": p.kappa, "per_size": per_size}
    verdicts = {}

    def _fit_block(points):
        fit = fit_gamma_scaling(points)
        return {**asdict(fit), "fragile": fit.fragile}

    if all(g > 0 for _, g in analytic_points):
        results["fit_analytic"] = _fit_block(analytic_points)
        verdicts["fragile/analytic"] = results["fit_analytic"]["fragile"]
    if traj_points and all(g > 0 for _, g in traj_points):
        results["fit_trajectory"] = _fit_block(traj_points)
        verdicts["fragile/trajectory"] = results["fit_trajectory"]["fragile"]
    verdicts["fragile"] = verdicts.get("fragile/trajectory", verdicts.get("fragile/analytic"))
    return {"decohere": results}, verdicts


def run_symmetry_breaking(scenario, entries):
    p = scenario.params
    noise = NoiseModel(kappa=p.kappa, kernel=KERNEL_COLLECTIVE, axis="z")
    per_size = []
    for n in scenario.sizes:
        lattice = LatticeSpec(n, p.geometry)
        spec = HamiltonianSpec(TRANSVERSE_ISING, lattice, J=p.J, h=p.h)
        ham = build_hamiltonian(spec)
        res = ground_state(ham)
        sym = res.states[0]
        pp = pure_phase_vacuum(spec, p.method, pair=res)
        fluct_sym = max_additive_fluctuation(sym)
        cascade = measurement_cascade(sym, nfs_factor=p.nfs_factor, fluctuation=fluct_sym)
        per_size.append(
            {
                "n": n,
                "e_symmetric": res.energies[0],
                "e_pure_phase": pp.energy,
                "m_symmetric": magnetization(sym),
                "m_pure_phase": pp.magnetization,
                "fluct_symmetric": fluct_sym.max_variance,
                "fluct_pure_phase": max_additive_fluctuation(pp.state).max_variance,
                "gamma_symmetric": analytic_dephasing_rate(sym, noise),
                "gamma_pure_phase": analytic_dephasing_rate(pp.state, noise),
                "cascade_measurements": len(cascade.steps),
                "cascade_reached_nfs": cascade.reached_nfs,
                "cascade": [asdict(step) for step in cascade.steps],
            }
        )
    ratios = [r["gamma_symmetric"] / r["gamma_pure_phase"] for r in per_size if r["gamma_pure_phase"] > 0]
    verdicts = {
        "energy-ordering": all(r["e_symmetric"] <= r["e_pure_phase"] + 1e-10 for r in per_size),
        "rate-ratio-growing": all(b > a for a, b in zip(ratios, ratios[1:])) if len(ratios) > 1 else None,
        "cascade-max-measurements": max(r["cascade_measurements"] for r in per_size),
        "cascade-all-reached-nfs": all(r["cascade_reached_nfs"] for r in per_size),
    }
    results = {
        "J": p.J,
        "h": p.h,
        "kappa": p.kappa,
        "method": p.method,
        "paramagnetic_warning": pp.paramagnetic_warning,
        "per_size": per_size,
    }
    return {"symmetry-breaking": results}, verdicts


def run_ground(scenario, entries):
    """Ground pair (at B = 0 one state per spin-flip sector) at each size; with an
    output path, the ground state of size k goes to <out>_ground_N<k>.state."""
    p = scenario.params
    per_size = []
    exported = []
    for n in scenario.sizes:
        lattice = LatticeSpec(n, p.geometry)
        spec = HamiltonianSpec(p.model, lattice, J=p.J, h=p.h, delta=p.delta, B=p.B)
        ham = build_hamiltonian(spec)
        res = ground_state(ham)
        per_size.append(
            {
                "n": n,
                "energies": res.energies,
                "residuals": res.residuals,
                "magnetization": magnetization(res.states[0]),
                "max_fluctuation": max_additive_fluctuation(res.states[0]).max_variance,
            }
        )
        if scenario.output_path is not None:
            path = f"{scenario.output_path}_ground_N{n}.state"
            Path(path).parent.mkdir(parents=True, exist_ok=True)
            export_state(res.states[0], path)
            exported.append(path)
    results = {"model": p.model, "J": p.J, "h": p.h, "delta": p.delta, "B": p.B, "per_size": per_size}
    if exported:
        results["exported"] = exported
    return {"ground": results}, {}


_RUNNERS = {
    "classify": run_classify,
    "cluster": run_cluster,
    "decohere": run_decohere,
    "measure": run_measure,
    "ground": run_ground,
    "symmetry-breaking": run_symmetry_breaking,
}


def _correspondence_rows(results, verdicts):
    rows = []
    for entry in results["measure"]["per_state"]:
        label, stable = entry["label"], entry["stable"]
        has_cluster = verdicts.get(f"cluster/{label}")
        if has_cluster is not None:
            rows.append(
                {"label": label, "cluster": has_cluster, "stable": stable, "match": has_cluster == stable}
            )
    return rows


def run_scenario(scenario):
    """Execute the scenario's experiment set and assemble one report.

    The state source is resolved once, before any experiment runs, and
    every experiment reads the same states.
    """
    start = time.monotonic()
    entries = None
    if any(e in _STATEFUL_EXPERIMENTS for e in scenario.experiments):
        entries = _state_entries(scenario)
    results = {}
    verdicts = {}
    for experiment in scenario.experiments:
        frag_results, frag_verdicts = _RUNNERS[experiment](scenario, entries)
        results.update(frag_results)
        verdicts.update(frag_verdicts)
    if "cluster" in results and "measure" in results:
        rows = _correspondence_rows(results, verdicts)
        if rows:
            results["correspondence"] = rows
            verdicts["cluster-equals-measurement-stability"] = all(r["match"] for r in rows)
    provenance = {
        "seed": scenario.params.seed,
        "version": __version__,
        "wall_time_s": time.monotonic() - start,
    }
    return build_report(scenario.echo(), results, verdicts, provenance)


def write_report_files(report, scenario):
    """Emit the structured file and/or CSVs next to the scenario's output path."""
    written = []
    if scenario.output_path is None:
        return written
    Path(scenario.output_path).parent.mkdir(parents=True, exist_ok=True)
    if scenario.output_format in ("structured", "both"):
        written.append(write_structured(report, f"{scenario.output_path}.json"))
    if scenario.output_format in ("csv", "both"):
        written.extend(write_experiment_csvs(report, scenario.output_path))
    return [str(p) for p in written]
