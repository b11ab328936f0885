"""Acceptance battery: one test per exit criterion, each printing a
PASS/FAIL line with its runtime against the stated budget.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import math
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from macrostab.analyzer import classify_scaling, magnetization, max_additive_fluctuation
from macrostab.catalog import build_state, correspondence_catalog
from macrostab.cluster import cluster_verdict, correlation_field, omega
from macrostab.evolve import TrajectoryEnsemble, evolve_noisy
from macrostab.ground import ground_state, pure_phase_vacuum
from macrostab.hamiltonian import HamiltonianSpec, build_hamiltonian
from macrostab.lattice import LatticeSpec
from macrostab.measure import measurement_cascade, stability_test
from macrostab.noise import NoiseModel
from macrostab.operators import additive_variance
from macrostab.rates import RATE_WINDOW_FRACTION, analytic_dephasing_rate, fit_gamma_scaling, trajectory_rate
from macrostab.scenario import METHOD_DOUBLET, ScenarioParams
from macrostab.states import make_dicke, make_ghz, make_uniform_product
from conftest import (
    axis_coefficients,
    dense_tfim,
    dephasing_channel_density,
    ensemble_density,
    replay_z,
    subprocess_env,
)


def _finish(name, failures, elapsed, budget):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else ": " + "; ".join(failures)
    print(f"[{name}] {status} ({elapsed:.1f}s / budget {budget:.0f}s){detail}")
    assert not failures, f"{name}{detail}"
    assert elapsed <= budget, f"{name} exceeded its runtime budget ({elapsed:.1f}s > {budget}s)"


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


def test_criterion_1_ghz_fluctuation_law():
    start = time.monotonic()
    failures = []
    for n in range(3, 13):
        lat = LatticeSpec(n)
        a_z = axis_coefficients(n, "z")
        var_ghz = additive_variance(a_z, make_ghz(lat))
        _check(failures, abs(var_ghz - n * n) <= 1e-9 * n * n,
               f"GHZ({n}) variance {var_ghz!r} != N^2")
        var_up = additive_variance(a_z, make_uniform_product(lat, 0.0))
        _check(failures, var_up == 0.0, f"all-up({n}) variance {var_up!r} != 0")
        var_plus = additive_variance(a_z, make_uniform_product(lat, math.pi / 2))
        _check(failures, abs(var_plus - n) <= 1e-9 * n,
               f"all-plus({n}) variance {var_plus!r} != N")
    _finish("criterion 1: additive fluctuation law", failures, time.monotonic() - start, 5.0)


def test_criterion_2_scaling_exponents():
    start = time.monotonic()
    failures = []
    sizes = (4, 6, 8, 10, 12)

    def sweep(build):
        return [(n, max_additive_fluctuation(build(n)).max_variance) for n in sizes]

    ghz = classify_scaling(sweep(lambda n: make_ghz(LatticeSpec(n))))
    _check(failures, abs(ghz.exponent - 2.0) <= 0.02 and ghz.verdict == "AFS",
           f"GHZ exponent {ghz.exponent:.4f} verdict {ghz.verdict}")
    up = classify_scaling(sweep(lambda n: make_uniform_product(LatticeSpec(n), 0.0)))
    _check(failures, abs(up.exponent - 1.0) <= 0.02 and up.verdict == "NFS",
           f"all-up exponent {up.exponent:.4f} verdict {up.verdict}")
    plus = classify_scaling(sweep(lambda n: make_uniform_product(LatticeSpec(n), math.pi / 2)))
    _check(failures, abs(plus.exponent - 1.0) <= 0.02 and plus.verdict == "NFS",
           f"all-plus exponent {plus.exponent:.4f} verdict {plus.verdict}")
    dicke = classify_scaling(sweep(lambda n: make_dicke(LatticeSpec(n), n // 2)))
    print(f"  [criterion 2] Dicke(N, N/2) measured exponent {dicke.exponent:.4f} "
          f"verdict {dicke.verdict} (recorded, not bounded)")
    _finish("criterion 2: AFS/NFS exponents", failures, time.monotonic() - start, 30.0)


def test_criterion_3_cluster_property():
    start = time.monotonic()
    failures = []
    ghz_points = []
    for n in range(4, 11):
        rho = correlation_field(make_ghz(LatticeSpec(n)))
        off = rho[~np.eye(n, dtype=bool)]
        _check(failures, np.all(np.abs(off - 1.0) <= 1e-9), f"GHZ({n}) rho != 1")
        rep = omega(make_ghz(LatticeSpec(n)), 0.1)
        _check(failures, rep.omega == n - 1, f"GHZ({n}) Omega {rep.omega} != N-1")
        ghz_points.append((n, rep.omega))
    _check(failures, not cluster_verdict(ghz_points).has_cluster_property,
           "GHZ sequence passed the cluster test")

    prod_points = []
    for n in (4, 6, 8):
        rep = omega(make_uniform_product(LatticeSpec(n), math.pi / 2), 0.1)
        _check(failures, rep.omega == 0, f"product({n}) Omega {rep.omega} != 0")
        prod_points.append((n, rep.omega))
    _check(failures, cluster_verdict(prod_points).has_cluster_property,
           "product sequence failed the cluster test")

    tfim_points = []
    for n in (8, 10, 12):
        psi = build_state("tfim-ground", n, params={"J": 1.0, "h": 2.0})
        tfim_points.append((n, omega(psi, 0.1).omega))
    verdict = cluster_verdict(tfim_points)
    _check(failures, verdict.has_cluster_property,
           f"paramagnetic sequence {tfim_points} failed the cluster test")
    _finish("criterion 3: cluster property", failures, time.monotonic() - start, 60.0)


def test_criterion_4_dephasing_rate_mechanism():
    start = time.monotonic()
    failures = []
    for n in range(3, 11):
        ghz = make_ghz(LatticeSpec(n))
        coll = analytic_dephasing_rate(ghz, NoiseModel(0.01, "collective", axis="z"))
        _check(failures, abs(coll - 0.01 * n * n) <= 1e-10 * 0.01 * n * n,
               f"collective rate at N={n}: {coll!r}")
        indep = analytic_dephasing_rate(ghz, NoiseModel(0.01, "independent", axis="z"))
        _check(failures, abs(indep - 0.01 * n) <= 1e-10 * 0.01 * n,
               f"independent rate at N={n}: {indep!r}")

    n = 6
    ghz = make_ghz(LatticeSpec(n))
    noise = NoiseModel(0.01, "collective", axis="z")
    gamma = analytic_dephasing_rate(ghz, noise)
    horizon = 0.5 / gamma
    ens = TrajectoryEnsemble(n_traj=2000, dt=horizon / 400, n_steps=400, seed=20260809)
    res = evolve_noisy(ghz, noise, ens)
    fit = trajectory_rate(res, RATE_WINDOW_FRACTION * float(res.times[-1]))
    tol = max(0.05 * gamma, 3 * fit.stderr)
    _check(failures, abs(fit.gamma - gamma) <= tol,
           f"trajectory rate {fit.gamma:.4f} +- {fit.stderr:.4f} vs analytic {gamma}")
    print(f"  [criterion 4] trajectory rate {fit.gamma:.4f} +- {fit.stderr:.4f} "
          f"vs analytic {gamma:.4f}")
    _finish("criterion 4: dephasing-rate mechanism", failures, time.monotonic() - start, 300.0)


def test_criterion_5_fragility_scaling():
    start = time.monotonic()
    failures = []
    sizes = (4, 6, 8, 10)

    def rates(build, noise):
        return [(n, analytic_dephasing_rate(build(n), noise)) for n in sizes]

    ghz = lambda n: make_ghz(LatticeSpec(n))
    plus = lambda n: make_uniform_product(LatticeSpec(n), math.pi / 2)

    fit = fit_gamma_scaling(rates(ghz, NoiseModel(0.01, "collective", axis="z")))
    _check(failures, abs(fit.one_plus_delta - 2.0) <= 0.1 and fit.fragile,
           f"GHZ collective exponent {fit.one_plus_delta:.4f}")
    fit = fit_gamma_scaling(rates(ghz, NoiseModel(0.01, "independent", axis="z")))
    _check(failures, abs(fit.one_plus_delta - 1.0) <= 0.1 and not fit.fragile,
           f"GHZ independent exponent {fit.one_plus_delta:.4f}")
    for kernel, xi in (("collective", None), ("independent", None), ("exponential", 2.0)):
        fit = fit_gamma_scaling(rates(plus, NoiseModel(0.01, kernel, axis="z", xi=xi)))
        _check(failures, abs(fit.one_plus_delta - 1.0) <= 0.1 and not fit.fragile,
               f"product {kernel} exponent {fit.one_plus_delta:.4f}")
    _finish("criterion 5: fragility scaling", failures, time.monotonic() - start, 600.0)


def test_criterion_6_channel_consistency():
    start = time.monotonic()
    failures = []
    lat = LatticeSpec(4)
    psi = make_ghz(lat)
    noise = NoiseModel(0.01, "independent", axis="z")
    t_final = 10.0  # kappa * t = 0.1
    ens = TrajectoryEnsemble(n_traj=4000, dt=0.1, n_steps=100, seed=777)
    res = evolve_noisy(psi, noise, ens)
    # the replay draws what evolve_noisy draws; its final states give the ensemble density
    f_rows, finals = replay_z(psi, noise, ens)
    gap = float(np.max(np.abs(f_rows - res.f_rows)))
    _check(failures, gap <= 1e-12, f"replay fidelities differ from evolve_noisy by {gap:.1e}")
    exact = dephasing_channel_density(psi, noise, t_final)
    dist = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(ensemble_density(finals) - exact))))
    _check(failures, dist <= 0.02, f"trace distance {dist:.4f} > 0.02")
    print(f"  [criterion 6] trace distance {dist:.5f} at n_traj=4000")
    _finish("criterion 6: channel consistency", failures, time.monotonic() - start, 120.0)


def test_criterion_7_measurement_stability():
    start = time.monotonic()
    failures = []

    rep = stability_test(make_ghz(LatticeSpec(6)), epsilon=0.1, varepsilon=0.05, min_distance=1)
    for dist, dev in sorted(rep.max_deviation_at_distance.items()):
        _check(failures, abs(dev - 0.5) <= 1e-9, f"GHZ deviation {dev!r} at distance {dist}")
    _check(failures, not rep.stable, "GHZ judged stable")

    for theta in (0.0, math.pi / 2):
        rep = stability_test(
            make_uniform_product(LatticeSpec(6), theta), epsilon=0.1, varepsilon=0.05, min_distance=1
        )
        _check(failures, rep.max_deviation <= 1e-9, f"product deviation {rep.max_deviation!r}")
        _check(failures, rep.stable, "product judged unstable")

    sizes = (4, 6, 8)
    for label, family, params in correspondence_catalog():
        points = []
        for n in sizes:
            points.append((n, omega(build_state(family, n, params=params), 0.1).omega))
        has_cluster = cluster_verdict(points).has_cluster_property
        st = stability_test(
            build_state(family, sizes[-1], params=params),
            epsilon=0.1, varepsilon=0.05, min_distance=sizes[-1] // 2,
        )
        _check(failures, has_cluster == st.stable,
               f"{label}: cluster {has_cluster} vs stable {st.stable}")
    _finish("criterion 7: measurement stability", failures, time.monotonic() - start, 120.0)


def test_criterion_8_symmetry_breaking():
    start = time.monotonic()
    failures = []
    kappa = 0.01
    noise = NoiseModel(kappa, "collective", axis="z")
    for n in (6, 8, 10):
        lat = LatticeSpec(n)
        spec = HamiltonianSpec("transverse-ising", lat, J=1.0, h=0.1)
        ham = build_hamiltonian(spec)
        res = ground_state(ham)
        dense_evals = np.sort(np.linalg.eigvalsh(dense_tfim(n, 1.0, 0.1)))
        _check(failures, abs(res.energies[0] - dense_evals[0]) <= 1e-8,
               f"N={n}: iterative E0 {res.energies[0]!r} vs dense {dense_evals[0]!r}")

        sym = res.states[0]
        m_sym = magnetization(sym)
        _check(failures, abs(m_sym) <= 1e-6, f"N={n}: <M> symmetric {m_sym!r}")

        pp = pure_phase_vacuum(spec, METHOD_DOUBLET, res)
        _check(failures, pp.magnetization >= 0.9 * n,
               f"N={n}: <M> pure-phase {pp.magnetization:.3f} < 0.9N")
        _check(failures, res.energies[0] <= pp.energy + 1e-10,
               f"N={n}: energy ordering violated")

        fluct = max_additive_fluctuation(sym)
        fluct_sym = fluct.max_variance
        fluct_pp = max_additive_fluctuation(pp.state).max_variance
        _check(failures, fluct_sym >= 0.8 * n * n,
               f"N={n}: symmetric fluctuation {fluct_sym:.2f} < 0.8 N^2")
        _check(failures, fluct_pp <= 2 * n,
               f"N={n}: pure-phase fluctuation {fluct_pp:.2f} > 2N")

        gamma_sym = analytic_dephasing_rate(sym, noise)
        gamma_pp = analytic_dephasing_rate(pp.state, noise)
        _check(failures, gamma_sym > gamma_pp, f"N={n}: rate ordering violated")

        cascade = measurement_cascade(sym, ScenarioParams().nfs_factor, fluct)
        _check(failures, cascade.reached_nfs and len(cascade.steps) <= 2,
               f"N={n}: cascade took {len(cascade.steps)} measurements")
    _finish("criterion 8: symmetry-breaking scenario", failures, time.monotonic() - start, 300.0)


def test_criterion_9_reproducibility(tmp_path):
    start = time.monotonic()
    failures = []
    scen = {
        "name": "repro",
        "state": {"family": "ghz"},
        "sizes": [4, 5, 6],
        "experiments": ["decohere"],
        "params": {"kappa": 0.01, "kernel": "collective", "n_traj": 120, "seed": 99},
        "output": {"path": "rep", "format": "both"},
    }
    outputs = {}
    for label, threads in (("a", "1"), ("b", "2"), ("c", "1")):
        cwd = tmp_path / label
        cwd.mkdir()
        (cwd / "scen.json").write_text(json.dumps(scen))
        proc = subprocess.run(
            [sys.executable, "-m", "macrostab", "run", "scen.json"],
            capture_output=True, text=True,
            env=subprocess_env({"OPENBLAS_NUM_THREADS": threads}), cwd=cwd,
        )
        _check(failures, proc.returncode == 0, f"run {label} failed: {proc.stderr}")
        if proc.returncode == 0:
            text = (cwd / "rep.json").read_text()
            text = re.sub(r'"wall_time_s": [0-9eE.+-]+', '"wall_time_s": 0', text)
            outputs[label] = (
                text,
                (cwd / "rep_decohere.csv").read_bytes(),
                (cwd / "rep_fidelity_N4.csv").read_bytes(),
            )
    if not failures:
        _check(failures, outputs["a"] == outputs["b"], "thread counts 1 and 2 disagree")
        _check(failures, outputs["a"] == outputs["c"], "identical reruns disagree")
    _finish("criterion 9: reproducibility", failures, time.monotonic() - start, 120.0)
