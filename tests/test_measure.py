import math
import warnings

import numpy as np
import pytest

from macrostab.analyzer import covariance_matrix, max_additive_fluctuation
from macrostab.catalog import build_state, correspondence_catalog
from macrostab.errors import ValidationError
from macrostab.ground import ground_state
from macrostab.hamiltonian import HamiltonianSpec, build_hamiltonian
from macrostab.lattice import LatticeSpec
from macrostab.measure import _conditional_closed_form, conditional_distribution, measurement_cascade, stability_test
from macrostab.operators import PAULI_MATRICES, LocalOperator
from macrostab.scenario import ScenarioParams
from macrostab.states import StateVector, make_dicke, make_ghz, make_uniform_product

from conftest import ID2, SZ, basis_state, dense_site_op, random_state_amps


def tfim_ground(n, h):
    spec = HamiltonianSpec("transverse-ising", LatticeSpec(n), J=1.0, h=h)
    return ground_state(build_hamiltonian(spec)).states[0]


def cascade(psi, nfs_factor=ScenarioParams().nfs_factor):
    """The cascade as a run calls it: with the state's fluctuation report."""
    return measurement_cascade(psi, nfs_factor, max_additive_fluctuation(psi))


def sigma(site, axis):
    return LocalOperator(site, PAULI_MATRICES[axis])


class TestConditionalMarginals:
    """The single-site outcome distributions of the projection-postulate oracle."""

    def test_eigenstate_unchanged(self):
        lat = LatticeSpec(3)
        table = conditional_distribution(basis_state(lat, 0), sigma(2, "z"), sigma(0, "z"))
        assert table.a_values == (1.0, -1.0)
        assert table.p_a[0] == pytest.approx(1.0, abs=1e-12)
        assert table.p_b_given_a[0, 0] == pytest.approx(1.0, abs=1e-12)
        # outcome -1 never occurs: no conditional row, no joint weight
        assert np.all(np.isnan(table.p_b_given_a[1]))
        assert np.array_equal(table.joint[1], [0.0, 0.0])

    def test_single_plus_site(self):
        lat = LatticeSpec(2)
        table = conditional_distribution(make_uniform_product(lat, math.pi / 2), sigma(0, "z"), sigma(1, "x"))
        assert table.p_a[0] == pytest.approx(0.5, abs=1e-12)
        assert table.p_b[0] == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_observable_rejected(self):
        lat = LatticeSpec(2)
        for a_obs, b_obs in ((LocalOperator(0, np.eye(2)), sigma(1, "z")), (sigma(1, "z"), LocalOperator(0, np.eye(2)))):
            with pytest.raises(ValidationError, match="observable is degenerate"):
                conditional_distribution(make_ghz(lat), a_obs, b_obs)


class TestConditionalDistribution:
    def test_ghz_perfect_correlation(self):
        lat = LatticeSpec(4)
        table = conditional_distribution(make_ghz(lat), sigma(0, "z"), sigma(3, "z"))
        ia = table.a_values.index(1.0)
        jb = table.b_values.index(1.0)
        assert table.p_b_given_a[ia, jb] == pytest.approx(1.0, abs=1e-12)
        assert table.p_b[jb] == pytest.approx(0.5, abs=1e-12)

    def test_product_factorizes(self):
        lat = LatticeSpec(4)
        psi = make_uniform_product(lat, 0.9, 0.4)
        table = conditional_distribution(psi, sigma(0, "x"), sigma(3, "y"))
        for ia in range(2):
            for jb in range(2):
                assert table.p_b_given_a[ia, jb] == pytest.approx(table.p_b[jb], abs=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: make_ghz(LatticeSpec(4)),
        lambda: make_dicke(LatticeSpec(4), 2),
        lambda: make_uniform_product(LatticeSpec(4), 1.1, 0.2),
    ])
    def test_total_probability(self, make):
        lat = LatticeSpec(4)
        psi = make()
        table = conditional_distribution(psi, sigma(1, "z"), sigma(3, "x"))
        for jb in range(2):
            total = sum(table.p_a[ia] * table.p_b_given_a[ia, jb] for ia in range(2))
            assert total == pytest.approx(table.p_b[jb], abs=1e-10)

    def test_joint_symmetry_under_swap(self):
        # commuting projectors: P(a and b) must not depend on measurement order
        lat = LatticeSpec(4)
        psi = make_dicke(lat, 1)
        a_obs, b_obs = sigma(0, "z"), sigma(3, "x")
        fwd = conditional_distribution(psi, a_obs, b_obs)
        rev = conditional_distribution(psi, b_obs, a_obs)
        assert np.allclose(fwd.joint, rev.joint.T, atol=1e-10)

    def test_same_site_rejected(self):
        lat = LatticeSpec(3)
        with pytest.raises(ValidationError, match="needs two distinct sites"):
            conditional_distribution(make_ghz(lat), sigma(1, "z"), sigma(1, "x"))


class TestStability:
    def test_ghz_unstable_at_half(self):
        rep = stability_test(make_ghz(LatticeSpec(6)), epsilon=0.1, varepsilon=0.1, min_distance=3)
        assert rep.max_deviation == pytest.approx(0.5, abs=1e-9)
        assert not rep.stable
        for dist, dev in rep.max_deviation_at_distance.items():
            assert dev == pytest.approx(0.5, abs=1e-9), dist

    def test_product_stable(self):
        rep = stability_test(
            make_uniform_product(LatticeSpec(6), 0.8, 0.3), epsilon=0.1, varepsilon=0.1, min_distance=3
        )
        assert rep.max_deviation <= 1e-9
        assert rep.stable

    def test_paramagnetic_ground_stable(self):
        rep = stability_test(tfim_ground(10, 2.0), epsilon=0.1, varepsilon=0.1, min_distance=5)
        assert rep.stable

    def test_ring_pairs_take_the_ring_distance(self):
        # on a ring of 6 the end sites are neighbours and no pair lies more than 3 apart
        lat = LatticeSpec(6, "periodic-chain")
        rep = stability_test(make_ghz(lat), epsilon=0.1, varepsilon=0.05, min_distance=1)
        assert len(rep.pairs) == 15
        assert all(r.distance == lat.distance(r.x, r.y) for r in rep.pairs)
        assert sorted(rep.max_deviation_at_distance) == [1, 2, 3]
        antipodal = stability_test(make_ghz(lat), epsilon=0.1, varepsilon=0.05, min_distance=None)
        assert sorted((r.x, r.y) for r in antipodal.pairs) == [(0, 3), (1, 4), (2, 5)]
        assert stability_test(make_ghz(LatticeSpec(6)), epsilon=0.1, varepsilon=0.05, min_distance=4).pairs

    def test_optimum_on_the_floor_circle(self):
        # paramagnetic N = 3: the worst conditioning outcome of the (0, 1) pair
        # has P(a) exactly at the floor, so only the floor-circle search finds it
        psi = tfim_ground(3, 2.0)
        rep = stability_test(psi, epsilon=0.1, varepsilon=0.05, min_distance=1)
        (rec,) = [r for r in rep.pairs if {r.x, r.y} == {0, 1}]
        assert rec.deviation >= 0.5335392129
        bloch = covariance_matrix(psi).means.reshape(-1, 3)
        p_a = (1.0 + float(np.dot(bloch[rec.x], rec.direction_a))) / 2.0
        assert p_a >= 0.05
        assert p_a == pytest.approx(0.05, abs=1e-12)
        table = conditional_distribution(
            psi,
            LocalOperator(rec.x, sum(c * PAULI_MATRICES[a] for c, a in zip(rec.direction_a, "xyz"))),
            LocalOperator(rec.y, sum(c * PAULI_MATRICES[a] for c, a in zip(rec.direction_b, "xyz"))),
        )
        assert table.p_a[0] >= 0.05
        assert table.p_b_given_a[0, 0] == pytest.approx(rec.p_b_given_a, abs=1e-9)
        assert table.p_b[0] == pytest.approx(rec.p_b, abs=1e-9)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    def test_tied_orientations_condition_at_the_lower_site(self, n):
        # the two orientations of a pair agree in exact arithmetic when a
        # symmetry of the state swaps its sites: the mirror x -> n-1-x for the
        # pairs (x, n-1-x) of the paramagnetic ground state, and any site
        # permutation for GHZ, the half-filled Dicke state and a product state
        lat = LatticeSpec(n)
        for psi, swapped in (
            (tfim_ground(n, 2.0), lambda r: r.x + r.y == n - 1),
            (make_ghz(lat), lambda r: True),
            (make_dicke(lat, n // 2), lambda r: True),
            (make_uniform_product(lat, math.pi / 2), lambda r: True),
        ):
            rep = stability_test(psi, epsilon=0.1, varepsilon=0.05, min_distance=1)
            tied = [r for r in rep.pairs if swapped(r)]
            assert tied
            assert all(r.x < r.y for r in tied), [(r.x, r.y) for r in tied if r.x > r.y]

    @pytest.mark.parametrize("label", ["w", "dicke-half", "tfim-para", "tfim-ferro", "pure-phase"])
    def test_directions_survive_a_rounding_perturbation(self, label):
        # W and Dicke states have a ring of equally good n_a, and the tfim and
        # pure-phase states mirrored pairs of them; the near-tie rule must pick
        # the same one after a 1e-15 relative perturbation of the state.  Only
        # where C_xy itself is at the state's accuracy (pure-phase deviations of
        # 1e-10 and below) does the optimum move, by at most about 1e-15 / deviation
        family, params = {lab: (fam, par) for lab, fam, par in correspondence_catalog()}[label]
        rng = np.random.default_rng(2024)
        for n in range(4, 9):
            psi = build_state(family, n, params=params)
            base = stability_test(psi, epsilon=0.1, varepsilon=0.05, min_distance=1)
            for _ in range(2):
                amps = psi.amplitudes + 1e-15 * random_state_amps(n, rng)
                moved = StateVector(psi.lattice, amps / np.sqrt(np.sum(np.abs(amps) ** 2)))
                rep = stability_test(moved, epsilon=0.1, varepsilon=0.05, min_distance=1)
                for r0, r1 in zip(base.pairs, rep.pairs):
                    where = (n, r0.x, r0.y)
                    assert (r1.x, r1.y) == (r0.x, r0.y), where
                    assert abs(r1.deviation - r0.deviation) <= 1e-12, where
                    bound = 1e-6 + 1e-14 / r0.deviation
                    assert np.max(np.abs(np.subtract(r1.direction_a, r0.direction_a))) <= bound, where
                    assert np.max(np.abs(np.subtract(r1.direction_b, r0.direction_b))) <= bound, where

    def test_product_probe_direction_survives_a_rounding_perturbation(self):
        # product-plus has C_xy = 0: |C^T n_a| is rounding noise, so the probe
        # n_b falls back to n_a instead of following that noise
        n = 6
        psi = make_uniform_product(LatticeSpec(n), math.pi / 2)
        base = stability_test(psi, epsilon=0.1, varepsilon=0.05, min_distance=1)
        rng = np.random.default_rng(2024)
        for _ in range(3):
            amps = psi.amplitudes + 1e-15 * random_state_amps(n, rng)
            moved = StateVector(psi.lattice, amps / np.sqrt(np.sum(np.abs(amps) ** 2)))
            rep = stability_test(moved, epsilon=0.1, varepsilon=0.05, min_distance=1)
            for r0, r1 in zip(base.pairs, rep.pairs):
                assert r1.direction_b == r0.direction_b, (r0.x, r0.y)

    def test_no_admissible_outcome_reports_zero(self):
        # a maximally mixed site: no outcome reaches P(a) >= 0.6
        lat = LatticeSpec(2)
        rep = stability_test(make_ghz(lat), epsilon=0.1, varepsilon=0.6, min_distance=1)
        assert rep.max_deviation == 0.0
        assert rep.stable


def test_closed_form_gap_is_a_silent_nan_where_the_outcome_never_occurs():
    # product-up's Bloch vector is +z, so outcome +1 of n_a = -z has P(a) = 0:
    # the gap is 0/0, NaN as the oracle's P(b; a) is, and no warning is raised
    cov = covariance_matrix(make_uniform_product(LatticeSpec(2), 0.0))
    bloch = cov.means.reshape(2, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, gap = _conditional_closed_form(cov.site_block(0, 1)[None], bloch[:1], bloch[1:], np.array([[0.0, 0.0, -1.0]]))
    assert np.isnan(gap[0])


class TestCascade:
    def test_ghz_collapses_to_product_after_one(self):
        for n in (4, 6):
            psi = make_ghz(LatticeSpec(n))
            result = cascade(psi)
            assert len(result.steps) == 1
            assert result.reached_nfs
            post = result.final_state
            assert max_additive_fluctuation(post).max_variance <= n + 1e-6

    def test_symmetric_ground_reaches_nfs_quickly(self):
        psi = tfim_ground(8, 0.1)
        result = cascade(psi)
        assert result.reached_nfs
        assert len(result.steps) <= 2

    def test_product_needs_no_measurement(self):
        psi = make_uniform_product(LatticeSpec(5), math.pi / 2)
        result = cascade(psi)
        assert result.reached_nfs
        assert len(result.steps) == 0

    def test_ghz_tie_goes_to_plus_one(self):
        lat = LatticeSpec(4)
        result = cascade(make_ghz(lat))
        (step,) = result.steps
        assert (step.site, step.outcome) == (0, 1.0)
        assert step.probability == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(result.final_state.amplitudes, basis_state(lat, 0).amplitudes, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("state", ["random-5", "tfim-6"])
    def test_every_step_matches_dense_projectors(self, state):
        # nfs_factor = 1e-3 is below any state's fluctuation, so every site is measured
        if state == "random-5":
            psi = StateVector(LatticeSpec(5), random_state_amps(5, np.random.default_rng(5)))
        else:
            psi = tfim_ground(6, 0.5)
        n = psi.n_sites
        result = cascade(psi, nfs_factor=1e-3)
        assert [s.site for s in result.steps] == list(range(n))
        assert not result.reached_nfs
        phi = psi.amplitudes
        for step in result.steps:
            branches = {s: dense_site_op(n, step.site, (ID2 + s * SZ) / 2) @ phi for s in (1.0, -1.0)}
            probs = {s: np.vdot(v, v).real for s, v in branches.items()}
            assert step.outcome == (1.0 if probs[1.0] >= probs[-1.0] - 1e-12 else -1.0)
            assert step.probability == pytest.approx(probs[step.outcome], abs=1e-12)
            phi = branches[step.outcome] / math.sqrt(probs[step.outcome])
        assert np.allclose(result.final_state.amplitudes, phi, rtol=0.0, atol=1e-12)


_THETA, _PHI = np.meshgrid((np.arange(300) + 0.5) * (math.pi / 300), np.arange(600) * (math.pi / 300), indexing="ij")
_DENSE_SPHERE = np.stack([np.sin(_THETA) * np.cos(_PHI), np.sin(_THETA) * np.sin(_PHI), np.cos(_THETA)], -1).reshape(-1, 3)


def _brute_force_deviations(table, bloch, varepsilon):
    """(N, N) largest |C_xy^T n| / (2 (1 + r_x.n)), conditioning at x, over a
    dense (theta, phi) grid of 300 x 600 points and 4,096 points just inside
    the floor circle, under the floor (1 + r_x.n)/2 >= varepsilon + 1e-14;
    0 where no n clears it."""
    n_sites = len(bloch)
    ref = np.zeros((n_sites, n_sites))
    level = 2.0 * (varepsilon + 1e-13) - 1.0
    for x, r in enumerate(bloch):
        points = [_DENSE_SPHERE]
        if np.linalg.norm(r) > abs(level):
            r_hat = r / np.linalg.norm(r)
            _, _, vt = np.linalg.svd(r_hat[None])
            t = np.arange(4096)[:, None] * (2.0 * math.pi / 4096)
            c = level / np.linalg.norm(r)
            points.append(c * r_hat + math.sqrt(1.0 - c * c) * (np.cos(t) * vt[1] + np.sin(t) * vt[2]))
        n = np.concatenate(points)
        den = 1.0 + n @ r
        ok = den / 2.0 >= varepsilon + 1e-14
        if ok.any():
            shifts = (n[ok] @ table[3 * x : 3 * x + 3]).reshape(-1, n_sites, 3)
            ratio2 = np.einsum("kyb,kyb->ky", shifts, shifts) / (4.0 * den[ok, None] ** 2)
            ref[x] = np.sqrt(np.max(ratio2, axis=0))
    return ref


def _oracle_states():
    for n in (3, 4):
        for label, family, params in correspondence_catalog():
            yield f"{label}/{n}", build_state(family, n, params=params)
    rng = np.random.default_rng(11)
    for n in (3, 4, 5):
        for k in range(2):
            yield f"random-{k}/{n}", StateVector(LatticeSpec(n), random_state_amps(n, rng))


@pytest.mark.parametrize("varepsilon", [0.05, 0.3])
def test_search_never_falls_below_a_brute_force_reference(varepsilon):
    # the reference scans every ordering of every pair on a grid about 40 times
    # denser than the sweep's and on the floor circle
    for name, psi in _oracle_states():
        cov = covariance_matrix(psi)
        ref = _brute_force_deviations(cov.entries, cov.means.reshape(-1, 3), varepsilon)
        rep = stability_test(psi, epsilon=0.1, varepsilon=varepsilon, min_distance=1)
        for rec in rep.pairs:
            best = max(ref[rec.x, rec.y], ref[rec.y, rec.x])
            assert rec.deviation >= best - 1e-10, (name, rec.x, rec.y, rec.deviation, best)
