import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from macrostab.analyzer import covariance_matrix
from macrostab.cluster import _inverse_sqrt_projected, cluster_verdict, correlation_field, omega
from macrostab.lattice import LatticeSpec
from macrostab.states import StateVector, make_dicke, make_ghz, make_uniform_product
from conftest import basis_state, random_state_amps


def rho_bruteforce(psi, x, y, grid=100):
    """Lower-bound oracle: scan direction pairs, then refine locally."""
    cov = covariance_matrix(psi)
    cxx = cov.site_block(x, x)
    cxy = cov.site_block(x, y)
    cyy = cov.site_block(y, y)

    def ratio(u, v):
        nu = float(u @ cxx @ u)
        nv = float(v @ cyy @ v)
        if nu < 1e-10 or nv < 1e-10:
            return 0.0
        return abs(float(u @ cxy @ v)) / math.sqrt(nu * nv)

    def sphere(idx, count):
        # Fibonacci sphere
        golden = (1 + 5**0.5) / 2
        z = 1 - 2 * (idx + 0.5) / count
        r = math.sqrt(max(0.0, 1 - z * z))
        phi = 2 * math.pi * idx / golden
        return np.array([r * math.cos(phi), r * math.sin(phi), z])

    best_val, best_pair = 0.0, None
    for i in range(grid):
        u = sphere(i, grid)
        for j in range(grid):
            v = sphere(j, grid)
            val = ratio(u, v)
            if val > best_val:
                best_val, best_pair = val, (u, v)
    if best_pair is None:
        return 0.0

    def angles_to_vec(t, p):
        return np.array([math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)])

    def objective(a):
        return -ratio(angles_to_vec(a[0], a[1]), angles_to_vec(a[2], a[3]))

    u, v = best_pair
    t0 = [math.acos(np.clip(u[2], -1, 1)), math.atan2(u[1], u[0]),
          math.acos(np.clip(v[2], -1, 1)), math.atan2(v[1], v[0])]
    res = minimize(objective, t0, method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 2000})
    return max(best_val, -res.fun)


class TestConnectedCorrelator:
    """Connected two-point values <ab> - <a><b> read off the shared table."""

    def test_ghz_endpoints(self):
        cov = covariance_matrix(make_ghz(LatticeSpec(4)))
        assert cov.site_block(0, 3)[2, 2] == pytest.approx(1.0, abs=1e-12)

    def test_product_no_correlations(self):
        up = covariance_matrix(basis_state(LatticeSpec(4), 0))
        assert up.site_block(0, 3)[2, 2] == pytest.approx(0.0, abs=1e-12)
        plus = covariance_matrix(make_uniform_product(LatticeSpec(3), math.pi / 2))
        assert plus.site_block(0, 2)[0, 0] == pytest.approx(0.0, abs=1e-12)


class TestNormalizedCorrelation:
    def test_ghz_saturates(self):
        psi = make_ghz(LatticeSpec(5))
        assert correlation_field(psi)[0, 4] == pytest.approx(1.0, abs=1e-9)

    def test_product_vanishes(self):
        psi = make_uniform_product(LatticeSpec(4), math.pi / 3, 0.7)
        rho = correlation_field(psi)
        for x, y in itertools.combinations(range(4), 2):
            assert rho[x, y] == pytest.approx(0.0, abs=1e-9)

    def test_w_state_value_and_symmetry(self):
        rho = correlation_field(make_dicke(LatticeSpec(3), 1))
        vals = [rho[x, y] for x, y in [(0, 1), (0, 2), (1, 2)]]
        assert max(vals) - min(vals) < 1e-10
        assert 0.0 < vals[0] < 1.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: make_dicke(LatticeSpec(3), 1),
            lambda: make_ghz(LatticeSpec(4)),
            lambda: make_dicke(LatticeSpec(4), 2),
        ],
    )
    def test_matches_bruteforce_oracle(self, make):
        psi = make()
        grid_val = rho_bruteforce(psi, 0, 1)
        svd_val = correlation_field(psi)[0, 1]
        assert svd_val >= grid_val - 1e-9  # grid is a lower bound
        assert abs(svd_val - grid_val) < 1e-6

    def test_cauchy_schwarz(self, rng):
        lat = LatticeSpec(4)
        for _ in range(10):
            rho = correlation_field(StateVector(lat, random_state_amps(4, rng)))
            for x, y in itertools.combinations(range(4), 2):
                assert rho[x, y] <= 1 + 1e-9


class TestOmega:
    def test_ghz(self):
        rep = omega(make_ghz(LatticeSpec(6)), 0.1)
        assert rep.omega == 5
        assert np.all(rep.omega_of_x == 5)

    def test_product(self):
        rep = omega(make_uniform_product(LatticeSpec(5), math.pi / 2), 0.1)
        assert rep.omega == 0

    def test_high_threshold_still_saturated(self):
        rep = omega(make_ghz(LatticeSpec(4)), 0.999)
        assert rep.omega == 3

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_w_state_margin(self, n):
        # every off-diagonal rho of W is 2/N, above epsilon = 0.1 until N = 20,
        # so Omega(0.1) = N - 1 at every size the site cap allows
        rep = omega(make_dicke(LatticeSpec(n), 1), 0.1)
        off_diag = rep.rho[~np.eye(n, dtype=bool)]
        assert np.max(np.abs(off_diag - 2 / n)) < 1e-12
        assert rep.omega == n - 1

    def test_monotonic_in_epsilon(self):
        psi = make_dicke(LatticeSpec(5), 2)
        values = [omega(psi, e).omega for e in (0.05, 0.2, 0.5, 0.9)]
        assert values == sorted(values, reverse=True)


class TestClusterVerdict:
    def test_growing_sequence_fails(self):
        v = cluster_verdict([(4, 3), (6, 5), (8, 7)])
        assert not v.has_cluster_property

    def test_zero_sequence_passes(self):
        v = cluster_verdict([(4, 0), (6, 0), (8, 0)])
        assert v.has_cluster_property

    def test_saturating_sequence_passes(self):
        v = cluster_verdict([(8, 2), (10, 2), (12, 2)])
        assert v.has_cluster_property

    def test_constant_but_large_fails(self):
        v = cluster_verdict([(4, 3), (6, 4), (8, 5)])
        assert not v.has_cluster_property
        v2 = cluster_verdict([(4, 4), (6, 4), (8, 5)])
        assert not v2.has_cluster_property


def test_field_symmetric_with_unit_diagonal():
    rho = correlation_field(make_dicke(LatticeSpec(4), 2))
    assert np.allclose(rho, rho.T, atol=1e-12)
    assert np.allclose(np.diag(rho), 1.0)


def test_batched_field_equals_per_pair_loop(rng):
    # |0> (x) Bell (x) |+> (x) random 2-site state; site k lives on bit k.
    # The table's 3x3 blocks include zero blocks (the product sites' cross
    # blocks), rank-2 blocks (their own blocks) and full-rank ones (Bell).
    zero = np.array([1.0, 0.0])
    plus = np.array([1.0, 1.0]) / math.sqrt(2)
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
    amps = np.kron(random_state_amps(2, rng), np.kron(plus, np.kron(bell, zero)))
    psi = StateVector(LatticeSpec(6), amps)
    cov = covariance_matrix(psi)
    ranks = {int(np.linalg.matrix_rank(cov.site_block(x, y), tol=1e-10))
             for x in range(6) for y in range(6)}
    assert {0, 2, 3} <= ranks
    expected = np.eye(6)
    for x, y in itertools.combinations(range(6), 2):
        wx = _inverse_sqrt_projected(cov.site_block(x, x))
        wy = _inverse_sqrt_projected(cov.site_block(y, y))
        sv = np.linalg.svd(wx @ cov.site_block(x, y) @ wy, compute_uv=False)
        expected[x, y] = expected[y, x] = sv[0]
    rho = correlation_field(psi)
    assert np.array_equal(rho, expected)
    assert np.array_equal(rho, rho.T)
    assert np.array_equal(np.diag(rho), np.ones(6))
    assert rho[1, 2] == pytest.approx(1.0, abs=1e-12)
    for x in (0, 3):
        assert np.allclose(np.delete(rho[x], x), 0.0, atol=1e-12)


def test_afs_families_lack_cluster_property():
    # anomalous fluctuation scaling must always come with failing clustering
    from macrostab.analyzer import classify_scaling, max_additive_fluctuation
    from macrostab.catalog import build_state, correspondence_catalog

    sizes = (4, 6, 8)
    for label, family, params in correspondence_catalog():
        states = {n: build_state(family, n, params=params) for n in sizes}
        scaling = classify_scaling(
            [(n, max_additive_fluctuation(states[n]).max_variance) for n in sizes]
        )
        if scaling.verdict != "AFS":
            continue
        verdict = cluster_verdict([(n, omega(states[n], 0.1).omega) for n in sizes])
        assert not verdict.has_cluster_property, label
