import math

import numpy as np
import pytest

from macrostab.analyzer import covariance_matrix, magnetization
from macrostab.errors import ValidationError
from macrostab.lattice import LatticeSpec
from macrostab.measure import conditional_distribution
from macrostab.operators import PAULI_MATRICES, LocalOperator, _apply_matrix_at_site, additive_variance
from macrostab.states import StateVector, make_ghz, make_uniform_product
from conftest import (
    PAULI,
    axis_coefficients,
    basis_state,
    dense_additive,
    dense_from_coefficients,
    dense_site_op,
    dense_variance,
    product_amps_oracle,
    random_state_amps,
)


class TestPauli:
    def test_matrices(self):
        assert np.array_equal(PAULI_MATRICES["z"], np.diag([1.0, -1.0]))
        assert np.array_equal(PAULI_MATRICES["x"], np.array([[0, 1], [1, 0]]))
        assert np.array_equal(PAULI_MATRICES["y"], np.array([[0, -1j], [1j, 0]]))

    def test_site_out_of_range(self):
        # the projection-postulate oracle checks each operator's site against the lattice
        with pytest.raises(ValidationError, match="site index 2 out of range"):
            conditional_distribution(
                make_ghz(LatticeSpec(2)), LocalOperator(2, PAULI["x"]), LocalOperator(0, PAULI["z"])
            )

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            LocalOperator(0, [[0, 1], [0, 0]])


class TestApplyLocal:
    """The operator image O|psi>, site by site: a plain array, not a state."""

    def test_bit_flip(self):
        lat = LatticeSpec(2)
        out = _apply_matrix_at_site(basis_state(lat, 0).amplitudes, 0, PAULI["x"])
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, basis_state(lat, 1).amplitudes)

    def test_sign_flip_single_site(self):
        lat = LatticeSpec(1)
        plus = make_uniform_product(lat, math.pi / 2)
        out = _apply_matrix_at_site(plus.amplitudes, 0, PAULI["z"])
        r = 1 / math.sqrt(2)
        assert np.allclose(out, [r, -r])

    def test_ghz_phase(self):
        lat = LatticeSpec(3)
        out = _apply_matrix_at_site(make_ghz(lat).amplitudes, 1, PAULI["z"])
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1 / math.sqrt(2)
        expected[7] = -1 / math.sqrt(2)
        assert np.allclose(out, expected)

    def test_input_unchanged(self):
        lat = LatticeSpec(2)
        psi = make_ghz(lat)
        before = psi.amplitudes.copy()
        _apply_matrix_at_site(psi.amplitudes, 0, PAULI["x"])
        assert np.array_equal(psi.amplitudes, before)

    def test_site_mismatch(self):
        # an operator beyond the lattice is rejected at the second site too
        lat = LatticeSpec(2)
        with pytest.raises(ValidationError, match="site index 3 out of range"):
            conditional_distribution(make_ghz(lat), LocalOperator(0, PAULI["z"]), LocalOperator(3, PAULI["x"]))

    @pytest.mark.parametrize("n,site,axis", [(3, 0, "x"), (3, 1, "y"), (4, 3, "z")])
    def test_matches_dense_oracle(self, n, site, axis, rng):
        amps = random_state_amps(n, rng)
        out = _apply_matrix_at_site(amps, site, PAULI_MATRICES[axis])
        expected = dense_site_op(n, site, PAULI[axis]) @ amps
        assert np.allclose(out, expected, atol=1e-13)


class TestExpectation:
    def test_all_up_magnetization(self):
        lat = LatticeSpec(4)
        assert magnetization(basis_state(lat, 0)) == pytest.approx(4.0, abs=1e-12)

    def test_ghz_magnetization_vanishes(self):
        lat = LatticeSpec(4)
        assert magnetization(make_ghz(lat)) == pytest.approx(0.0, abs=1e-12)

    def test_plus_transverse(self):
        lat = LatticeSpec(5)
        plus = make_uniform_product(lat, math.pi / 2)
        mean = covariance_matrix(plus).means @ axis_coefficients(5, "x")
        assert mean == pytest.approx(5.0, abs=1e-10)

    def test_additivity(self, rng):
        lat = LatticeSpec(4)
        psi = StateVector(lat, random_state_amps(4, rng))
        per_site = {
            axis: [np.vdot(psi.amplitudes, _apply_matrix_at_site(psi.amplitudes, x, PAULI[axis])).real for x in lat.sites]
            for axis in "yz"
        }
        assert magnetization(psi) == pytest.approx(sum(per_site["z"]), abs=1e-10)
        mean_y = covariance_matrix(psi).means @ axis_coefficients(4, "y")
        assert mean_y == pytest.approx(sum(per_site["y"]), abs=1e-10)

    def test_unnormalized_rejected(self):
        # an unnormalized state never reaches magnetization: building it fails
        lat = LatticeSpec(2)
        with pytest.raises(ValidationError, match="state not normalized"):
            magnetization(StateVector(lat, [0.5, 0.5, 0.5, 0.5 + 0.3j]))

    def test_imaginary_part_guard(self):
        # a manufactured non-Hermitian path cannot arise through the public
        # API, so check the guard via the checked constructor instead
        with pytest.raises(ValidationError, match="not Hermitian"):
            LocalOperator(0, [[1.0, 1j], [1j, 1.0]])


class TestAdditiveVariance:
    def test_ghz_maximal(self):
        c = axis_coefficients(3, "z")
        ghz = make_ghz(LatticeSpec(3))
        assert additive_variance(c, ghz) == pytest.approx(9.0, rel=1e-12)
        dense = dense_variance(dense_additive(3, "z"), ghz.amplitudes)
        assert additive_variance(c, ghz) == pytest.approx(dense, rel=1e-12)

    def test_eigenstate_exactly_zero(self):
        lat = LatticeSpec(6)
        c = axis_coefficients(6, "z")
        assert additive_variance(c, basis_state(lat, 0)) == 0.0
        assert additive_variance(c, basis_state(lat, 33)) == 0.0

    def test_independent_sites(self):
        up = basis_state(LatticeSpec(5), 0)
        assert additive_variance(axis_coefficients(5, "x"), up) == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_against_dense_oracle(self, axis, rng):
        n = 4
        lat = LatticeSpec(n)
        psi = StateVector(lat, random_state_amps(n, rng))
        dense = dense_variance(dense_additive(n, axis), psi.amplitudes)
        assert additive_variance(axis_coefficients(n, axis), psi) == pytest.approx(dense, abs=1e-10)

    def test_never_negative(self, rng):
        lat = LatticeSpec(3)
        for _ in range(20):
            psi = StateVector(lat, random_state_amps(3, rng))
            for axis in "xyz":
                assert additive_variance(axis_coefficients(3, axis), psi) >= 0.0


class TestAdditiveOperator:
    """An additive operator is its real coefficient vector c, with
    c[3x+a] the weight of sigma_a(x)."""

    def test_site_order_enforced(self):
        # site 0 along +x, site 1 along +z: sigma_x(0) is sharp, sigma_x(1) is not
        psi = StateVector(LatticeSpec(2), product_amps_oracle([(math.pi / 2, 0.0), (0.0, 0.0)]))
        c = np.zeros(6)
        c[0] = 1.0
        assert additive_variance(c, psi) == pytest.approx(0.0, abs=1e-12)
        assert additive_variance(np.roll(c, 3), psi) == pytest.approx(1.0, abs=1e-12)

    def test_from_coefficients_roundtrip(self, rng):
        # random complex states, and coefficients on all three axes at every site
        for n in (3, 4, 5, 6):
            lat = LatticeSpec(n)
            for _ in range(5):
                coeffs = rng.standard_normal(3 * n)
                psi = StateVector(lat, random_state_amps(n, rng))
                dense = dense_variance(dense_from_coefficients(n, coeffs), psi.amplitudes)
                assert abs(additive_variance(coeffs, psi) - dense) <= 1e-12 * max(1.0, dense)
                # the direct path is independent of the two-point table
                assert psi._table is None
