import math

import numpy as np
import pytest

from macrostab import (
    AdditiveOperator,
    ArgumentError,
    LatticeSpec,
    LocalOperator,
    StateError,
    StateVector,
    additive_variance,
    apply_additive,
    apply_local,
    basis_state,
    expectation,
    make_ghz,
    make_uniform_product,
    pauli,
)
from conftest import PAULI, dense_additive, dense_site_op, dense_variance, random_state_amps


class TestPauli:
    def test_matrices(self):
        lat = LatticeSpec(3)
        assert np.array_equal(pauli(lat, 0, "z").matrix, np.diag([1.0, -1.0]))
        assert np.array_equal(pauli(lat, 1, "x").matrix, np.array([[0, 1], [1, 0]]))
        assert np.array_equal(pauli(lat, 2, "y").matrix, np.array([[0, -1j], [1j, 0]]))

    def test_site_out_of_range(self):
        with pytest.raises(ArgumentError):
            pauli(LatticeSpec(2), 2, "x")

    def test_bad_axis(self):
        with pytest.raises(ArgumentError):
            pauli(LatticeSpec(2), 0, "w")

    def test_non_hermitian_rejected(self):
        with pytest.raises(ArgumentError):
            LocalOperator(0, [[0, 1], [0, 0]])


class TestApplyLocal:
    def test_bit_flip(self):
        lat = LatticeSpec(2)
        out = apply_local(pauli(lat, 0, "x"), basis_state(lat, 0))
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, basis_state(lat, 1).amplitudes)

    def test_sign_flip_single_site(self):
        lat = LatticeSpec(1)
        plus = make_uniform_product(lat, math.pi / 2)
        out = apply_local(pauli(lat, 0, "z"), plus)
        r = 1 / math.sqrt(2)
        assert np.allclose(out, [r, -r])

    def test_ghz_phase(self):
        lat = LatticeSpec(3)
        out = apply_local(pauli(lat, 1, "z"), make_ghz(lat))
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1 / math.sqrt(2)
        expected[7] = -1 / math.sqrt(2)
        assert np.allclose(out, expected)

    def test_input_unchanged(self):
        lat = LatticeSpec(2)
        psi = make_ghz(lat)
        before = psi.amplitudes.copy()
        apply_local(pauli(lat, 0, "x"), psi)
        assert np.array_equal(psi.amplitudes, before)

    def test_site_mismatch(self):
        lat = LatticeSpec(2)
        op = LocalOperator(3, PAULI["x"])
        with pytest.raises(ArgumentError):
            apply_local(op, make_ghz(lat))

    @pytest.mark.parametrize("n,site,axis", [(3, 0, "x"), (3, 1, "y"), (4, 3, "z")])
    def test_matches_dense_oracle(self, n, site, axis, rng):
        lat = LatticeSpec(n)
        psi = StateVector(lat, random_state_amps(n, rng))
        out = apply_local(pauli(lat, site, axis), psi)
        expected = dense_site_op(n, site, PAULI[axis]) @ psi.amplitudes
        assert np.allclose(out, expected, atol=1e-13)


class TestExpectation:
    def test_all_up_magnetization(self):
        lat = LatticeSpec(4)
        A = AdditiveOperator.from_axis(lat, "z")
        assert expectation(A, basis_state(lat, 0)) == pytest.approx(4.0, abs=1e-12)

    def test_ghz_magnetization_vanishes(self):
        lat = LatticeSpec(4)
        A = AdditiveOperator.from_axis(lat, "z")
        assert expectation(A, make_ghz(lat)) == pytest.approx(0.0, abs=1e-12)

    def test_plus_transverse(self):
        lat = LatticeSpec(5)
        A = AdditiveOperator.from_axis(lat, "x")
        plus = make_uniform_product(lat, math.pi / 2)
        assert expectation(A, plus) == pytest.approx(5.0, abs=1e-10)

    def test_additivity(self, rng):
        lat = LatticeSpec(4)
        psi = StateVector(lat, random_state_amps(4, rng))
        A = AdditiveOperator.from_axis(lat, "y")
        total = sum(expectation(pauli(lat, x, "y"), psi) for x in lat.sites)
        assert expectation(A, psi) == pytest.approx(total, abs=1e-10)

    def test_unnormalized_rejected(self):
        # an unnormalized state never reaches expectation: building it fails
        lat = LatticeSpec(2)
        with pytest.raises(StateError):
            expectation(pauli(lat, 0, "z"), StateVector(lat, [0.5, 0.5, 0.5, 0.5 + 0.3j]))

    def test_imaginary_part_guard(self):
        # a manufactured non-Hermitian path cannot arise through the public
        # API, so check the guard via the checked constructor instead
        with pytest.raises(ArgumentError):
            LocalOperator(0, [[1.0, 1j], [1j, 1.0]])


class TestAdditiveVariance:
    def test_ghz_maximal(self):
        lat = LatticeSpec(3)
        A = AdditiveOperator.from_axis(lat, "z")
        ghz = make_ghz(lat)
        assert additive_variance(A, ghz) == pytest.approx(9.0, rel=1e-12)
        dense = dense_variance(dense_additive(3, "z"), ghz.amplitudes)
        assert additive_variance(A, ghz) == pytest.approx(dense, rel=1e-12)

    def test_eigenstate_exactly_zero(self):
        lat = LatticeSpec(6)
        A = AdditiveOperator.from_axis(lat, "z")
        assert additive_variance(A, basis_state(lat, 0)) == 0.0
        assert additive_variance(A, basis_state(lat, 33)) == 0.0

    def test_independent_sites(self):
        lat = LatticeSpec(5)
        A = AdditiveOperator.from_axis(lat, "x")
        up = basis_state(lat, 0)
        assert additive_variance(A, up) == pytest.approx(5.0, rel=1e-12)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_against_dense_oracle(self, axis, rng):
        n = 4
        lat = LatticeSpec(n)
        psi = StateVector(lat, random_state_amps(n, rng))
        A = AdditiveOperator.from_axis(lat, axis)
        dense = dense_variance(dense_additive(n, axis), psi.amplitudes)
        assert additive_variance(A, psi) == pytest.approx(dense, abs=1e-10)

    def test_never_negative(self, rng):
        lat = LatticeSpec(3)
        for _ in range(20):
            psi = StateVector(lat, random_state_amps(3, rng))
            for axis in "xyz":
                assert additive_variance(AdditiveOperator.from_axis(lat, axis), psi) >= 0.0


class TestAdditiveOperator:
    def test_requires_one_term_per_site(self):
        lat = LatticeSpec(3)
        with pytest.raises(ArgumentError):
            AdditiveOperator(lat, [pauli(lat, 0, "z")])

    def test_site_order_enforced(self):
        lat = LatticeSpec(2)
        with pytest.raises(ArgumentError):
            AdditiveOperator(lat, [pauli(lat, 1, "z"), pauli(lat, 0, "z")])

    def test_from_coefficients_roundtrip(self, rng):
        n = 3
        lat = LatticeSpec(n)
        coeffs = rng.standard_normal(3 * n)
        A = AdditiveOperator.from_coefficients(lat, coeffs)
        psi = StateVector(lat, random_state_amps(n, rng))
        dense = sum(
            coeffs[3 * x + a] * dense_site_op(n, x, PAULI["xyz"[a]])
            for x in range(n)
            for a in range(3)
        )
        out = apply_additive(A, psi)
        assert isinstance(out, np.ndarray)
        assert np.allclose(out, dense @ psi.amplitudes, atol=1e-12)
