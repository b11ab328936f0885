import math

import numpy as np
import pytest

from macrostab.errors import CapabilityError, ValidationError
from macrostab.lattice import LatticeSpec
from macrostab.stateio import import_state
from macrostab.states import StateVector, make_dicke, make_ghz, make_uniform_product
from conftest import basis_state, product_amps_oracle


class TestLattice:
    def test_basic(self):
        lat = LatticeSpec(4)
        assert lat.dim == 16
        assert list(lat.sites) == [0, 1, 2, 3]
        assert lat.bonds() == [(0, 1), (1, 2), (2, 3)]

    def test_periodic_bonds_and_distance(self):
        lat = LatticeSpec(4, "periodic-chain")
        assert lat.bonds() == [(0, 1), (1, 2), (2, 3), (3, 0)]
        assert lat.distance(0, 3) == 1
        # two-site ring keeps a single bond
        assert LatticeSpec(2, "periodic-chain").bonds() == [(0, 1)]

    # the scenario checks every other size; a state-file header is read below it
    def test_cap(self, tmp_path):
        assert LatticeSpec(18).dim == 1 << 18
        path = tmp_path / "n19.state"
        path.write_text("macrostab-state v1 n_sites=19\n")
        with pytest.raises(CapabilityError, match="state-file header n_sites=19 exceeds the site cap 18"):
            import_state(path)

    def test_bad_args(self, tmp_path):
        path = tmp_path / "n0.state"
        path.write_text("macrostab-state v1 n_sites=0\n")
        with pytest.raises(ValidationError, match="state-file header n_sites=0 must be >= 1"):
            import_state(path)


class TestStateVector:
    def test_normalization_enforced(self):
        lat = LatticeSpec(2)
        for amps in ([1.0, 1.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5 + 0.3j]):
            with pytest.raises(ValidationError, match="state not normalized"):
                StateVector(lat, amps)

    def test_immutable(self):
        psi = make_ghz(LatticeSpec(2))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0
        with pytest.raises(AttributeError):
            psi.lattice = None

    def test_wrong_size(self):
        with pytest.raises(ValidationError, match="amplitude count"):
            StateVector(LatticeSpec(2), [1.0, 0.0])

    def test_overlap(self):
        lat = LatticeSpec(3)
        up = basis_state(lat, 0)
        ghz = make_ghz(lat)
        assert abs(np.vdot(up.amplitudes, ghz.amplitudes) - 1 / math.sqrt(2)) < 1e-12


class TestProductState:
    def test_all_up_two_sites(self):
        psi = make_uniform_product(LatticeSpec(2), 0.0)
        assert np.allclose(psi.amplitudes, [1, 0, 0, 0])

    def test_single_site_plus(self):
        psi = make_uniform_product(LatticeSpec(1), math.pi / 2)
        assert np.allclose(psi.amplitudes, [1 / math.sqrt(2)] * 2)

    def test_three_site_plus_from_oracle(self):
        angles = [(math.pi / 2, 0.0)] * 3
        psi = make_uniform_product(LatticeSpec(3), math.pi / 2)
        assert np.allclose(psi.amplitudes, np.full(8, 1 / math.sqrt(8)))
        assert np.allclose(psi.amplitudes, product_amps_oracle(angles), atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_random_angles_match_oracle(self, n, rng):
        theta, phi = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
        psi = make_uniform_product(LatticeSpec(n), theta, phi)
        assert np.allclose(psi.amplitudes, product_amps_oracle([(theta, phi)] * n), atol=1e-13)
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1.0) < 1e-12


class TestGhz:
    def test_two_sites(self):
        psi = make_ghz(LatticeSpec(2))
        r = 1 / math.sqrt(2)
        assert np.allclose(psi.amplitudes, [r, 0, 0, r])

    def test_three_sites(self):
        psi = make_ghz(LatticeSpec(3))
        assert abs(psi.amplitudes[0] - 1 / math.sqrt(2)) < 1e-15
        assert abs(psi.amplitudes[7] - 1 / math.sqrt(2)) < 1e-15
        assert np.all(psi.amplitudes[1:7] == 0)

    def test_norm_four_sites(self):
        psi = make_ghz(LatticeSpec(4))
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes).real - 1.0) < 1e-12

    def test_too_small(self):
        with pytest.raises(ValidationError, match="scenario.sizes must be >= 2 for a GHZ state, got 1"):
            make_ghz(LatticeSpec(1))


class TestDicke:
    def test_w_state(self):
        psi = make_dicke(LatticeSpec(3), 1)
        expected = np.zeros(8)
        expected[[1, 2, 4]] = 1 / math.sqrt(3)
        assert np.allclose(psi.amplitudes, expected)

    def test_zero_excitations(self):
        psi = make_dicke(LatticeSpec(3), 0)
        assert np.allclose(psi.amplitudes, basis_state(LatticeSpec(3), 0).amplitudes)

    def test_counts_match_binomial(self):
        psi = make_dicke(LatticeSpec(4), 2)
        nonzero = np.nonzero(psi.amplitudes)[0]
        assert len(nonzero) == math.comb(4, 2)
        assert np.allclose(psi.amplitudes[nonzero], 1 / math.sqrt(6))
        expected = {i for i in range(16) if bin(i).count("1") == 2}
        assert set(nonzero) == expected

    def test_out_of_range(self):
        with pytest.raises(ValidationError, match=r"scenario.state.params.k must lie in \[0, N\] at N = 3, got 4"):
            make_dicke(LatticeSpec(3), 4)
        with pytest.raises(ValidationError, match=r"scenario.state.params.k .* got -1"):
            make_dicke(LatticeSpec(3), -1)


def test_uniform_product_matches_explicit():
    a = make_uniform_product(LatticeSpec(3), math.pi / 2, 0.3)
    assert np.allclose(a.amplitudes, product_amps_oracle([(math.pi / 2, 0.3)] * 3))
