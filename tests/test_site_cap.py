"""Closed forms at the site cap, N = 18.

At the cap the two-point table is built from 2^(18 - 12) = 64 blocks of
amplitudes, more than at any other size the tests reach.  Each of four
catalog states' table entries, largest additive fluctuation, normalized
correlations, Omega(0.1) and collective z-noise rate are compared with their
closed forms.  The open TFIM chain's two flip-sector ground energies are
compared with its free-fermion solution (Lieb, Schultz and Mattis, Ann.
Phys. 16, 407 (1961); Pfeuty, Ann. Phys. 57, 79 (1970)).
"""

import numpy as np
import pytest

from macrostab.analyzer import covariance_matrix, max_additive_fluctuation
from macrostab.catalog import build_state
from macrostab.cluster import omega
from macrostab.ground import RESIDUAL_TOL, ground_state
from macrostab.hamiltonian import HamiltonianSpec, build_hamiltonian
from macrostab.lattice import SITE_CAP, LatticeSpec
from macrostab.noise import NoiseModel
from macrostab.rates import analytic_dephasing_rate
from macrostab.scenario import TRANSVERSE_ISING
from conftest import dense_tfim

N = SITE_CAP
KAPPA = 0.01

# family: (C_zz diagonal, C_zz off-diagonal, C_xx diagonal, C_xx off-diagonal,
#          largest additive fluctuation, off-diagonal rho, Omega(0.1), collective-z rate / kappa)
CLOSED_FORMS = {
    "ghz": (1.0, 1.0, 1.0, 0.0, N * N, 1.0, N - 1, N * N),
    "w": (4 * (N - 1) / N**2, -4 / N**2, 1.0, 2 / N, 3 * N - 2, 2 / N, N - 1, 0.0),
    "dicke-half": (1.0, -1 / (N - 1), 1.0, N / (2 * (N - 1)), N * (N + 2) / 2, N / (2 * (N - 1)), N - 1, 0.0),
    "product-plus": (1.0, 0.0, 0.0, 0.0, N, 0.0, 0, N),
}


def _pattern(diagonal, off):
    return np.full((N, N), off) + (diagonal - off) * np.eye(N)


@pytest.mark.parametrize("family", list(CLOSED_FORMS))
def test_closed_forms_at_the_cap(family):
    zz_diag, zz_off, xx_diag, xx_off, fluct, rho_off, omega_max, rate = CLOSED_FORMS[family]
    psi = build_state(family, N)
    table = covariance_matrix(psi)
    # every entry is a pairwise sum over 2^18 amplitudes
    assert np.allclose(table.axis_block("z", "z"), _pattern(zz_diag, zz_off), rtol=0, atol=1e-12)
    assert np.allclose(table.axis_block("x", "x"), _pattern(xx_diag, xx_off), rtol=0, atol=1e-12)
    assert max_additive_fluctuation(psi).max_variance == pytest.approx(fluct, rel=1e-10)
    rep = omega(psi, 0.1)
    # rho whitens each 3x3 site block, so it keeps fewer digits than the table
    assert np.allclose(rep.rho, _pattern(1.0, rho_off), rtol=0, atol=1e-9)
    assert rep.omega == omega_max
    gamma = analytic_dephasing_rate(psi, NoiseModel(KAPPA, "collective", axis="z"))
    assert gamma == pytest.approx(KAPPA * rate, rel=1e-10, abs=1e-12)


def tfim_sector_energies(n, J, h):
    """Lowest energies of the flip-even and flip-odd sectors of the open chain
    H = -J sum sz sz - h sum sx.  Its fermion energies are twice the singular
    values s_k of the bidiagonal matrix with h on the diagonal and J above it:
    the even sector's lowest energy is -sum s_k, the odd one's 2 min s_k above."""
    s = np.linalg.svd(h * np.eye(n) + J * np.eye(n, k=1), compute_uv=False)
    return -s.sum(), -s.sum() + 2 * s.min()


@pytest.mark.parametrize("n", [4, 5, 6, 8])
@pytest.mark.parametrize("h", [0.1, 1.0, 2.0])
def test_tfim_closed_form_matches_the_dense_sectors(n, h):
    H = dense_tfim(n, 1.0, h).real
    half = 2 ** (n - 1)
    # the flip P maps index i to 2^n - 1 - i; (e_i +- e_Pi) / sqrt(2) span its sectors
    flipped = H[:half, ::-1][:, :half]
    even, odd = (np.linalg.eigvalsh(H[:half, :half] + sign * flipped)[0] for sign in (1, -1))
    assert np.allclose((even, odd), tfim_sector_energies(n, 1.0, h), rtol=0, atol=1e-12)


def test_tfim_ground_state_at_the_cap():
    # h = 2 is paramagnetic: the odd sector lies about 2.05 above the even one
    ham = build_hamiltonian(HamiltonianSpec(TRANSVERSE_ISING, LatticeSpec(N), J=1.0, h=2.0))
    res = ground_state(ham)
    even, odd = tfim_sector_energies(N, 1.0, 2.0)
    # a Ritz value lies within its residual norm of an eigenvalue
    assert abs(res.energies[0] - even) <= RESIDUAL_TOL
    assert abs(res.energies[1] - odd) <= RESIDUAL_TOL
    first, second = (psi.amplitudes for psi in res.states)
    assert np.array_equal(first[::-1], first)
    assert np.array_equal(second[::-1], -second)
