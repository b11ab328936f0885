"""Closed forms at the site cap, N = 18.

At the cap the two-point table is built from 2^(18 - 12) = 64 blocks of
amplitudes, more than at any other size the tests reach.  Each of four
catalog states' table entries, largest additive fluctuation, normalized
correlations, Omega(0.1) and collective z-noise rate are compared with their
closed forms.  The open TFIM chain's two flip-sector ground energies, and
the one- and two-point functions of the catalog's two TFIM ground states,
are compared with its free-fermion solution (Lieb, Schultz and Mattis, Ann.
Phys. 16, 407 (1961); Pfeuty, Ann. Phys. 57, 79 (1970); Barouch and
McCoy, Phys. Rev. A 3, 786 (1971), for the determinant form).
"""

import itertools

import numpy as np
import pytest

from macrostab.analyzer import covariance_matrix, max_additive_fluctuation
from macrostab.catalog import build_state
from macrostab.cluster import omega
from macrostab.ground import RESIDUAL_TOL, ground_state
from macrostab.hamiltonian import HamiltonianSpec, build_hamiltonian
from macrostab.lattice import SITE_CAP, LatticeSpec
from macrostab.rates import NoiseModel, analytic_dephasing_rate
from macrostab.scenario import TRANSVERSE_ISING
from conftest import PAULI, dense_bond_op, dense_site_op, dense_tfim

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
    s = np.linalg.svd(_bidiagonal(n, J, h), compute_uv=False)
    return -s.sum(), -s.sum() + 2 * s.min()


def _bidiagonal(n, J, h):
    return h * np.eye(n) + J * np.eye(n, k=1)


def tfim_even_correlators(n, J, h):
    """<sx_j>, <sz_i sz_j> and <sx_i sx_j> in the flip-even ground state of the
    open chain.  With U S V^T the SVD of the bidiagonal matrix and G = U V^T:
    <sx_j> = G_jj, <sz_i sz_j> = det G[i:j, i+1:j+1] for i < j, and
    <sx_i sx_j> = G_ii G_jj - G_ij G_ji (Wick)."""
    u, _, vt = np.linalg.svd(_bidiagonal(n, J, h))
    g = u @ vt
    zz, xx = np.eye(n), np.eye(n)
    for i, j in itertools.combinations(range(n), 2):
        zz[i, j] = zz[j, i] = np.linalg.det(g[i:j, i + 1 : j + 1])
        xx[i, j] = xx[j, i] = g[i, i] * g[j, j] - g[i, j] * g[j, i]
    return np.diag(g).copy(), zz, xx


@pytest.mark.parametrize("n", [4, 5, 6, 8])
@pytest.mark.parametrize("h", [0.1, 1.0, 2.0])
def test_tfim_closed_form_matches_the_dense_sectors(n, h):
    H = dense_tfim(n, 1.0, h).real
    half = 2 ** (n - 1)
    # the flip P maps index i to 2^n - 1 - i; (e_i +- e_Pi) / sqrt(2) span its sectors
    flipped = H[:half, ::-1][:, :half]
    even, odd = (np.linalg.eigvalsh(H[:half, :half] + sign * flipped)[0] for sign in (1, -1))
    assert np.allclose((even, odd), tfim_sector_energies(n, 1.0, h), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [4, 5, 6, 8])
@pytest.mark.parametrize("h", [0.1, 0.5, 2.0])
def test_tfim_correlators_match_the_dense_even_ground_state(n, h):
    # the dense oracle pins the signs and orientation of the closed forms
    H = dense_tfim(n, 1.0, h).real
    half = 2 ** (n - 1)
    v = np.linalg.eigh(H[:half, :half] + H[:half, ::-1][:, :half])[1][:, 0]
    psi = np.concatenate((v, v[::-1])) / np.sqrt(2)
    mx, zz, xx = tfim_even_correlators(n, 1.0, h)
    sx, sz = PAULI["x"].real, PAULI["z"].real
    assert np.allclose([psi @ dense_site_op(n, j, sx) @ psi for j in range(n)], mx, rtol=0, atol=1e-12)
    for i, j in itertools.combinations(range(n), 2):
        assert psi @ dense_bond_op(n, i, j, sz, sz) @ psi == pytest.approx(zz[i, j], abs=1e-12)
        assert psi @ dense_bond_op(n, i, j, sx, sx) @ psi == pytest.approx(xx[i, j], abs=1e-12)


@pytest.mark.parametrize("h", [0.1, 2.0])
def test_tfim_ground_state_correlators_at_the_cap(h):
    # the catalog's tfim-ferro and tfim-para states: a solve with the right
    # energy could still return the wrong state, such as the wrong member of
    # h = 0.1's near-degenerate doublet
    table = covariance_matrix(build_state("tfim-ground", N, params={"J": 1.0, "h": h}))
    mx, zz, xx = tfim_even_correlators(N, 1.0, h)
    means = {axis: table.means["xyz".index(axis) :: 3] for axis in "xz"}
    assert np.allclose(means["x"], mx, rtol=0, atol=1e-10)
    for axis, want in (("z", zz), ("x", xx)):
        got = table.axis_block(axis, axis) + np.outer(means[axis], means[axis])
        off = ~np.eye(N, dtype=bool)
        assert np.allclose(got[off], want[off], rtol=0, atol=1e-10), axis


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
