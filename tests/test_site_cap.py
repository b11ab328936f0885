"""Closed forms of four catalog states at the site cap, N = 18.

At the cap the two-point table is built from 2^(18 - 12) = 64 blocks of
amplitudes, more than at any other size the tests reach.  Each state's table
entries, largest additive fluctuation, normalized correlations, Omega(0.1)
and collective z-noise rate are compared with their closed forms.  The TFIM
ground state is left out: its solve at N = 18 alone takes seconds.
"""

import numpy as np
import pytest

from macrostab import NoiseModel, analytic_dephasing_rate, covariance_matrix, max_additive_fluctuation, omega
from macrostab.catalog import build_state
from macrostab.lattice import SITE_CAP

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
    assert np.allclose(rep.field.rho, _pattern(1.0, rho_off), rtol=0, atol=1e-9)
    assert rep.omega == omega_max
    gamma = analytic_dephasing_rate(psi, NoiseModel(KAPPA, "collective", axis="z"))
    assert gamma == pytest.approx(KAPPA * rate, rel=1e-10, abs=1e-12)
