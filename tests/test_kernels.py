"""Numba and numpy kernel paths must agree to round-off."""

import subprocess
import sys

import numpy as np
import pytest

from macrostab import _kernels
from macrostab.hamiltonian import HamiltonianSpec, build_hamiltonian
from macrostab.lattice import LatticeSpec
from conftest import random_state_amps, subprocess_env


needs_numba = pytest.mark.skipif(not _kernels.HAVE_NUMBA, reason="numba unavailable")


def _numpy_tables(n_sites, diag, h, swap_coef, bonds):
    """Index tables for the numpy path regardless of the active dispatch."""
    dim = diag.shape[0]
    idx = np.arange(dim, dtype=np.int64)
    flip = np.stack([idx ^ (1 << x) for x in range(n_sites)]) if h != 0.0 else None
    swaps = mults = None
    if swap_coef != 0.0 and bonds:
        s, m = [], []
        for x, y in bonds:
            mx, my = 1 << x, 1 << y
            differ = ((idx & mx) == 0) != ((idx & my) == 0)
            s.append(np.where(differ, idx ^ (mx | my), idx))
            m.append(differ.astype(np.float64))
        swaps, mults = np.stack(s), np.stack(m)
    return flip, swaps, mults


@needs_numba
@pytest.mark.parametrize("model,J,h,delta,B", [
    ("transverse-ising", 1.0, 0.8, 1.0, 0.0),
    ("transverse-ising", 0.5, 1.2, 1.0, 0.3),
    ("xxz", 1.0, 0.0, 0.7, 0.0),
    ("xxz", 0.9, 0.4, 1.3, 0.1),
])
def test_matvec_paths_agree(model, J, h, delta, B, rng):
    n = 5
    spec = HamiltonianSpec(model, LatticeSpec(n), J=J, h=h, delta=delta, B=B)
    ham = build_hamiltonian(spec)
    tables = ham._tables
    flip, swaps, mults = _numpy_tables(n, tables["diag"], tables["h"], tables["swap_coef"], spec.lattice.bonds())
    for _ in range(3):
        v = random_state_amps(n, rng)
        via_numpy = _kernels.ham_matvec_numpy(
            v, tables["diag"], tables["h"], flip, tables["swap_coef"], swaps, mults
        )
        out = np.empty_like(v)
        _kernels._ham_matvec_numba(
            v, out, tables["diag"], tables["h"], tables["n_flip_sites"],
            tables["swap_coef"], tables["bond_lo"], tables["bond_hi"],
        )
        assert np.allclose(out, via_numpy, atol=1e-13)


def test_env_flag_selects_numpy_path():
    out = subprocess.run(
        [sys.executable, "-c", "from macrostab import _kernels; print(_kernels.kernel_path())"],
        capture_output=True, text=True, env=subprocess_env({"MACROSTAB_NUMBA": "0"}), check=True,
    )
    assert out.stdout.strip() == "numpy"


def test_default_flag_reports_active_path():
    assert _kernels.kernel_path() in ("numba", "numpy")
