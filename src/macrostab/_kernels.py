"""Hamiltonian matvec kernel: a numba-jitted version with a pure-numpy fallback.

Selection: the numba path is used when numba imports cleanly and the
environment variable ``MACROSTAB_NUMBA`` is not set to 0/false/off.
Both paths implement identical arithmetic; ``benchmarks/bench_kernels.py``
compares them.
"""

import os

import numpy as np


def _env_flag(name, default=True):
    raw = os.environ.get(name)
    if raw is None:
        return default
    return raw.strip().lower() not in ("0", "false", "off", "no")


NUMBA_REQUESTED = _env_flag("MACROSTAB_NUMBA")
try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via MACROSTAB_NUMBA=0
    HAVE_NUMBA = False

USE_NUMBA = NUMBA_REQUESTED and HAVE_NUMBA


def kernel_path():
    """Name of the active implementation path."""
    return "numba" if USE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# Hamiltonian matrix-vector product
#
# H v = diag * v  - h * sum_x v[i ^ bit_x]  + swap_coef * sum_bonds v[i ^ mask]
# where the swap term only hits indices whose two bond bits differ.
# ---------------------------------------------------------------------------


def ham_matvec_numpy(v, diag, h, flip_indices, swap_coef, swap_indices, swap_mult):
    out = diag * v
    if h != 0.0 and flip_indices is not None:
        for x in range(flip_indices.shape[0]):
            out -= h * v[flip_indices[x]]
    if swap_coef != 0.0 and swap_indices is not None:
        for b in range(swap_indices.shape[0]):
            out += (swap_coef * swap_mult[b]) * v[swap_indices[b]]
    return out


if HAVE_NUMBA:

    @njit(cache=True, nogil=True)
    def _ham_matvec_numba(v, out, diag, h, n_flip_sites, swap_coef, bond_lo, bond_hi):
        dim = v.shape[0]
        for i in range(dim):
            out[i] = diag[i] * v[i]
        if h != 0.0:
            for x in range(n_flip_sites):
                bit = 1 << x
                for i in range(dim):
                    out[i] -= h * v[i ^ bit]
        if swap_coef != 0.0:
            for b in range(bond_lo.shape[0]):
                mx = 1 << bond_lo[b]
                my = 1 << bond_hi[b]
                mask = mx | my
                for i in range(dim):
                    if ((i & mx) == 0) != ((i & my) == 0):
                        out[i] += swap_coef * v[i ^ mask]
        return out


def ham_matvec(v, tables):
    """Dispatching matvec; ``tables`` comes from ``build_matvec_tables``."""
    if USE_NUMBA:
        out = np.empty_like(v)
        _ham_matvec_numba(
            v,
            out,
            tables["diag"],
            tables["h"],
            tables["n_flip_sites"],
            tables["swap_coef"],
            tables["bond_lo"],
            tables["bond_hi"],
        )
        return out
    return ham_matvec_numpy(
        v,
        tables["diag"],
        tables["h"],
        tables["flip_indices"],
        tables["swap_coef"],
        tables["swap_indices"],
        tables["swap_mult"],
    )


def build_matvec_tables(n_sites, diag, h, swap_coef, bonds):
    """Precompute the index tables both matvec paths consume."""
    dim = diag.shape[0]
    tables = {
        "diag": diag,
        "h": float(h),
        "n_flip_sites": n_sites if h != 0.0 else 0,
        "swap_coef": float(swap_coef),
        "bond_lo": np.array([b[0] for b in bonds], dtype=np.int64),
        "bond_hi": np.array([b[1] for b in bonds], dtype=np.int64),
        "flip_indices": None,
        "swap_indices": None,
        "swap_mult": None,
    }
    if not USE_NUMBA:
        idx = np.arange(dim, dtype=np.int64)
        if h != 0.0:
            tables["flip_indices"] = np.stack(
                [idx ^ (1 << x) for x in range(n_sites)]
            )
        if swap_coef != 0.0 and bonds:
            swaps = []
            mults = []
            for x, y in bonds:
                mx, my = 1 << x, 1 << y
                differ = ((idx & mx) == 0) != ((idx & my) == 0)
                swaps.append(np.where(differ, idx ^ (mx | my), idx))
                mults.append(differ.astype(np.float64))
            tables["swap_indices"] = np.stack(swaps)
            tables["swap_mult"] = np.stack(mults)
    return tables
