"""Benchmark the numba Hamiltonian matvec against its pure-numpy fallback.

Usage: python benchmarks/bench_kernels.py [--sites N] [--reps R]

Times the Hamiltonian matvec on identical inputs through both code paths
and prints the speedup.  The
active path for normal runs is chosen by the MACROSTAB_NUMBA environment
variable; this script calls both implementations directly.
"""

import argparse
import time

import numpy as np

from macrostab import _kernels
from macrostab.hamiltonian import HamiltonianSpec, build_hamiltonian
from macrostab.lattice import LatticeSpec


def _time(fn, reps):
    fn()  # warm up (includes JIT compilation)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - start) / reps)
    return best


def bench_matvec(n_sites, reps):
    spec = HamiltonianSpec("xxz", LatticeSpec(n_sites), J=1.0, h=0.4, delta=0.7)
    ham = build_hamiltonian(spec)
    tables = ham._tables
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    v = rng.standard_normal(ham.dim) + 1j * rng.standard_normal(ham.dim)

    dim = ham.dim
    idx = np.arange(dim, dtype=np.int64)
    flip = np.stack([idx ^ (1 << x) for x in range(n_sites)])
    swaps, mults = [], []
    for x, y in spec.lattice.bonds():
        mx, my = 1 << x, 1 << y
        differ = ((idx & mx) == 0) != ((idx & my) == 0)
        swaps.append(np.where(differ, idx ^ (mx | my), idx))
        mults.append(differ.astype(np.float64))
    swaps, mults = np.stack(swaps), np.stack(mults)

    def run_numpy():
        _kernels.ham_matvec_numpy(v, tables["diag"], tables["h"], flip,
                                  tables["swap_coef"], swaps, mults)

    t_numpy = _time(run_numpy, reps)
    t_numba = None
    if _kernels.HAVE_NUMBA:
        out = np.empty_like(v)

        def run_numba():
            _kernels._ham_matvec_numba(v, out, tables["diag"], tables["h"],
                                       tables["n_flip_sites"], tables["swap_coef"],
                                       tables["bond_lo"], tables["bond_hi"])

        t_numba = _time(run_numba, reps)
    return t_numpy, t_numba


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sites", type=int, default=12)
    parser.add_argument("--reps", type=int, default=10)
    args = parser.parse_args()

    print(f"numba available: {_kernels.HAVE_NUMBA} (active path: {_kernels.kernel_path()})")
    print(f"{'kernel':<28}{'numpy':>12}{'numba':>12}{'speedup':>10}")
    name = f"ham matvec (N={args.sites})"
    t_np, t_nb = bench_matvec(args.sites, args.reps)
    nb = f"{t_nb * 1e3:9.3f} ms" if t_nb is not None else "       n/a"
    speedup = f"{t_np / t_nb:9.1f}x" if t_nb else "       n/a"
    print(f"{name:<28}{t_np * 1e3:9.3f} ms{nb}{speedup}")


if __name__ == "__main__":
    main()
