"""Named state families used by the command line and the test battery."""

import math

from .errors import ArgumentError
from .ground import METHOD_DOUBLET, ground_state, pure_phase_vacuum
from .hamiltonian import TRANSVERSE_ISING, HamiltonianSpec, build_hamiltonian
from .lattice import OPEN_CHAIN, LatticeSpec
from .states import make_dicke, make_ghz, make_uniform_product


def _reject_unknown(params, allowed, family):
    unknown = set(params) - set(allowed)
    if unknown:
        raise ArgumentError(
            f"unknown parameter(s) {sorted(unknown)} for state family {family!r}"
        )


def _tfim_ground(n_sites, geometry, params, default_h):
    spec = HamiltonianSpec(
        TRANSVERSE_ISING,
        LatticeSpec(n_sites, geometry),
        J=float(params.get("J", 1.0)),
        h=float(params.get("h", default_h)),
        B=float(params.get("B", 0.0)),
    )
    return ground_state(build_hamiltonian(spec)).states[0]


def build_state(family, n_sites, geometry=OPEN_CHAIN, params=None):
    """Construct a catalog state by family name."""
    params = dict(params or {})
    lattice = LatticeSpec(n_sites, geometry)
    if family == "ghz":
        _reject_unknown(params, (), family)
        return make_ghz(lattice)
    if family == "product-up":
        _reject_unknown(params, (), family)
        return make_uniform_product(lattice, 0.0)
    if family == "product-plus":
        _reject_unknown(params, (), family)
        return make_uniform_product(lattice, math.pi / 2)
    if family == "product":
        _reject_unknown(params, ("theta", "phi"), family)
        return make_uniform_product(
            lattice, float(params.get("theta", 0.0)), float(params.get("phi", 0.0))
        )
    if family == "w":
        _reject_unknown(params, (), family)
        return make_dicke(lattice, 1)
    if family == "dicke-half":
        _reject_unknown(params, (), family)
        return make_dicke(lattice, n_sites // 2)
    if family == "dicke":
        _reject_unknown(params, ("k",), family)
        if "k" not in params:
            raise ArgumentError("dicke family needs parameter k")
        return make_dicke(lattice, int(params["k"]))
    if family == "tfim-ground":
        _reject_unknown(params, ("J", "h", "B"), family)
        return _tfim_ground(n_sites, geometry, params, default_h=0.1)
    if family == "tfim-paramagnetic":
        _reject_unknown(params, ("J",), family)
        return _tfim_ground(n_sites, geometry, params, default_h=2.0)
    if family == "pure-phase":
        _reject_unknown(params, ("J", "h", "method"), family)
        spec = HamiltonianSpec(
            TRANSVERSE_ISING,
            lattice,
            J=float(params.get("J", 1.0)),
            h=float(params.get("h", 0.1)),
        )
        return pure_phase_vacuum(spec, params.get("method", METHOD_DOUBLET)).state
    raise ArgumentError(f"unknown state family {family!r}")


FAMILY_NAMES = (
    "ghz",
    "product-up",
    "product-plus",
    "product",
    "w",
    "dicke",
    "dicke-half",
    "tfim-ground",
    "tfim-paramagnetic",
    "pure-phase",
)


def correspondence_catalog():
    """(label, family, params) triples for the joint cluster/measurement sweep."""
    return (
        ("product-up", "product-up", {}),
        ("product-plus", "product-plus", {}),
        ("ghz", "ghz", {}),
        ("w", "w", {}),
        ("dicke-half", "dicke-half", {}),
        ("tfim-ferro", "tfim-ground", {"J": 1.0, "h": 0.1}),
        ("tfim-para", "tfim-ground", {"J": 1.0, "h": 2.0}),
        ("pure-phase", "pure-phase", {"J": 1.0, "h": 0.1}),
    )
