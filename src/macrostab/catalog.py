"""The named state families a scenario's ``state`` builds.  The gate,
``scenario.check_state_params`` against ``scenario.FAMILY_PARAMS``, checks
every family and param before any state; this module only builds them."""

import math

from .ground import ground_state, pure_phase_vacuum
from .hamiltonian import HamiltonianSpec, build_hamiltonian
from .lattice import OPEN_CHAIN, LatticeSpec
from .scenario import METHOD_DOUBLET, TRANSVERSE_ISING
from .states import make_dicke, make_ghz, make_uniform_product


def _tfim_spec(lattice, params, default_h):
    J, h, B = (params.get(k, d) for k, d in (("J", 1.0), ("h", default_h), ("B", 0.0)))
    return HamiltonianSpec(TRANSVERSE_ISING, lattice, J=J, h=h, B=B)


def _solved(spec, solved):
    """``ground_state`` result of ``spec``, solved once per ``solved`` dict."""
    if spec not in solved:
        solved[spec] = ground_state(build_hamiltonian(spec))
    return solved[spec]


def build_state(family, n_sites, geometry=OPEN_CHAIN, params=None, solved=None):
    """Construct a state of one family, not the catalog, from a family and
    params that ``scenario.check_state_params`` has passed.  States that share one ``solved``
    dict (HamiltonianSpec -> ground_state result) solve each Hamiltonian once."""
    params = params or {}
    solved = {} if solved is None else solved
    lattice = LatticeSpec(n_sites, geometry)
    if family == "ghz":
        return make_ghz(lattice)
    if family == "product-up":
        return make_uniform_product(lattice, 0.0)
    if family == "product-plus":
        return make_uniform_product(lattice, math.pi / 2)
    if family == "product":
        return make_uniform_product(lattice, params.get("theta", 0.0), params.get("phi", 0.0))
    if family == "w":
        return make_dicke(lattice, 1)
    if family == "dicke-half":
        return make_dicke(lattice, n_sites // 2)
    if family == "dicke":
        return make_dicke(lattice, params["k"])
    if family in ("tfim-ground", "tfim-paramagnetic"):
        spec = _tfim_spec(lattice, params, 0.1 if family == "tfim-ground" else 2.0)
        return _solved(spec, solved).states[0]
    if family == "pure-phase":
        spec, method = _tfim_spec(lattice, params, 0.1), params.get("method", METHOD_DOUBLET)
        pair = _solved(spec, solved) if method == METHOD_DOUBLET else None
        return pure_phase_vacuum(spec, method, pair=pair)


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
