"""Named state families used by the command line and the test battery."""

import math

from .errors import ArgumentError
from .ground import METHOD_DOUBLET, METHODS, ground_state, pure_phase_vacuum
from .hamiltonian import TRANSVERSE_ISING, HamiltonianSpec, build_hamiltonian
from .lattice import OPEN_CHAIN, LatticeSpec
from .states import make_dicke, make_ghz, make_uniform_product

# accepted values and description of each param type
_KINDS = {float: ((int, float), "a number"), int: (int, "an integer")}

# The params each family accepts: float (any number), int, or a tuple of
# allowed values.  Each key is also a command-line flag of that type.
# "catalog" names the whole correspondence catalog, which takes none.
FAMILY_PARAMS = {
    "ghz": {},
    "product-up": {},
    "product-plus": {},
    "product": {"theta": float, "phi": float},
    "w": {},
    "dicke": {"k": int},
    "dicke-half": {},
    "tfim-ground": {"J": float, "h": float, "B": float},
    "tfim-paramagnetic": {"J": float},
    "pure-phase": {"J": float, "h": float, "method": METHODS},
    "catalog": {},
}


def check_state_params(family, params):
    """Reject an unknown family, unknown or mistyped params, a float param
    that is not finite or too large for a float, and a Dicke state without k."""
    if family not in FAMILY_PARAMS:
        raise ArgumentError(f"unknown state family {family!r}")
    for key, val in params.items():
        kind = FAMILY_PARAMS[family].get(key)
        if kind is None:
            raise ArgumentError(f"unknown parameter {key!r} for state family {family!r}")
        if isinstance(kind, tuple):
            ok, want = val in kind, f"one of {list(kind)}"
        else:
            types, want = _KINDS[kind]
            ok = isinstance(val, types) and not isinstance(val, bool)
        if not ok:
            raise ArgumentError(f"state parameter {key!r} of family {family!r} must be {want}, got {val!r}")
        if kind is float:
            try:
                ok = math.isfinite(val)
            except OverflowError:
                raise ArgumentError(f"state parameter {key!r} of family {family!r} is too large for a float") from None
            if not ok:
                raise ArgumentError(f"state parameter {key!r} of family {family!r} must be finite, got {val!r}")
    if family == "dicke" and "k" not in params:
        raise ArgumentError("dicke family needs parameter k")


def _tfim_spec(lattice, params, default_h):
    J, h, B = (float(params.get(k, d)) for k, d in (("J", 1.0), ("h", default_h), ("B", 0.0)))
    return HamiltonianSpec(TRANSVERSE_ISING, lattice, J=J, h=h, B=B)


def _solved(spec, solved):
    """``ground_state`` result of ``spec``, solved once per ``solved`` dict."""
    if spec not in solved:
        solved[spec] = ground_state(build_hamiltonian(spec))
    return solved[spec]


def build_state(family, n_sites, geometry=OPEN_CHAIN, params=None, solved=None):
    """Construct a catalog state by family name.  States that share one ``solved``
    dict (HamiltonianSpec -> ground_state result) solve each Hamiltonian once."""
    params = dict(params or {})
    check_state_params(family, params)
    solved = {} if solved is None else solved
    lattice = LatticeSpec(n_sites, geometry)
    if family == "ghz":
        return make_ghz(lattice)
    if family == "product-up":
        return make_uniform_product(lattice, 0.0)
    if family == "product-plus":
        return make_uniform_product(lattice, math.pi / 2)
    if family == "product":
        return make_uniform_product(
            lattice, float(params.get("theta", 0.0)), float(params.get("phi", 0.0))
        )
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
        return pure_phase_vacuum(spec, method, pair=pair).state
    raise ArgumentError("the catalog is a set of families; build its states one family at a time")


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
