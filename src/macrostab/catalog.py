"""Named state families used by the command line and the test battery."""

import math

from .errors import ValidationError
from .ground import METHOD_DOUBLET, METHODS, ground_state, pure_phase_vacuum
from .hamiltonian import TRANSVERSE_ISING, HamiltonianSpec, build_hamiltonian
from .lattice import OPEN_CHAIN, LatticeSpec
from .states import make_dicke, make_ghz, make_uniform_product

# the values a field of each type takes besides its own type's (never a bool)
_ACCEPTS = {float: (int, float), tuple: (list, tuple)}

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


def checked_value(kind, val, where):
    """``val`` as a value of ``kind``, a type or a tuple of allowed values;
    ``where`` names it in messages.  A type takes no bool.  A float also
    takes an int, which it stores as a float, and must be finite and fit a
    float; a tuple also takes a list, stored as a tuple."""
    if isinstance(kind, tuple):
        if val not in kind:
            raise ValidationError(f"{where} must be one of {list(kind)}, got {val!r}")
        return val
    if not isinstance(val, _ACCEPTS.get(kind, kind)) or isinstance(val, bool):
        raise ValidationError(f"{where} must be {kind.__name__}, got {val!r}")
    try:
        val = val if type(val) is kind else kind(val)
    except OverflowError:
        raise ValidationError(f"{where} is too large for a float") from None
    if kind is float and not math.isfinite(val):
        raise ValidationError(f"{where} must be finite, got {val!r}")
    return val


def check_state_params(family, params):
    """The params of the scenario's state ``family``, each checked and
    converted to its type, named by their scenario-file keys in messages.
    Rejects an unknown family or param and a Dicke state without k."""
    checked_value(tuple(FAMILY_PARAMS), family, "scenario.state.family")
    kinds = FAMILY_PARAMS[family]
    unknown = [key for key in params if key not in kinds]
    if unknown:
        raise ValidationError(f"unknown key(s) {unknown} in scenario.state.params of the {family!r} family")
    checked = {key: checked_value(kinds[key], val, f"scenario.state.params.{key}") for key, val in params.items()}
    if family == "dicke" and "k" not in params:
        raise ValidationError("scenario.state.params.k is required for the dicke family")
    return checked


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
    params that ``check_state_params`` has passed.  States that share one ``solved``
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
        return pure_phase_vacuum(spec, method, pair=pair).state


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
