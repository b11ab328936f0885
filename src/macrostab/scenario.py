"""Declarative scenario files: the dataclasses are the schema.

A scenario file is a JSON object whose keys are the fields of
``Scenario``, ``StateSource`` (under ``state``) and ``ScenarioParams``
(under ``params``); ``output`` holds ``Scenario.output_path`` and
``output_format`` as ``path`` and ``format``.  Unknown keys are rejected
everywhere so a typo can never silently change physics parameters, and a
null leaves a field unset.  Every value check lives in the
``__post_init__`` of the class that owns the field, so a file, the
command line and a ``Scenario`` built in code are checked alike, and a
float field stores an int as a float, so all three echo the same bytes.
This is the one gate for scenario values: the modules below check none
of them again.  It also defines every name a value is checked against
(models, kernels, methods, axes, the trajectory counts), which the
modules below import from here, and it imports only ``errors`` and
``lattice`` from the package, so checking a scenario loads no numpy.

    {
      "name": "ghz-fragility",
      "state": {"family": "ghz", "params": {}},        # or {"file": "..."}
      "sizes": [4, 6, 8],
      "experiments": ["classify", "decohere"],
      "params": {"kappa": 0.01, "kernel": "collective", "seed": 7},
      "output": {"path": "out/run", "format": "both"}
    }
"""

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

from .errors import CapabilityError, ValidationError
from .lattice import GEOMETRIES, OPEN_CHAIN, SITE_CAP, LatticeSpec

EXPERIMENTS = ("classify", "cluster", "decohere", "measure", "ground", "symmetry-breaking")
FORMATS = ("structured", "csv", "both")

TRANSVERSE_ISING = "transverse-ising"
XXZ = "xxz"
MODELS = (TRANSVERSE_ISING, XXZ)

KERNEL_COLLECTIVE = "collective"
KERNEL_INDEPENDENT = "independent"
KERNEL_EXPONENTIAL = "exponential"
KERNELS = (KERNEL_COLLECTIVE, KERNEL_INDEPENDENT, KERNEL_EXPONENTIAL)

# how symmetry-breaking and the pure-phase family make the pure-phase vacuum
METHOD_DOUBLET = "doublet-superposition"
METHOD_SB_FIELD = "sb-field-limit"
METHODS = (METHOD_DOUBLET, METHOD_SB_FIELD)

PAULI_AXES = ("x", "y", "z")

MIN_TRAJECTORIES = 100
# steps of dt in a decohere horizon; trajectories run the first 20, the 5% rate window
TRAJECTORY_STEPS = 400

_SCALING_EXPERIMENTS = ("classify", "decohere")
_STATEFUL_EXPERIMENTS = ("classify", "cluster", "decohere", "measure")

# the transverse field h of each model when a scenario leaves it unset
MODEL_FIELD = {TRANSVERSE_ISING: 0.1, XXZ: 0.0}

# the allowed values of each string param, read by the command line too
CHOICES = {"kernel": KERNELS, "axis": PAULI_AXES, "model": MODELS, "method": METHODS, "geometry": GEOMETRIES}

# the values a field of each type takes besides its own type's (never a bool)
_ACCEPTS = {float: (int, float), tuple: (list, tuple)}

# The params each state family accepts: float (any number), int, or a tuple
# of allowed values.  Each key is also a command-line flag of that type.
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


def _require(cond, message):
    if not cond:
        raise ValidationError(message)


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


def _check_fields(obj, where):
    """Check every field of the dataclass ``obj``, named ``where.<key>`` in
    messages, and store it converted to its type; None only where the
    field's default is None."""
    for f in fields(obj):
        val = getattr(obj, f.name)
        if val is not None or f.default is not None:
            key = f"{where}.{f.metadata.get('key', f.name)}"
            object.__setattr__(obj, f.name, checked_value(f.type, val, key))


@dataclass(frozen=True)
class ScenarioParams:
    epsilon: float = 0.1
    varepsilon: float = 0.05
    min_distance: int = None
    kappa: float = 0.01
    kernel: str = KERNEL_COLLECTIVE
    axis: str = "z"
    xi: float = 2.0
    n_traj: int = 200
    horizon: float = None
    seed: int = 12345
    model: str = TRANSVERSE_ISING
    J: float = 1.0
    h: float = None  # unset: the model's own transverse field, MODEL_FIELD
    delta: float = 1.0
    B: float = 0.0
    method: str = METHOD_DOUBLET
    nfs_factor: float = 3.0
    geometry: str = OPEN_CHAIN

    def __post_init__(self):
        _check_fields(self, "scenario.params")
        for key, allowed in CHOICES.items():
            checked_value(allowed, getattr(self, key), f"scenario.params.{key}")
        _require(0 <= self.seed < 2**64, "scenario.params.seed must fit in 64 bits")
        if self.h is None:
            object.__setattr__(self, "h", MODEL_FIELD[self.model])


# the type of each param, which scenario files and command-line flags must match
PARAM_TYPES = {f.name: f.type for f in fields(ScenarioParams)}


@dataclass(frozen=True)
class StateSource:
    family: str = None
    params: dict = field(default_factory=dict)
    file: str = None

    def __post_init__(self):
        _check_fields(self, "scenario.state")
        one = (self.family is None) != (self.file is None)
        _require(one, "scenario.state needs exactly one of 'family' or 'file'")
        if self.family is None:
            _require(not self.params, "scenario.state.file takes no params")
        else:
            object.__setattr__(self, "params", check_state_params(self.family, self.params))


@dataclass(frozen=True)
class Scenario:
    name: str
    sizes: tuple
    experiments: tuple
    state: StateSource = None
    params: ScenarioParams = ScenarioParams()
    output_path: str = field(default=None, metadata={"key": "output.path"})
    output_format: str = field(default="both", metadata={"key": "output.format"})

    def __post_init__(self):
        """Checks shared by scenario files, the command line and scenarios
        built in code; they run before any state is built."""
        _check_fields(self, "scenario")
        _require(self.name, "scenario.name must not be empty")
        _require(self.experiments, "scenario.experiments must not be empty")
        for e in self.experiments:
            checked_value(EXPERIMENTS, e, "scenario.experiments")
        _require(len(set(self.experiments)) == len(self.experiments), "scenario.experiments must be distinct")
        _require(
            self.state is not None or not any(e in _STATEFUL_EXPERIMENTS for e in self.experiments),
            "scenario.state is required for this experiment set",
        )
        checked_value(FORMATS, self.output_format, "scenario.output.format")
        p = self.params
        sizes = list(self.sizes)
        _require(sizes, "scenario.sizes must not be empty")
        _require(all(type(n) is int and n >= 1 for n in sizes), "scenario.sizes must be a list of positive integers")
        _require(
            all(a < b for a, b in zip(sizes, sizes[1:])),
            f"scenario.sizes must be strictly ascending, got {sizes}",
        )
        if sizes[-1] > SITE_CAP:  # the largest, as they ascend
            raise CapabilityError(f"scenario.sizes must not exceed the site cap {SITE_CAP}, got {sizes[-1]}")
        for e in self.experiments:
            if e in _SCALING_EXPERIMENTS:
                _require(len(sizes) >= 3, f"scenario.sizes must hold at least 3 sizes for {e!r}")
                _require(
                    self.state is None or self.state.family != "catalog",
                    f"scenario.state.family must be a single family, not the catalog, for {e!r}",
                )
        for key in ("epsilon", "varepsilon"):
            val = getattr(p, key)
            _require(0.0 < val < 1.0, f"scenario.params.{key} must lie in (0, 1), got {val!r}")
        if "measure" in self.experiments:
            _require(sizes[0] >= 2, f"measure needs a site pair: scenario.sizes must be >= 2, got {sizes[0]}")
            largest = LatticeSpec(sizes[0], p.geometry).max_distance
            _require(
                p.min_distance is None or 1 <= p.min_distance <= largest,
                f"scenario.params.min_distance must lie in [1, {largest}] for sizes {sizes} on a {p.geometry}, "
                f"got {p.min_distance}",
            )
        _require(
            p.n_traj == 0 or p.n_traj >= MIN_TRAJECTORIES,
            f"scenario.params.n_traj must be 0 (analytic only) or >= {MIN_TRAJECTORIES}, got {p.n_traj}",
        )
        if "decohere" in self.experiments:
            _require(p.kappa > 0, "decohere needs scenario.params.kappa > 0")
            good = p.horizon is None or p.horizon / TRAJECTORY_STEPS > 0
            _require(good, f"scenario.params.horizon must have horizon / {TRAJECTORY_STEPS} > 0, got {p.horizon!r}")
            good = p.kernel != KERNEL_EXPONENTIAL or p.xi > 0
            _require(good, f"scenario.params.xi must be > 0 for the exponential kernel, got {p.xi!r}")
        if "symmetry-breaking" in self.experiments:
            _require(p.model == TRANSVERSE_ISING, f"symmetry-breaking needs scenario.params.model = {TRANSVERSE_ISING!r}")
            _require(p.B == 0.0, "symmetry-breaking needs scenario.params.B = 0 for the symmetric ground state")
            _require(p.nfs_factor > 0, f"scenario.params.nfs_factor must be > 0, got {p.nfs_factor!r}")
            _require(p.kappa >= 0, "symmetry-breaking needs scenario.params.kappa >= 0")
        if "decohere" in self.experiments or "symmetry-breaking" in self.experiments:
            # every analytic rate is at most kappa N^2, as tr(gC) <= lambda_max(g) tr(C) <= N * N;
            # the factor 2 leaves room for rounding
            _require(
                math.isfinite(2 * p.kappa * sizes[-1] ** 2),
                f"scenario.params.kappa = {p.kappa!r} overflows the rate bound kappa N^2 at N = {sizes[-1]}",
            )

    def echo(self):
        """Plain-dict copy embedded into every report; it reads back as the
        same scenario."""
        echo = asdict(self)
        echo["output"] = {"path": echo.pop("output_path"), "format": echo.pop("output_format")}
        return echo


def _from_json(cls, obj, where):
    """Build the dataclass ``cls`` from the JSON object ``obj``, named
    ``where`` in messages.  Its keys are the fields of ``cls`` (or a field's
    ``key`` metadata), and a null leaves a field unset.  A dataclass field
    is read in turn; ``cls`` checks every other value.  A field without a
    default is required."""
    _require(isinstance(obj, dict), f"{where} must be an object")
    by_key = {f.metadata.get("key", f.name): f for f in fields(cls)}
    unknown = set(obj) - set(by_key)
    _require(not unknown, f"unknown key(s) {sorted(unknown)} in {where}")
    given = {}
    for key, f in by_key.items():
        val = obj.get(key)
        if val is None:
            _require(f.default is not MISSING or f.default_factory is not MISSING, f"{where}.{key} is required")
        else:
            given[f.name] = _from_json(f.type, val, f"{where}.{key}") if is_dataclass(f.type) else val
    return cls(**given)


def validate_scenario(raw):
    """Turn a parsed JSON object into a Scenario, rejecting anything odd."""
    _require(isinstance(raw, dict), "scenario must be an object")
    dotted = [key for key in raw if "." in key]
    _require(not dotted, f"unknown key(s) {sorted(dotted)} in scenario")
    flat = {key: val for key, val in raw.items() if key != "output"}
    if raw.get("output") is not None:
        _require(isinstance(raw["output"], dict), "scenario.output must be an object")
        flat.update((f"output.{key}", val) for key, val in raw["output"].items())
    return _from_json(Scenario, flat, "scenario")


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario file is not valid JSON: {exc}") from exc
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise ValidationError(f"scenario file holds an unreadable number: {exc}") from exc
    return validate_scenario(raw)
