"""Declarative scenario files: schema, strict validation, defaults.

A scenario is a JSON object; unknown keys are rejected everywhere so a
typo can never silently change physics parameters.

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
from dataclasses import asdict, dataclass, field, fields

from .catalog import check_state_params
from .errors import FormatError, ValidationError
from .evolve import MIN_TRAJECTORIES, TRAJECTORY_STEPS
from .ground import METHODS
from .hamiltonian import MODELS, TRANSVERSE_ISING, XXZ
from .lattice import GEOMETRIES, OPEN_CHAIN, LatticeSpec
from .noise import KERNELS, NoiseModel
from .operators import PAULI_AXES

EXPERIMENTS = ("classify", "cluster", "decohere", "measure", "ground", "symmetry-breaking")
FORMATS = ("structured", "csv", "both")

_SCALING_EXPERIMENTS = ("classify", "decohere")
_STATEFUL_EXPERIMENTS = ("classify", "cluster", "decohere", "measure")

# the transverse field h of each model when a scenario leaves it unset
MODEL_FIELD = {TRANSVERSE_ISING: 0.1, XXZ: 0.0}

# the allowed values of each string param, read by the command line too
CHOICES = {"kernel": KERNELS, "axis": PAULI_AXES, "model": MODELS, "method": METHODS, "geometry": GEOMETRIES}


def _require(cond, message):
    if not cond:
        raise ValidationError(message)


@dataclass(frozen=True)
class ScenarioParams:
    epsilon: float = 0.1
    varepsilon: float = 0.05
    min_distance: int = None
    kappa: float = 0.01
    kernel: str = "collective"
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
    method: str = "doublet-superposition"
    nfs_factor: float = 3.0
    geometry: str = OPEN_CHAIN

    def __post_init__(self):
        for key, allowed in CHOICES.items():
            _require(getattr(self, key) in allowed, f"params.{key} must be one of {allowed}")
        if self.h is None:
            object.__setattr__(self, "h", MODEL_FIELD[self.model])

    def noise_model(self):
        """The correlated noise a decohere run couples to."""
        xi = self.xi if self.kernel == "exponential" else None
        return NoiseModel(kappa=self.kappa, kernel=self.kernel, axis=self.axis, xi=xi)


# the type of each param, which scenario files and command-line flags must match
PARAM_TYPES = {f.name: f.type for f in fields(ScenarioParams)}


@dataclass(frozen=True)
class StateSource:
    family: str = None
    params: dict = field(default_factory=dict)
    file: str = None


@dataclass(frozen=True)
class Scenario:
    name: str
    sizes: tuple
    experiments: tuple
    state: StateSource = None
    params: ScenarioParams = ScenarioParams()
    output_path: str = None
    output_format: str = "both"

    def __post_init__(self):
        """Checks shared by scenario files and the command line; they run
        before any state is built."""
        p = self.params
        sizes = list(self.sizes)
        _require(sizes, "sizes must not be empty")
        _require(
            all(a < b for a, b in zip(sizes, sizes[1:])),
            f"sizes must be strictly ascending, got {sizes}",
        )
        for n in sizes:
            LatticeSpec(n, p.geometry)  # the site cap, before any state
        for e in self.experiments:
            if e in _SCALING_EXPERIMENTS:
                _require(len(sizes) >= 3, "scaling experiments need at least 3 sizes")
                _require(
                    self.state is None or self.state.family != "catalog",
                    f"experiment {e!r} needs a single state family, not the catalog",
                )
        for key in ("epsilon", "varepsilon"):
            val = getattr(p, key)
            _require(0.0 < val < 1.0, f"params.{key} must lie in (0, 1), got {val!r}")
        if "measure" in self.experiments:
            _require(sizes[0] >= 2, f"measure needs a site pair: sizes must be >= 2, got {sizes[0]}")
            largest = LatticeSpec(sizes[0], p.geometry).max_distance
            _require(
                p.min_distance is None or 1 <= p.min_distance <= largest,
                f"params.min_distance must lie in [1, {largest}] for sizes {sizes} on a {p.geometry}, "
                f"got {p.min_distance}",
            )
        _require(
            p.n_traj == 0 or p.n_traj >= MIN_TRAJECTORIES,
            f"params.n_traj must be 0 (analytic only) or >= {MIN_TRAJECTORIES}, got {p.n_traj}",
        )
        if "decohere" in self.experiments:
            _require(p.kappa > 0, "decohere needs kappa > 0")
            _require(
                p.horizon is None or (math.isfinite(p.horizon) and p.horizon / TRAJECTORY_STEPS > 0),
                f"params.horizon must be finite with horizon / {TRAJECTORY_STEPS} > 0, got {p.horizon!r}",
            )
            p.noise_model()  # its kernel and xi, before any state
        if "symmetry-breaking" in self.experiments:
            _require(p.model == TRANSVERSE_ISING, "symmetry-breaking is defined for the transverse-ising model")
            _require(p.B == 0.0, "symmetry-breaking needs B = 0 for the symmetric ground state")
            _require(
                math.isfinite(p.nfs_factor) and p.nfs_factor > 0,
                f"params.nfs_factor must be finite and > 0, got {p.nfs_factor!r}",
            )

    def echo(self):
        """Plain-dict copy embedded into every report."""
        return {
            "name": self.name,
            "sizes": list(self.sizes),
            "experiments": list(self.experiments),
            "state": None
            if self.state is None
            else {
                "family": self.state.family,
                "params": dict(self.state.params),
                "file": self.state.file,
            },
            "params": asdict(self.params),
            "output": {"path": self.output_path, "format": self.output_format},
        }


def _check_keys(obj, allowed, where):
    _require(isinstance(obj, dict), f"{where} must be an object")
    unknown = set(obj) - set(allowed)
    _require(not unknown, f"unknown key(s) {sorted(unknown)} in {where}")


def _typed(obj, key, types, where, default=None):
    if key not in obj or obj[key] is None:
        return default
    val = obj[key]
    _require(isinstance(val, types) and not isinstance(val, bool), f"{where}.{key} has the wrong type")
    return val


def validate_scenario(raw):
    """Turn a parsed JSON object into a Scenario, rejecting anything odd."""
    _check_keys(raw, ("name", "state", "sizes", "experiments", "params", "output"), "scenario")
    name = _typed(raw, "name", str, "scenario")
    _require(name, "scenario.name is required")

    _require("experiments" in raw, "scenario.experiments is required")
    experiments = raw["experiments"]
    _require(
        isinstance(experiments, list) and experiments, "scenario.experiments must be a non-empty list"
    )
    for e in experiments:
        _require(e in EXPERIMENTS, f"unknown experiment {e!r}; choose from {EXPERIMENTS}")
    _require(len(set(experiments)) == len(experiments), "duplicate experiments")

    _require("sizes" in raw, "scenario.sizes is required")
    sizes = raw["sizes"]
    _require(
        isinstance(sizes, list) and all(isinstance(n, int) and not isinstance(n, bool) for n in sizes),
        "scenario.sizes must be a list of integers",
    )

    state = None
    if any(e in _STATEFUL_EXPERIMENTS for e in experiments):
        _require("state" in raw and raw["state"] is not None, "scenario.state is required for this experiment set")
    if raw.get("state") is not None:
        sobj = raw["state"]
        _check_keys(sobj, ("family", "params", "file"), "scenario.state")
        family = _typed(sobj, "family", str, "scenario.state")
        file_path = _typed(sobj, "file", str, "scenario.state")
        _require(
            (family is None) != (file_path is None),
            "scenario.state needs exactly one of 'family' or 'file'",
        )
        sparams = sobj.get("params") or {}
        _require(isinstance(sparams, dict), "scenario.state.params must be an object")
        if family is None:
            _require(not sparams, "scenario.state.file takes no params")
        else:
            check_state_params(family, sparams)
        state = StateSource(family=family, params=dict(sparams), file=file_path)

    pobj = raw.get("params") or {}
    _check_keys(pobj, tuple(PARAM_TYPES), "scenario.params")
    given = {}
    for key, val in pobj.items():
        if val is None:
            continue
        if PARAM_TYPES[key] is str:
            _require(isinstance(val, str), f"params.{key} must be a string")
        elif PARAM_TYPES[key] is int:
            _require(isinstance(val, int) and not isinstance(val, bool), f"params.{key} must be an integer")
        else:
            _require(isinstance(val, (int, float)) and not isinstance(val, bool), f"params.{key} must be a number")
            val = float(val)
        given[key] = val
    params = ScenarioParams(**given)
    _require(0 <= params.seed < 2**64, "params.seed must fit in 64 bits")

    output_path = None
    output_format = "both"
    if raw.get("output") is not None:
        oobj = raw["output"]
        _check_keys(oobj, ("path", "format"), "scenario.output")
        output_path = _typed(oobj, "path", str, "scenario.output")
        output_format = _typed(oobj, "format", str, "scenario.output", "both")
        _require(output_format in FORMATS, f"output.format must be one of {FORMATS}")

    return Scenario(
        name=name,
        sizes=tuple(sizes),
        experiments=tuple(experiments),
        state=state,
        params=params,
        output_path=output_path,
        output_format=output_format,
    )


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"scenario file is not valid JSON: {exc}") from exc
    return validate_scenario(raw)
