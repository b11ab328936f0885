import argparse
import inspect
import json
import math
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import macrostab.analyzer
import macrostab.catalog
import macrostab.cluster
import macrostab.ground
import macrostab.measure
import macrostab.operators
import macrostab.rates
from macrostab import runner
from macrostab.cli import _scenario_from_args, build_parser, main, parse_sizes
from macrostab.errors import CapabilityError, ValidationError
from macrostab.lattice import LatticeSpec
from macrostab.scenario import FAMILY_PARAMS, Scenario, ScenarioParams, StateSource, load_scenario, validate_scenario
from macrostab.stateio import export_state
from macrostab.states import make_ghz
from conftest import subprocess_env


def run_cli(args, env_extra=None, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "macrostab", *args],
        capture_output=True, text=True, env=subprocess_env(env_extra), cwd=cwd,
    )


class TestScenarioValidation:
    def base(self):
        return {
            "name": "t",
            "state": {"family": "ghz"},
            "sizes": [4, 6, 8],
            "experiments": ["classify"],
        }

    def test_accepts_minimal(self):
        s = validate_scenario(self.base())
        assert s.sizes == (4, 6, 8)
        assert s.params.seed == 12345

    def test_unknown_top_level_key(self):
        raw = self.base()
        raw["extra"] = 1
        with pytest.raises(ValidationError):
            validate_scenario(raw)

    def test_unknown_param_key(self):
        raw = self.base()
        raw["params"] = {"kapa": 0.01}
        with pytest.raises(ValidationError):
            validate_scenario(raw)

    def test_unknown_method_and_model(self):
        for params in ({"method": "nosuch"}, {"model": "nosuch"}):
            raw = self.base()
            raw["params"] = params
            with pytest.raises(ValidationError):
                validate_scenario(raw)

    def test_unset_field_follows_the_model(self):
        raw = self.base()
        assert validate_scenario(raw).params.h == 0.1
        raw["params"] = {"model": "xxz"}
        assert validate_scenario(raw).params.h == 0.0
        raw["params"] = {"model": "xxz", "h": 0.3}
        assert validate_scenario(raw).params.h == 0.3

    def test_unknown_experiment(self):
        raw = self.base()
        raw["experiments"] = ["classify", "teleport"]
        with pytest.raises(ValidationError):
            validate_scenario(raw)

    def test_sizes_must_ascend(self):
        for sizes in ([6, 4, 8], [8, 4, 6], [4, 4, 6], []):
            raw = self.base()
            raw["sizes"] = sizes
            with pytest.raises(ValidationError):
                validate_scenario(raw)

    def test_scaling_needs_three_sizes(self):
        raw = self.base()
        raw["sizes"] = [4, 6]
        with pytest.raises(ValidationError):
            validate_scenario(raw)

    def test_state_required_for_classify(self):
        raw = self.base()
        del raw["state"]
        with pytest.raises(ValidationError):
            validate_scenario(raw)

    def test_family_and_file_exclusive(self):
        raw = self.base()
        raw["state"] = {"family": "ghz", "file": "x.state"}
        with pytest.raises(ValidationError):
            validate_scenario(raw)

    def test_n_traj_floor(self):
        raw = self.base()
        raw["params"] = {"n_traj": 10}
        with pytest.raises(ValidationError):
            validate_scenario(raw)

    def test_threshold_ranges(self):
        bad = [{"epsilon": 2.0}, {"epsilon": 0.0}, {"varepsilon": 1.0}, {"varepsilon": -0.5},
               {"min_distance": 0}, {"min_distance": 4}]
        for params in bad:
            raw = self.base()
            raw["experiments"] = ["cluster", "measure"]
            raw["params"] = params
            with pytest.raises(ValidationError):
                validate_scenario(raw)
        raw = self.base()
        raw["experiments"] = ["measure"]
        raw["params"] = {"min_distance": 3}
        assert validate_scenario(raw).params.min_distance == 3
        # a ring of 4 sites has no pair more than 2 apart
        raw["params"] = {"min_distance": 3, "geometry": "periodic-chain"}
        with pytest.raises(ValidationError):
            validate_scenario(raw)
        raw["params"] = {"min_distance": 2, "geometry": "periodic-chain"}
        assert validate_scenario(raw).params.min_distance == 2


def test_parse_sizes():
    assert parse_sizes("4:12:2") == [4, 6, 8, 10, 12]
    assert parse_sizes("4,7,9") == [4, 7, 9]
    assert parse_sizes("5") == [5]
    with pytest.raises(ValidationError):
        parse_sizes("4:2:1")
    with pytest.raises(ValidationError):
        parse_sizes("abc")
    # comma lists parse in the given order; a Scenario rejects any that do not ascend
    assert parse_sizes("8,4,6") == [8, 4, 6]
    for text in ("8,4,6", "4,4,6"):
        with pytest.raises(ValidationError):
            Scenario("measure", tuple(parse_sizes(text)), ("measure",), StateSource(family="ghz"))


# each input a scenario file rejects, given to a Scenario built in code; a
# callable defers a nested class that checks itself to the raises block
_BAD_IN_CODE = {
    "unknown-experiment": {"experiments": ("classify", "teleport")},
    "repeated-experiment": {"experiments": ("classify", "classify")},
    "no-state": {"experiments": ("cluster",), "state": None},
    "format": {"output_format": "xml"},
    "empty-name": {"name": ""},
    "seed": lambda: {"params": ScenarioParams(seed=-1)},
    "family-and-file": lambda: {"state": StateSource(family="ghz", file="g.state")},
    "ghz-with-k": lambda: {"state": StateSource(family="ghz", params={"k": 2})},
    "bool-size": {"sizes": (True, 4, 6)},
}


@pytest.mark.parametrize("bad", list(_BAD_IN_CODE.values()), ids=list(_BAD_IN_CODE))
def test_scenario_built_in_code_is_checked_like_a_file(bad):
    good = {"name": "t", "sizes": (4, 6, 8), "experiments": ("classify",), "state": StateSource(family="ghz")}
    assert Scenario(**good).experiments == ("classify",)
    with pytest.raises(ValidationError):
        Scenario(**{**good, **(bad() if callable(bad) else bad)})


def test_report_echo_is_a_scenario_file(tmp_path):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({
        "name": "echo", "state": {"family": "tfim-ground", "params": {"h": 0.3}}, "sizes": [4, 6],
        "experiments": ["cluster"], "params": {"epsilon": 0.2, "kappa": 1, "seed": 7},
        "output": {"path": str(tmp_path / "rep"), "format": "structured"},
    }))
    assert main(["run", str(path)]) == 0
    echo = json.loads((tmp_path / "rep.json").read_text())["scenario"]
    again = validate_scenario(echo).echo()
    assert json.loads(json.dumps(again)) == echo
    assert validate_scenario(again).echo() == again
    # the output fields are read from the output object only
    for key in ("output_path", "output.path"):
        with pytest.raises(ValidationError, match=re.escape(f"['{key}']")):
            validate_scenario({**echo, key: "elsewhere"})
    # a wrong type names the file's key
    for section, key in (("output", "path"), ("state", "family"), ("params", "kappa")):
        with pytest.raises(ValidationError, match=re.escape(f"scenario.{section}.{key} ")):
            validate_scenario({**echo, section: {**echo[section], key: ["x"]}})


def test_scenario_echoes_the_same_bytes_from_code_file_and_flags(tmp_path):
    # int values for float fields, also under state.params, are stored as floats
    in_code = Scenario(
        "decohere", (4, 6, 8), ("decohere",), StateSource(family="tfim-ground", params={"J": 1, "h": 2}),
        ScenarioParams(kappa=1, horizon=3, n_traj=100),
    )
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({
        "name": "decohere", "state": {"family": "tfim-ground", "params": {"J": 1, "h": 2}}, "sizes": [4, 6, 8],
        "experiments": ["decohere"], "params": {"kappa": 1, "horizon": 3, "n_traj": 100},
    }))
    argv = ["decohere", "--state", "tfim-ground", "--j", "1", "--h", "2", "--sizes", "4:8:2",
            "--kappa", "1", "--horizon", "3", "--n-traj", "100"]
    from_flags = _scenario_from_args(build_parser().parse_args(argv))
    echoes = [json.dumps(s.echo()) for s in (in_code, load_scenario(path), from_flags)]
    assert echoes[0] == echoes[1] == echoes[2]
    assert '"J": 1.0, "h": 2.0' in echoes[0] and '"kappa": 1.0' in echoes[0]


def test_readme_lists_every_scenario_param():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listing = re.search(r"`params` accepts:(.*?)\.\s", readme, re.S).group(1)
    assert re.findall(r"`(\w+)`", listing) == [f.name for f in fields(ScenarioParams)]


def _refuse(*args, **kwargs):
    raise AssertionError("state built or imported despite invalid input")


@pytest.mark.parametrize(
    "experiment,param",
    [("decohere", {"n_traj": 150.5}), ("decohere", {"seed": 1.5}), ("decohere", {"seed": True}),
     ("measure", {"min_distance": 1.5})],
    ids=["float-n_traj", "float-seed", "bool-seed", "float-min_distance"],
)
def test_params_built_in_code_are_type_checked_before_any_state(experiment, param, monkeypatch):
    # an int field takes no float or bool, as in a scenario file; a float field takes an int
    monkeypatch.setattr(runner, "build_state", _refuse)
    with pytest.raises(ValidationError, match=f"params.{next(iter(param))} must be int"):
        runner.run_scenario(Scenario("t", (4, 6, 8), (experiment,), StateSource(family="ghz"), ScenarioParams(**param)))
    assert ScenarioParams(kappa=1, horizon=None).kappa == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--state", "catalog", "--sizes", "4:12:2", "--epsilon", "2"],
        ["measure", "--state", "ghz", "--sizes", "8,4,6"],
        ["measure", "--state", "ghz", "--sizes", "4,4,6"],
        ["measure", "--state", "ghz", "--sizes", "4:8:2", "--varepsilon", "1"],
        ["measure", "--state", "ghz", "--sizes", "4:8:2", "--min-distance", "4"],
        ["measure", "--state", "product-up", "--sizes", "1"],
        ["measure", "--state-file", "g.state", "--sizes", "4", "--epsilon", "0"],
        ["classify", "--state", "ghz", "--sizes", "4:6:2"],
        ["classify", "--state", "catalog", "--sizes", "4:8:2"],
        ["decohere", "--state", "catalog", "--sizes", "4:8:2", "--n-traj", "0"],
        ["decohere", "--state", "ghz", "--sizes", "4:8:2", "--kappa", "0"],
        ["decohere", "--state", "ghz", "--sizes", "4:8:2", "--n-traj", "50"],
        ["decohere", "--state", "ghz", "--sizes", "4:8:2", "--horizon", "-5"],
        ["decohere", "--state", "ghz", "--sizes", "4:8:2", "--horizon", "0"],
        ["decohere", "--state", "ghz", "--sizes", "4:8:2", "--horizon", "nan"],
        ["decohere", "--state", "ghz", "--sizes", "4:8:2", "--horizon", "inf"],
        ["decohere", "--state", "ghz", "--sizes", "4:8:2", "--kernel", "exponential", "--xi", "-1"],
        ["decohere", "--state", "ghz", "--sizes", "4:8:2", "--kernel", "exponential", "--xi", "nan"],
        ["symmetry-breaking", "--sizes", "4:8:2", "--nfs-factor", "-1"],
        ["symmetry-breaking", "--sizes", "4:8:2", "--nfs-factor", "nan"],
        ["decohere", "--state", "ghz", "--sizes", "4:12:2", "--seed", "-1"],
        ["cluster", "--state", "ghz", "--sizes", "4:8:2", "--seed", "-5"],
        ["cluster", "--state", "nosuch", "--sizes", "4:8:2"],
        ["cluster", "--state", "ghz", "--sizes", "4:8:2", "--k", "2"],
        ["measure", "--state", "pure-phase", "--sizes", "4", "--method", "nosuch"],
        ["decohere", "--state", "ghz", "--sizes", "4:8:2", "--horizon", "1e-322"],
        # state flags are params of the chosen family, and only of it
        ["classify", "--state", "ghz", "--sizes", "4:8:2", "--h", "0.7"],
        ["cluster", "--state", "pure-phase", "--sizes", "4:8:2", "--b-field", "0.5"],
        ["cluster", "--state", "tfim-paramagnetic", "--sizes", "4:8:2", "--h", "0.3"],
        ["measure", "--state", "catalog", "--sizes", "4:8:2", "--j", "2"],
        ["measure", "--state-file", "g.state", "--sizes", "4", "--k", "2"],
        # no pair of a 4-site ring lies more than 2 apart
        ["measure", "--state", "ghz", "--geometry", "periodic-chain", "--sizes", "4:8:2", "--min-distance", "3"],
        # every float param must be finite, also one the run would not read
        ["decohere", "--state", "ghz", "--sizes", "4:8:2", "--xi", "inf"],
        # kappa N^2 bounds every rate, so it must fit a float, with trajectories too
        ["decohere", "--state", "ghz", "--sizes", "4:8:2", "--kappa", "1e308"],
    ],
)
def test_invalid_cli_input_exits_before_any_state(argv, monkeypatch):
    monkeypatch.setattr(runner, "build_state", _refuse)
    monkeypatch.setattr(runner, "import_state", _refuse)
    monkeypatch.setattr(runner, "ground_state", _refuse)
    assert main(argv) == 2


@pytest.mark.parametrize(
    "state",
    [
        {"family": "dicke", "params": {"k": "two"}},
        {"family": "dicke", "params": {"k": 2.0}},
        {"family": "dicke"},
        {"family": "catalog", "params": {"k": 2}},
        {"family": "ghz", "params": {"J": 1.0}},
        {"family": "product", "params": {"theta": True}},
        {"family": "tfim-ground", "params": {"h": "0.1"}},
        {"family": "pure-phase", "params": {"method": "nosuch"}},
        {"file": "g.state", "params": {"k": 2}},
        # a float param must be finite and fit a float
        {"family": "product", "params": {"theta": math.inf}},
        {"family": "product", "params": {"theta": 10**400}},
    ],
)
def test_invalid_state_params_exit_before_any_state(state, tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "build_state", _refuse)
    monkeypatch.setattr(runner, "import_state", _refuse)
    monkeypatch.setattr(runner, "ground_state", _refuse)
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(
        {"name": "p", "state": state, "sizes": [4, 5, 6], "experiments": ["cluster"]}
    ))
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize(
    "params",
    [{"J": math.inf}, {"xi": math.nan}, {"kappa": 10**400}],
    ids=["infinite-J", "nan-xi", "400-digit-kappa"],
)
def test_non_finite_or_oversized_float_param_exits_before_any_state(params, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(runner, "build_state", _refuse)
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(
        {"name": "f", "state": {"family": "ghz"}, "sizes": [4, 6, 8], "experiments": ["decohere"], "params": params}
    ))
    assert main(["run", str(path)]) == 2
    assert f"params.{next(iter(params))} " in capsys.readouterr().err


# each check's violation as a scenario file spells it, over a valid cluster
# scenario, and the key its message must name; each exits 2 but a size over
# the site cap, which exits 4.  The scenario is the only place that checks
# these values, so each case is the whole of its check's coverage.
_RANGE_VIOLATIONS = {
    "seed": ({"params": {"seed": -1}}, "scenario.params.seed"),
    "epsilon": ({"params": {"epsilon": 2.0}}, "scenario.params.epsilon"),
    "varepsilon": ({"params": {"varepsilon": 0.0}}, "scenario.params.varepsilon"),
    "n_traj": ({"params": {"n_traj": 50}}, "scenario.params.n_traj"),
    "min_distance": ({"experiments": ["measure"], "params": {"min_distance": 4}}, "scenario.params.min_distance"),
    "kappa": ({"experiments": ["decohere"], "params": {"kappa": 0.0}}, "scenario.params.kappa"),
    "horizon": ({"experiments": ["decohere"], "params": {"horizon": -5.0}}, "scenario.params.horizon"),
    "xi": ({"experiments": ["decohere"], "params": {"kernel": "exponential", "xi": -1.0}}, "scenario.params.xi"),
    "nfs_factor": ({"experiments": ["symmetry-breaking"], "params": {"nfs_factor": -1.0}}, "scenario.params.nfs_factor"),
    "model": ({"experiments": ["symmetry-breaking"], "params": {"model": "xxz"}}, "scenario.params.model"),
    "B": ({"experiments": ["symmetry-breaking"], "params": {"B": 0.1}}, "scenario.params.B"),
    "symmetry-breaking-kappa": ({"experiments": ["symmetry-breaking"], "params": {"kappa": -1.0}}, "scenario.params.kappa"),
    # kappa N^2 bounds every rate, so it must fit a float
    "decohere-kappa-overflow": (
        {"experiments": ["decohere"], "params": {"kappa": 1e308, "n_traj": 0}}, "scenario.params.kappa"
    ),
    "symmetry-breaking-kappa-overflow": (
        {"experiments": ["symmetry-breaking"], "params": {"kappa": 1e308}}, "scenario.params.kappa"
    ),
    "kernel": ({"experiments": ["decohere"], "params": {"kernel": "gaussian"}}, "scenario.params.kernel"),
    "axis": ({"experiments": ["decohere"], "params": {"axis": "q"}}, "scenario.params.axis"),
    "geometry": ({"params": {"geometry": "ring"}}, "scenario.params.geometry"),
    "ground-model": ({"experiments": ["ground"], "params": {"model": "ising"}}, "scenario.params.model"),
    "method": ({"experiments": ["symmetry-breaking"], "params": {"method": "nosuch"}}, "scenario.params.method"),
    "empty-sizes": ({"sizes": []}, "scenario.sizes"),
    "zero-size": ({"sizes": [0, 4]}, "scenario.sizes"),
    "descending-sizes": ({"sizes": [8, 4, 6]}, "scenario.sizes"),
    "site-cap": ({"sizes": [4, 19]}, "scenario.sizes"),
    "measure-one-site": ({"experiments": ["measure"], "sizes": [1, 4]}, "scenario.sizes"),
    "classify-two-sizes": ({"experiments": ["classify"], "sizes": [4, 6]}, "scenario.sizes"),
    "decohere-two-sizes": ({"experiments": ["decohere"], "sizes": [4, 6]}, "scenario.sizes"),
    "classify-catalog": ({"experiments": ["classify"], "state": {"family": "catalog"}}, "scenario.state.family"),
    "unknown-family": ({"state": {"family": "nosuch"}}, "scenario.state.family"),
    "nan-theta": ({"state": {"family": "product", "params": {"theta": math.nan}}}, "scenario.state.params.theta"),
    "dicke-without-k": ({"state": {"family": "dicke"}}, "scenario.state.params.k"),
    "unknown-family-param": ({"state": {"family": "ghz", "params": {"J": 1.0}}}, "scenario.state.params"),
    "unknown-experiment": ({"experiments": ["teleport"]}, "scenario.experiments"),
    "repeated-experiment": ({"experiments": ["cluster", "cluster"]}, "scenario.experiments"),
}


def _scenario_in_code(raw):
    params = ScenarioParams(**raw.get("params", {}))
    state = StateSource(**raw["state"]) if raw.get("state") else None
    return Scenario(raw["name"], tuple(raw["sizes"]), tuple(raw["experiments"]), state, params)


@pytest.mark.parametrize("case", list(_RANGE_VIOLATIONS))
def test_range_checks_name_the_file_key(case, tmp_path, monkeypatch, capsys):
    bad, key = _RANGE_VIOLATIONS[case]
    error = CapabilityError if case == "site-cap" else ValidationError
    raw = {"name": "r", "state": {"family": "ghz"}, "sizes": [4, 6, 8], "experiments": ["cluster"], **bad}
    with pytest.raises(error, match=re.escape(f"{key} ")):
        _scenario_in_code(raw)
    monkeypatch.setattr(runner, "build_state", _refuse)
    monkeypatch.setattr(runner, "ground_state", _refuse)
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path)]) == error.exit_code
    assert f"{key} " in capsys.readouterr().err


# the fit counts time in steps, so no horizon squares to an underflow: a
# kappa whose automatic horizon is ~1e-302 scales the rate and nothing else,
# and so does one whose automatic horizon is ~1e198
def test_huge_kappa_scales_the_trajectory_rate(tmp_path):
    gammas = {}
    for name, kappa in (("small", "0.01"), ("huge", "1e300"), ("tiny", "1e-200")):
        assert main(["decohere", "--state", "ghz", "--sizes", "4:8:2", "--kappa", kappa, "--out", str(tmp_path / name)]) == 0
        rows = json.loads((tmp_path / f"{name}.json").read_text())["results"]["decohere"]["per_size"]
        gammas[name] = [row["gamma_trajectory"] / float(kappa) for row in rows]
    assert len(gammas["small"]) == 3
    for small, huge, tiny in zip(gammas["small"], gammas["huge"], gammas["tiny"]):
        assert huge == pytest.approx(small, rel=1e-12)
        assert tiny == pytest.approx(small, rel=1e-12)


# a state with no decay under the noise reads gamma = 0 at any horizon; the
# decay guard refuses only a positive rate that the window cannot resolve
def test_tiny_horizon_zero_rate_fits_zero(tmp_path):
    out = tmp_path / "rep"
    assert main(["decohere", "--state", "product-up", "--sizes", "4:8:2", "--horizon", "1e-170", "--out", str(out)]) == 0
    rows = json.loads((tmp_path / "rep.json").read_text())["results"]["decohere"]["per_size"]
    assert [row["gamma_trajectory"] for row in rows] == [0.0, 0.0, 0.0]
    # at gamma_analytic = 0 the automatic horizon falls back to 1
    assert main(["decohere", "--state", "product-up", "--sizes", "4:8:2", "--out", str(tmp_path / "auto")]) == 0
    rows = json.loads((tmp_path / "auto.json").read_text())["results"]["decohere"]["per_size"]
    assert [(row["gamma_trajectory"], row["dt"]) for row in rows] == [(0.0, 1 / 400)] * 3


# a family's checks that need N run where its state is built, and name the key
@pytest.mark.parametrize(
    "argv, key",
    [
        (["measure", "--state", "dicke", "--k", "9", "--sizes", "4:8:2"], "scenario.state.params.k"),
        (["measure", "--state", "dicke", "--k", "-1", "--sizes", "4:8:2"], "scenario.state.params.k"),
        (["cluster", "--state", "ghz", "--sizes", "1:3"], "scenario.sizes"),
    ],
    ids=["dicke-k-above-n", "dicke-k-negative", "ghz-one-site"],
)
def test_family_errors_name_their_key_before_any_report(argv, key, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "rep")]) == 2
    assert f"{key} " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# a state-file header is the one size the scenario does not check
@pytest.mark.parametrize(
    "text, code, message",
    [
        ("macrostab-state v1 n_sites=0\n", 2, "state-file header n_sites=0 must be >= 1"),
        ("macrostab-state v1 n_sites=19\n", 4, "state-file header n_sites=19 exceeds the site cap 18"),
        ("macrostab-state v1 n_sites=1\n0 1e200 0.0\n1 1e200 0.0\n", 2, "state file amplitudes are too large"),
        ("macrostab-state v1 n_sites=" + "9" * 5000 + "\n", 2, "state-file header holds an unreadable number"),
    ],
    ids=["zero-sites", "over-the-cap", "overflowing-norm", "5000-digit-size"],
)
def test_state_file_errors_name_the_file(text, code, message, tmp_path, capsys):
    path = tmp_path / "bad.state"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["measure", "--state-file", str(path), "--sizes", "4", "--out", str(tmp_path / "rep")]) == code
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_integer_literal_beyond_the_digit_limit_exits_before_any_state(tmp_path, monkeypatch):
    # json.load raises ValueError past Python's 4,300-digit int conversion limit
    monkeypatch.setattr(runner, "build_state", _refuse)
    path = tmp_path / "scen.json"
    path.write_text(
        '{"name": "s", "state": {"family": "ghz"}, "sizes": [4, 6, 8], '
        '"experiments": ["classify"], "params": {"seed": ' + "9" * 5001 + "}}"
    )
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--state", "ghz", "--sizes", "4:8:2", "--model", "xxz"],
        ["classify", "--state", "ghz", "--sizes", "4:8:2", "--delta", "3"],
        ["symmetry-breaking", "--sizes", "4:8:2", "--delta", "2"],
        ["ground", "--sizes", "4", "--export", "st"],
        # symmetry-breaking is defined for the transverse-ising model at B = 0
        ["symmetry-breaking", "--sizes", "4:8:2", "--model", "xxz"],
        ["symmetry-breaking", "--sizes", "4:8:2", "--b-field", "0.1"],
    ],
)
def test_flags_no_scenario_reads_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


# each subcommand next to the scenario file it stands for; state flags set
# the family's params only
_CLI_FILE_PAIRS = {
    "classify": (
        ["classify", "--state", "ghz", "--sizes", "4:8:2"],
        {"state": {"family": "ghz"}, "sizes": [4, 6, 8]},
    ),
    "classify-j": (
        ["classify", "--state", "tfim-paramagnetic", "--j", "3", "--sizes", "4:8:2"],
        {"state": {"family": "tfim-paramagnetic", "params": {"J": 3.0}}, "sizes": [4, 6, 8]},
    ),
    "cluster": (
        ["cluster", "--state", "tfim-ground", "--h", "0.3", "--sizes", "4:6:2", "--epsilon", "0.2"],
        {"state": {"family": "tfim-ground", "params": {"h": 0.3}}, "sizes": [4, 6], "params": {"epsilon": 0.2}},
    ),
    "decohere": (
        ["decohere", "--state", "ghz", "--sizes", "4:6", "--kernel", "independent", "--n-traj", "100",
         "--seed", "7"],
        {"state": {"family": "ghz"}, "sizes": [4, 5, 6],
         "params": {"kernel": "independent", "n_traj": 100, "seed": 7}},
    ),
    "measure": (
        ["measure", "--state", "dicke", "--k", "2", "--sizes", "5", "--min-distance", "2"],
        {"state": {"family": "dicke", "params": {"k": 2}}, "sizes": [5], "params": {"min_distance": 2}},
    ),
    "ground": (
        ["ground", "--model", "xxz", "--delta", "0.5", "--sizes", "4:6:2"],
        {"sizes": [4, 6], "params": {"model": "xxz", "delta": 0.5}},
    ),
    "symmetry-breaking": (
        ["symmetry-breaking", "--sizes", "4:6:2", "--kappa", "0.02"],
        {"sizes": [4, 6], "params": {"kappa": 0.02}},
    ),
    "symmetry-breaking-method": (
        ["symmetry-breaking", "--sizes", "4:6:2", "--method", "sb-field-limit"],
        {"sizes": [4, 6], "params": {"method": "sb-field-limit"}},
    ),
}


@pytest.mark.parametrize("argv,scenario", list(_CLI_FILE_PAIRS.values()), ids=list(_CLI_FILE_PAIRS))
def test_subcommand_matches_its_scenario_file(argv, scenario, tmp_path):
    out = tmp_path / "out" / "rep"

    def outputs():
        files = {p.name: p.read_bytes() for p in sorted(out.parent.iterdir())}
        files["rep.json"] = _strip_wall_time(files["rep.json"].decode())
        return files

    assert main([*argv, "--out", str(out)]) == 0
    from_cli = outputs()
    raw = {"name": argv[0], "experiments": [argv[0]], "output": {"path": str(out)}, **scenario}
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path)]) == 0
    assert outputs() == from_cli


def _subparsers():
    [action] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", list(_subparsers()))
def test_flags_leave_every_default_to_the_scenario(command):
    # ScenarioParams and the state family hold the defaults; a flag left out
    # leaves its field unset in the scenario the subcommand spells out
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    fields_and_state_params = {f.name for f in fields(ScenarioParams)}.union(*FAMILY_PARAMS.values())
    flags = [a for a in _subparsers()[command]._actions if a.dest in fields_and_state_params]
    assert command == "run" or flags
    for action in flags:
        assert action.default is None, (command, action.option_strings, action.default)


def test_invalid_experiment_later_in_scenario_stops_before_any_state(tmp_path, monkeypatch):
    # a bad symmetry-breaking model stops the run before cluster builds any state
    monkeypatch.setattr(runner, "build_state", _refuse)
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({
        "name": "x", "state": {"family": "catalog"}, "sizes": [4, 6, 8],
        "experiments": ["cluster", "symmetry-breaking"], "params": {"model": "xxz"},
    }))
    assert main(["run", str(path)]) == 2


def _counted(monkeypatch, name):
    calls = []
    original = getattr(runner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, name, wrapper)
    return calls


def test_catalog_states_resolved_once_per_scenario(monkeypatch):
    from macrostab.catalog import correspondence_catalog

    calls = _counted(monkeypatch, "build_state")
    scenario = Scenario("cm", (4, 5, 6), ("cluster", "measure"), StateSource(family="catalog"),
                        ScenarioParams(min_distance=1))
    report = runner.run_scenario(scenario)
    assert len(calls) == 3 * len(correspondence_catalog()) == 24
    assert len(report["results"]["correspondence"]) == len(correspondence_catalog())


def test_ring_paramagnet_has_cluster_property_and_is_measurement_stable():
    # the catalog's tfim-para state on rings; at N = 6 to 10 its next-nearest
    # rho sits on epsilon = 0.1, so the cluster verdict would turn on rounding
    state = StateSource(family="tfim-ground", params={"J": 1.0, "h": 2.0})
    scenario = Scenario("ring", (8, 10, 12), ("cluster", "measure"), state,
                        ScenarioParams(geometry="periodic-chain"))
    report = runner.run_scenario(scenario)
    assert report["verdicts"]["cluster/tfim-ground"] is True
    assert report["verdicts"]["measurement-stable/tfim-ground"] is True
    assert report["verdicts"]["cluster-equals-measurement-stability"] is True
    for row in report["results"]["measure"]["per_state"][0]["per_size"]:
        assert {p["distance"] for p in row["pairs"]} == {row["n"] // 2}


def test_catalog_solves_each_hamiltonian_once(monkeypatch):
    # tfim-ferro and pure-phase share the TFIM at J = 1, h = 0.1; tfim-para
    # has its own: 2 Hamiltonians at each of 3 sizes
    from macrostab.catalog import build_state, correspondence_catalog

    solved = []
    original = macrostab.ground.ground_state

    def counted(ham):
        solved.append(ham.spec)
        return original(ham)

    for module in ("catalog", "ground", "runner"):
        monkeypatch.setattr(getattr(macrostab, module), "ground_state", counted)
    scenario = Scenario("cm", (4, 5, 6), ("cluster", "measure"), StateSource(family="catalog"))
    entries = dict(runner._state_entries(scenario))
    assert len(solved) == len(set(solved)) == 6
    # the shared solve gives every state the bits of its own solve
    for label, family, params in correspondence_catalog():
        for n in scenario.sizes:
            alone = build_state(family, n, params=params).amplitudes
            assert np.array_equal(entries[label][n].amplitudes, alone), (label, n)


def test_sb_field_pure_phase_builds_one_hamiltonian_per_size(monkeypatch):
    # the vacuum is the biased ground state; no unbiased Hamiltonian is built for it
    built = []
    original = macrostab.ground.build_hamiltonian

    def counted(spec):
        built.append(spec)
        return original(spec)

    for module in ("catalog", "ground"):
        monkeypatch.setattr(getattr(macrostab, module), "build_hamiltonian", counted)
    state = StateSource(family="pure-phase", params={"method": "sb-field-limit"})
    runner._state_entries(Scenario("pp", (4, 5, 6), ("cluster",), state))
    assert [(spec.lattice.n_sites, spec.B) for spec in built] == [(4, 0.05), (5, 0.05), (6, 0.05)]


def _count_tables(monkeypatch):
    """Record every two-point table built and every state one is asked for."""
    analyzer = macrostab.analyzer
    built, asked = [], []
    original_build, original_lookup = analyzer.CovarianceMatrix, analyzer.covariance_matrix

    def build(*args):
        built.append(args)
        return original_build(*args)

    def lookup(psi):
        asked.append(psi)
        return original_lookup(psi)

    monkeypatch.setattr(analyzer, "CovarianceMatrix", build)
    for module in ("analyzer", "cluster", "measure", "rates"):
        monkeypatch.setattr(getattr(macrostab, module), "covariance_matrix", lookup)
    return built, asked


def test_symmetry_breaking_builds_one_table_per_state(monkeypatch):
    # the symmetric state, the pure-phase vacuum and each cascade post-state
    built, asked = _count_tables(monkeypatch)
    scenario = Scenario("sb", (4, 6, 8), ("symmetry-breaking",))
    per_size = runner.run_scenario(scenario)["results"]["symmetry-breaking"]["per_size"]
    steps = sum(len(row["cascade"]) for row in per_size)
    assert steps > 0
    assert len(built) == 2 * len(per_size) + steps
    assert len({id(psi) for psi in asked}) == len(built)


def test_catalog_cluster_measure_builds_one_table_per_state(monkeypatch):
    from macrostab.catalog import correspondence_catalog

    built, asked = _count_tables(monkeypatch)
    scenario = Scenario("cm", (4, 5, 6), ("cluster", "measure"), StateSource(family="catalog"),
                        ScenarioParams(min_distance=1))
    runner.run_scenario(scenario)
    assert len(built) == 3 * len(correspondence_catalog()) == 24
    assert len({id(psi) for psi in asked}) == len(built)


def test_decohere_and_catalog_measure_build_no_operator_objects(tmp_path, monkeypatch):
    # noise couples along one Pauli axis, the sweep reads the two-point table
    # and the cascade zeroes half the amplitudes, so no run path constructs a
    # LocalOperator
    def refuse(self, *args):
        raise AssertionError("LocalOperator built")

    monkeypatch.setattr(macrostab.operators.LocalOperator, "__init__", refuse)
    argv = ["decohere", "--state", "dicke-half", "--sizes", "4:8:2", "--axis", "y", "--n-traj", "100"]
    assert main(argv + ["--out", str(tmp_path / "dec")]) == 0
    scenario = Scenario("cm", (4, 5, 6), ("cluster", "measure"), StateSource(family="catalog"))
    assert runner.run_scenario(scenario)["verdicts"]
    assert main(["symmetry-breaking", "--sizes", "6:10:2", "--out", str(tmp_path / "sb")]) == 0
    assert json.loads((tmp_path / "sb.json").read_text())["results"]["symmetry-breaking"]["per_size"][0]["cascade"]


@pytest.mark.parametrize(
    "argv",
    [
        ["ground", "--sizes", "4,6,20"],
        ["cluster", "--state", "catalog", "--sizes", "4,6,20"],
    ],
)
def test_every_size_meets_the_site_cap_before_any_state(argv, tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "build_state", _refuse)
    monkeypatch.setattr(runner, "ground_state", _refuse)
    assert main(argv + ["--out", str(tmp_path / "rep")]) == 4
    assert list(tmp_path.iterdir()) == []


def test_state_file_imported_once(tmp_path, monkeypatch):
    path = tmp_path / "g.state"
    export_state(make_ghz(LatticeSpec(4)), path)
    calls = _counted(monkeypatch, "import_state")
    scenario = Scenario("f", (4,), ("cluster", "measure"), StateSource(file=str(path)))
    report = runner.run_scenario(scenario)
    assert len(calls) == 1
    assert report["verdicts"]["measurement-stable/file"] is False


class TestCliEndToEnd:
    def test_classify_ghz(self, tmp_path):
        out = tmp_path / "rep"
        code = main(["classify", "--state", "ghz", "--sizes", "4:8:2", "--out", str(out)])
        assert code == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["verdicts"]["classification"] == "AFS"
        assert (tmp_path / "rep_classify.csv").exists()

    def test_cluster_product(self, tmp_path):
        out = tmp_path / "rep"
        code = main(["cluster", "--state", "product-plus", "--sizes", "4:8:2", "--out", str(out)])
        assert code == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["verdicts"]["cluster/product-plus"] is True

    def test_decohere_analytic_only(self, tmp_path):
        out = tmp_path / "rep"
        code = main([
            "decohere", "--state", "ghz", "--sizes", "4:8:2", "--n-traj", "0",
            "--kernel", "independent", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["verdicts"]["fragile"] is False
        fit = report["results"]["decohere"]["fit_analytic"]
        assert abs(fit["one_plus_delta"] - 1.0) < 1e-9

    def test_fidelity_series_covers_the_rate_window(self, tmp_path):
        assert main(["decohere", "--state", "ghz", "--sizes", "4:6", "--out", str(tmp_path / "rep")]) == 0
        rows = json.loads((tmp_path / "rep.json").read_text())["results"]["decohere"]["per_size"]
        assert [row["n"] for row in rows] == [4, 5, 6]
        for row in rows:
            lines = (tmp_path / f"rep_fidelity_N{row['n']}.csv").read_text().splitlines()
            assert lines[0] == "t,f_mean,f_stderr" and len(lines) == 1 + 21, row["n"]
            assert float(lines[-1].split(",")[0]) == row["rate_window"], row["n"]

    def test_rate_fit_reads_every_recorded_step(self, tmp_path):
        # at this horizon 20 dt rounds an ulp above 5% of 400 dt, where a fit
        # selecting times <= 0.05 x horizon would drop the last step
        out = tmp_path / "rep"
        assert main(["decohere", "--state", "ghz", "--sizes", "4:8:2", "--horizon", "0.37", "--out", str(out)]) == 0
        rows = json.loads((tmp_path / "rep.json").read_text())["results"]["decohere"]["per_size"]
        assert [row["n"] for row in rows] == [4, 6, 8]
        for row in rows:
            series = row["fidelity"]
            t, f, err = (np.array(series[key][1:]) for key in ("times", "f_mean", "f_stderr"))
            assert t.size == 20 and t[-1] > 0.05 * 0.37, row["n"]
            slope = np.polyfit(t, -np.log(f), 1, w=f / err)[0]
            assert row["gamma_trajectory"] == pytest.approx(slope, rel=1e-12), row["n"]

    def test_tiny_horizon_exits_2_or_fits_a_rate_within_its_error(self, tmp_path):
        out = tmp_path / "rep"
        code = main([
            "decohere", "--state", "ghz", "--sizes", "4:8:2", "--n-traj", "100", "--horizon", "1e-150",
            "--out", str(out),
        ])
        if code == 2:
            return
        assert code == 0
        for row in json.loads((tmp_path / "rep.json").read_text())["results"]["decohere"]["per_size"]:
            stderr = row["gamma_trajectory_stderr"]
            assert stderr > 0, row["n"]
            assert abs(row["gamma_trajectory"] - row["gamma_analytic"]) <= 5 * stderr, row["n"]

    def test_measure_single_size(self, tmp_path):
        out = tmp_path / "rep"
        code = main(["measure", "--state", "ghz", "--sizes", "5", "--out", str(out)])
        assert code == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["verdicts"]["measurement-stable/ghz"] is False

    def test_ground_export_roundtrip(self, tmp_path):
        out = tmp_path / "rep"
        code = main([
            "ground", "--model", "transverse-ising", "--h", "0.5", "--sizes", "4", "--out", str(out),
        ])
        assert code == 0
        from macrostab.stateio import import_state

        psi = import_state(tmp_path / "rep_ground_N4.state")
        assert psi.n_sites == 4
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["results"]["ground"]["per_size"][0]["residuals"][0] <= 1e-9

    def test_ground_scenario_file_writes_its_states(self, tmp_path):
        from macrostab.ground import ground_state
        from macrostab.hamiltonian import HamiltonianSpec, build_hamiltonian
        from macrostab.stateio import import_state

        scen = {
            "name": "xxz", "sizes": [4, 6], "experiments": ["ground"],
            "params": {"model": "xxz", "delta": 0.5},
            "output": {"path": str(tmp_path / "g"), "format": "structured"},
        }
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(scen))
        assert main(["run", str(path)]) == 0
        report = json.loads((tmp_path / "g.json").read_text())
        exported = report["results"]["ground"]["exported"]
        assert exported == [str(tmp_path / f"g_ground_N{n}.state") for n in (4, 6)]
        for n, state_path in zip((4, 6), exported):
            spec = HamiltonianSpec("xxz", LatticeSpec(n), J=1.0, delta=0.5)
            solved = ground_state(build_hamiltonian(spec)).states[0]
            assert np.array_equal(import_state(state_path).amplitudes, solved.amplitudes)

    def test_ground_field_defaults_to_the_models(self, tmp_path):
        from macrostab.ground import ground_state
        from macrostab.hamiltonian import HamiltonianSpec, build_hamiltonian

        for model, field in (("xxz", 0.0), ("transverse-ising", 0.1)):
            out = tmp_path / model
            assert main(["ground", "--model", model, "--j", "1", "--delta", "1", "--sizes", "4:6:2",
                         "--out", str(out), "--format", "structured"]) == 0
            report = json.loads((tmp_path / f"{model}.json").read_text())
            assert report["scenario"]["params"]["h"] == field
            assert report["results"]["ground"]["h"] == field
            for row in report["results"]["ground"]["per_size"]:
                spec = HamiltonianSpec(model, LatticeSpec(row["n"]), J=1.0, h=field, delta=1.0)
                assert row["energies"] == list(ground_state(build_hamiltonian(spec)).energies)

    def test_invalid_args_exit_2(self):
        assert main(["classify", "--state", "ghz", "--sizes", "4:6:2"]) == 2  # two sizes only

    def test_capability_exit_4(self):
        assert main(["classify", "--state", "ghz", "--sizes", "16:20:2"]) == 4

    def test_state_file_mismatch_exit_2(self, tmp_path):
        path = tmp_path / "g.state"
        export_state(make_ghz(LatticeSpec(3)), path)
        code = main(["measure", "--state-file", str(path), "--sizes", "4"])
        assert code == 2

    @pytest.mark.parametrize("kind", ["missing", "directory", "non-ascii"])
    def test_unreadable_state_file_exit_2(self, kind, tmp_path):
        path = tmp_path / "g.state"
        if kind == "directory":
            path.mkdir()
        elif kind == "non-ascii":
            path.write_bytes("macrostab-state v1 n_sites=1\n0 1.0 0.0\n1 0.0 0.0 \u00e9\n".encode("utf-8"))
        assert main(["measure", "--state-file", str(path), "--sizes", "4"]) == 2

    def test_state_file_accepted(self, tmp_path):
        path = tmp_path / "g.state"
        export_state(make_ghz(LatticeSpec(4)), path)
        out = tmp_path / "rep"
        code = main(["measure", "--state-file", str(path), "--sizes", "4", "--out", str(out)])
        assert code == 0
        report = json.loads((tmp_path / "rep.json").read_text())
        assert report["verdicts"]["measurement-stable/file"] is False

    def test_scenario_run(self, tmp_path):
        scen = {
            "name": "mini",
            "state": {"family": "ghz"},
            "sizes": [4, 5, 6],
            "experiments": ["cluster"],
            "params": {"epsilon": 0.1},
            "output": {"path": str(tmp_path / "mini"), "format": "structured"},
        }
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(scen))
        assert main(["run", str(path)]) == 0
        report = json.loads((tmp_path / "mini.json").read_text())
        assert report["verdicts"]["cluster/ghz"] is False

    def test_bad_scenario_json_exit_2(self, tmp_path):
        path = tmp_path / "scen.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2


def _strip_wall_time(text):
    return re.sub(r'"wall_time_s": [0-9eE.+-]+', '"wall_time_s": 0', text)


class TestReproducibility:
    def test_large_ground_states_same_bytes_across_threads(self, tmp_path):
        # from 2^14 entries up BLAS reductions change their last bits with the
        # thread count; the ground-state solver calls BLAS over the 2^N axis only
        # on fixed blocks of 2^12 entries
        commands = (
            ["symmetry-breaking", "--sizes", "12:16:2", "--out", "sb"],
            ["ground", "--model", "xxz", "--j", "1", "--delta", "1", "--sizes", "12:16:2", "--out", "gr"],
        )
        outputs = {}
        for threads in ("1", "2"):
            cwd = tmp_path / threads
            cwd.mkdir()
            for args in commands:
                res = run_cli(args, env_extra={"OPENBLAS_NUM_THREADS": threads}, cwd=cwd)
                assert res.returncode == 0, res.stderr
            # relative --out paths, so the reports name the same files
            outputs[threads] = {
                p.name: _strip_wall_time(p.read_text()) if p.suffix == ".json" else p.read_bytes()
                for p in sorted(cwd.iterdir())
            }
        assert sorted(outputs["1"]) == [
            "gr.json", "gr_ground.csv", "gr_ground_N12.state", "gr_ground_N14.state",
            "gr_ground_N16.state", "sb.json", "sb_symmetry_breaking.csv",
        ]
        assert outputs["1"] == outputs["2"]

    def test_catalog_sweep_same_bytes_across_threads(self, tmp_path):
        # the measurement sweep scores its grid in one BLAS product per block
        # of orderings: N = 8 has 20 orderings at the default min_distance
        # (2 blocks) and 56 at min_distance 1 (4 blocks)
        commands = (
            ["measure", "--state", "catalog", "--sizes", "6:8:2", "--out", "m"],
            ["measure", "--state", "catalog", "--sizes", "6:8:2", "--min-distance", "1", "--out", "m1"],
        )
        outputs = {}
        for threads in ("1", "2"):
            cwd = tmp_path / threads
            cwd.mkdir()
            for args in commands:
                res = run_cli(args, env_extra={"OPENBLAS_NUM_THREADS": threads}, cwd=cwd)
                assert res.returncode == 0, res.stderr
            outputs[threads] = {
                p.name: _strip_wall_time(p.read_text()) if p.suffix == ".json" else p.read_bytes()
                for p in sorted(cwd.iterdir())
            }
        assert sorted(outputs["1"]) == ["m.json", "m1.json", "m1_measure.csv", "m_measure.csv"]
        assert outputs["1"] == outputs["2"]

    def test_full_support_trajectories_same_bytes_across_threads(self, tmp_path):
        # both states fill every row and column of the weight matrix, so the
        # trajectories run the split-site product at k = N / 2: a BLAS product
        # with an inner dimension of up to 2^7
        commands = (
            ["decohere", "--state", "dicke-half", "--sizes", "8:12:2", "--kernel", "exponential",
             "--axis", "x", "--n-traj", "100", "--out", "dh"],
            ["decohere", "--state", "tfim-ground", "--sizes", "10:14:2", "--n-traj", "100", "--out", "tg"],
        )
        outputs = {}
        for threads in ("1", "2"):
            cwd = tmp_path / threads
            cwd.mkdir()
            for args in commands:
                res = run_cli(args, env_extra={"OPENBLAS_NUM_THREADS": threads}, cwd=cwd)
                assert res.returncode == 0, res.stderr
            outputs[threads] = {
                p.name: _strip_wall_time(p.read_text()) if p.suffix == ".json" else p.read_bytes()
                for p in sorted(cwd.iterdir())
            }
        assert len(outputs["1"]) == 2 * (2 + 3)
        assert outputs["1"] == outputs["2"]

    def test_same_seed_same_bytes_across_threads(self, tmp_path):
        # the BLAS thread count is the only one the computation can see
        decohere = {
            "name": "repro",
            "state": {"family": "ghz"},
            "sizes": [4, 5, 6],
            "experiments": ["decohere"],
            "params": {"kappa": 0.01, "kernel": "collective", "n_traj": 120, "seed": 99},
            "output": {"path": "rep", "format": "both"},
        }
        measure = {
            "name": "repro-measure",
            "state": {"family": "catalog"},
            "sizes": [4, 5, 6],
            "experiments": ["cluster", "measure"],
            "params": {"epsilon": 0.1, "varepsilon": 0.05, "min_distance": 1},
            "output": {"path": "rep", "format": "both"},
        }
        reports = {}
        for label, threads, outdir in (("t1", "1", "a"), ("t2", "2", "b"), ("t1b", "1", "c")):
            for name, scen in (("decohere", decohere), ("measure", measure)):
                cwd = tmp_path / outdir / name
                cwd.mkdir(parents=True)
                path = cwd / "scen.json"
                path.write_text(json.dumps(scen))
                res = run_cli(["run", "scen.json"], env_extra={"OPENBLAS_NUM_THREADS": threads}, cwd=cwd)
                assert res.returncode == 0, res.stderr
                reports[label, name] = {
                    "json": _strip_wall_time((cwd / "rep.json").read_text()),
                    "csv": (cwd / f"rep_{name}.csv").read_bytes(),
                }
            reports[label, "decohere"]["fid"] = (tmp_path / outdir / "decohere" / "rep_fidelity_N4.csv").read_bytes()
        for name in ("decohere", "measure"):
            assert reports["t1", name]["json"] == reports["t2", name]["json"]
            assert reports["t1", name]["json"] == reports["t1b", name]["json"]
            assert reports["t1", name]["csv"] == reports["t2", name]["csv"]
        assert reports["t1", "decohere"]["fid"] == reports["t2", "decohere"]["fid"]


def test_import_loads_no_scipy():
    # the Hamiltonian is a numpy matrix-free operator and the solver numpy
    # Lanczos, so neither the package nor its command line needs scipy
    probe = (
        "import sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "import macrostab; print(loaded())\n"
        "import macrostab.cli; print(loaded())\n"
    )
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=subprocess_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "[]"]


# one scenario file per experiment, each setting the params its checks read
_GATE_SCENARIOS = {
    "classify": {"state": {"family": "dicke", "params": {"k": 2}}, "sizes": [4, 6, 8]},
    "cluster": {"state": {"family": "catalog"}, "sizes": [4, 6, 8], "params": {"epsilon": 0.2}},
    "decohere": {
        "state": {"family": "pure-phase", "params": {"method": "sb-field-limit"}},
        "sizes": [4, 6, 8],
        "params": {"kernel": "exponential", "xi": 1.5, "axis": "x", "horizon": 2.0},
    },
    "measure": {"state": {"family": "ghz"}, "sizes": [4], "params": {"min_distance": 2, "geometry": "periodic-chain"}},
    "ground": {"sizes": [4, 6], "params": {"model": "xxz", "delta": 0.5}},
    "symmetry-breaking": {"sizes": [6, 8], "params": {"method": "sb-field-limit", "nfs_factor": 2.0}},
}


def test_checking_a_scenario_loads_no_numerics(tmp_path):
    # the gate defines every value it checks against, so loading a scenario
    # imports only the gate and the two modules it needs, and never numpy
    paths = []
    for experiment, body in _GATE_SCENARIOS.items():
        path = tmp_path / f"{experiment}.json"
        path.write_text(json.dumps({"name": experiment, "experiments": [experiment], **body}))
        paths.append(str(path))
    probe = (
        "import sys\n"
        "from macrostab.scenario import load_scenario\n"
        f"for path in {paths!r}: load_scenario(path)\n"
        "print('numpy' in sys.modules)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'macrostab'))\n"
    )
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=subprocess_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "False", "['macrostab', 'macrostab.errors', 'macrostab.lattice', 'macrostab.scenario']",
    ]


def test_only_trajectories_load_numpy_random():
    # start and probe vectors are counter hashes, so a run that solves for
    # ground states but draws no trajectory noise never imports numpy.random
    probe = (
        "import sys\n"
        "from macrostab.runner import run_scenario\n"
        "from macrostab.scenario import Scenario, ScenarioParams, StateSource\n"
        "def run(sizes, experiments, state=None, **params):\n"
        "    run_scenario(Scenario('probe', sizes, experiments, state, ScenarioParams(**params)))\n"
        "run((6, 8, 10), ('symmetry-breaking',))\n"
        "run((4, 6), ('ground',), model='xxz', B=0.2)\n"
        "run((4, 6), ('cluster', 'measure'), StateSource(family='catalog'))\n"
        "run((4, 6, 8), ('classify',), StateSource(family='tfim-ground', params={'B': 0.1}))\n"
        "run((4, 6, 8), ('classify',), StateSource(family='pure-phase'))\n"
        "print('numpy.random' in sys.modules)\n"
        "run((4, 6, 8), ('decohere',), StateSource(family='ghz'), n_traj=100)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=subprocess_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["False", "True"]


def test_numpy_random_appears_only_in_rates():
    src = Path(macrostab.__file__).resolve().parent
    users = sorted(p.name for p in src.glob("*.py") if re.search(r"\b(np|numpy)\.random\b", p.read_text(encoding="utf-8")))
    assert users == ["rates.py"]


def test_projection_postulate_oracle_stays_out_of_every_run_path():
    # only the oracle's own modules name it; the benchmark's pair check
    # imports it from them
    src = Path(macrostab.__file__).resolve().parent
    for name in ("LocalOperator", "conditional_distribution"):
        users = sorted(p.name for p in src.glob("*.py") if re.search(rf"\b{name}\b", p.read_text(encoding="utf-8")))
        assert set(users) <= {"measure.py", "operators.py"}, name
        assert not re.search(rf"\b{name}\b", inspect.getsource(macrostab.measure.measurement_cascade)), name
