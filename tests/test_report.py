"""The report contract: runners hand over plain values that ``json`` and
``csv`` write as they are, with no conversion pass in between."""

import csv
import json
import math

import pytest

from macrostab import runner
from macrostab.cli import main
from macrostab.errors import NumericalError
from macrostab.report import dump_structured, write_experiment_csvs
from macrostab.scenario import validate_scenario

# the plain types a report may hold; exact types, so that numpy scalars
# (np.float64 subclasses float) and other subclasses do not pass
_PLAIN = (dict, list, tuple, str, int, float, bool, type(None))

_ONE_RUN_EACH = {
    "classify": {"state": {"family": "ghz"}, "sizes": [4, 5, 6], "experiments": ["classify"]},
    "cluster": {"state": {"family": "catalog"}, "sizes": [4, 5, 6], "experiments": ["cluster"]},
    # separations of 10 and 11 occur at N = 12 with min_distance 1
    "measure": {
        "state": {"family": "catalog"}, "sizes": [12], "experiments": ["measure"],
        "params": {"min_distance": 1},
    },
    "decohere": {
        "state": {"family": "ghz"}, "sizes": [4, 5, 6], "experiments": ["decohere"],
        "params": {"n_traj": 100},
    },
    "decohere-analytic": {
        "state": {"family": "ghz"}, "sizes": [4, 5, 6], "experiments": ["decohere"],
        "params": {"n_traj": 0},
    },
    "ground": {"sizes": [4, 6], "experiments": ["ground"], "params": {"model": "xxz"}},
    "symmetry-breaking": {"sizes": [4, 6], "experiments": ["symmetry-breaking"]},
}


def _contract_problems(value, path="report"):
    if type(value) not in _PLAIN:
        return [f"{path}: {type(value).__name__}"]
    if type(value) is float and not math.isfinite(value):
        return [f"{path}: {value!r}"]
    if type(value) is dict:
        problems = [f"{path}: key {key!r}" for key in value if type(key) is not str]
        for key, item in value.items():
            problems += _contract_problems(item, f"{path}[{key!r}]")
        return problems
    if type(value) in (list, tuple):
        return [p for k, item in enumerate(value) for p in _contract_problems(item, f"{path}[{k}]")]
    return []


@pytest.mark.parametrize("raw", list(_ONE_RUN_EACH.values()), ids=list(_ONE_RUN_EACH))
def test_report_holds_only_plain_finite_values_under_str_keys(raw):
    report = runner.run_scenario(validate_scenario({"name": "contract", **raw}))
    assert _contract_problems(report) == []


def test_separation_keys_order_as_text():
    report = runner.run_scenario(validate_scenario({"name": "keys", **_ONE_RUN_EACH["measure"]}))
    written = json.loads(dump_structured(report))["results"]["measure"]["per_state"][0]["per_size"][0]
    assert list(written["max_deviation_at_distance"]) == sorted(str(d) for d in range(1, 12))


def test_non_finite_number_is_a_numerical_error():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(NumericalError):
            dump_structured({"results": {"x": [1.0, bad]}})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_csv_refuses_a_non_finite_number(bad, tmp_path):
    # with --format csv no JSON is dumped, so the CSV writer checks its own cells
    report = {"results": {"classify": {"per_size": [{"n": 4, "max_variance": 1.0, "lambda_max": bad}]}}}
    with pytest.raises(NumericalError):
        write_experiment_csvs(report, tmp_path / "rep")
    assert list(tmp_path.iterdir()) == []


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _cell(value):
    return "" if value is None else repr(value) if type(value) is float else str(value)


@pytest.mark.parametrize("n_traj", ["100", "0"])
def test_decohere_csv_cells_are_the_report_numbers(n_traj, tmp_path):
    out = tmp_path / "rep"
    assert main(["decohere", "--state", "ghz", "--sizes", "4:6", "--n-traj", n_traj, "--out", str(out)]) == 0
    per_size = json.loads((tmp_path / "rep.json").read_text())["results"]["decohere"]["per_size"]
    header, *rows = _rows(tmp_path / "rep_decohere.csv")
    assert header == ["n", "gamma_analytic", "gamma_trajectory", "gamma_trajectory_stderr"]
    assert rows == [[_cell(r.get(key)) for key in header] for r in per_size]
    fidelity_files = sorted(p.name for p in tmp_path.glob("rep_fidelity_N*.csv"))
    if n_traj == "0":
        assert all(row[2:] == ["", ""] for row in rows)
        assert fidelity_files == []
        return
    assert all(cell for row in rows for cell in row)
    assert fidelity_files == [f"rep_fidelity_N{n}.csv" for n in (4, 5, 6)]
    for r in per_size:
        header, *rows = _rows(tmp_path / f"rep_fidelity_N{r['n']}.csv")
        fid = r["fidelity"]
        assert header == ["t", "f_mean", "f_stderr"]
        assert rows == [[_cell(v) for v in values] for values in zip(fid["times"], fid["f_mean"], fid["f_stderr"])]
