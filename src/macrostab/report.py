"""Report assembly and serialization.

The structured report is JSON with sorted keys; rerunning a scenario with
the same seed reproduces it byte for byte except for the
``provenance.wall_time_s`` field.  The runners hand over plain values
(str keys; dicts, lists, tuples, str, int, float, bool and None), which
are written as they are.  Every number in a report and its CSVs is
finite: a non-finite one is a numerical error, not ``NaN`` or ``null``.
Each experiment additionally gets a plot-ready CSV, where ``csv`` writes
floats with ``repr`` and ``None`` as an empty cell.
"""

import csv
import json
import math
from pathlib import Path

from .errors import NumericalError


def build_report(scenario_echo, results, verdicts, provenance):
    return {"scenario": scenario_echo, "results": results, "verdicts": verdicts, "provenance": provenance}


def dump_structured(report):
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"report not written: {exc}") from exc


def write_structured(report, path):
    path = Path(path)
    path.write_text(dump_structured(report), encoding="utf-8")
    return path


def write_experiment_csvs(report, base):
    """One CSV per experiment, plus fidelity series and rho matrices.  Every
    table's cells are checked before any file is written, so a non-finite
    number leaves no CSV behind."""
    base = Path(base)
    results = report.get("results", {})
    tables = []

    if "classify" in results:
        rows = [
            (r["n"], r["max_variance"], r["lambda_max"])
            for r in results["classify"]["per_size"]
        ]
        tables.append((base.parent / f"{base.name}_classify.csv",
                       ["n", "max_variance", "lambda_max"], rows))

    if "cluster" in results:
        per_state = results["cluster"]["per_state"]
        rows = []
        for entry in per_state:
            for r in entry["per_size"]:
                rows.append((entry["label"], r["n"], r["epsilon"], r["omega"]))
        tables.append((base.parent / f"{base.name}_cluster.csv",
                       ["state", "n", "epsilon", "omega"], rows))
        for entry in per_state:
            for r in entry["per_size"]:
                path = base.parent / f"{base.name}_rho_{entry['label']}_N{r['n']}.csv"
                tables.append((path, [f"y{j}" for j in range(r["n"])], r["rho"]))

    if "decohere" in results:
        rows = [
            (r["n"], r["gamma_analytic"], r.get("gamma_trajectory"), r.get("gamma_trajectory_stderr"))
            for r in results["decohere"]["per_size"]
        ]
        tables.append((base.parent / f"{base.name}_decohere.csv",
                       ["n", "gamma_analytic", "gamma_trajectory", "gamma_trajectory_stderr"], rows))
        for r in results["decohere"]["per_size"]:
            fid = r.get("fidelity")
            if fid:
                path = base.parent / f"{base.name}_fidelity_N{r['n']}.csv"
                tables.append((
                    path, ["t", "f_mean", "f_stderr"],
                    list(zip(fid["times"], fid["f_mean"], fid["f_stderr"])),
                ))

    if "measure" in results:
        rows = []
        for entry in results["measure"]["per_state"]:
            for r in entry["per_size"]:
                for p in r["pairs"]:
                    rows.append((entry["label"], r["n"], p["x"], p["y"],
                                 *p["direction_a"], *p["direction_b"], p["a"], p["b"],
                                 p["p_b_given_a"], p["p_b"], p["deviation"]))
        tables.append((
            base.parent / f"{base.name}_measure.csv",
            ["state", "n", "x", "y", "ax", "ay", "az", "bx", "by", "bz",
             "a", "b", "p_b_given_a", "p_b", "deviation"], rows))

    if "symmetry-breaking" in results:
        rows = [
            (r["n"], r["e_symmetric"], r["e_pure_phase"], r["m_symmetric"], r["m_pure_phase"],
             r["fluct_symmetric"], r["fluct_pure_phase"], r["gamma_symmetric"], r["gamma_pure_phase"],
             r["cascade_measurements"])
            for r in results["symmetry-breaking"]["per_size"]
        ]
        tables.append((
            base.parent / f"{base.name}_symmetry_breaking.csv",
            ["n", "e_symmetric", "e_pure_phase", "m_symmetric", "m_pure_phase",
             "fluct_symmetric", "fluct_pure_phase", "gamma_symmetric", "gamma_pure_phase",
             "cascade_measurements"], rows))

    if "ground" in results:
        rows = [
            (r["n"], r["energies"][0], r["energies"][-1], r["residuals"][0],
             r["magnetization"], r["max_fluctuation"])
            for r in results["ground"]["per_size"]
        ]
        tables.append((base.parent / f"{base.name}_ground.csv",
                       ["n", "e0", "e1", "residual0", "magnetization", "max_fluctuation"], rows))

    for path, _, rows in tables:
        bad = [cell for row in rows for cell in row if isinstance(cell, float) and not math.isfinite(cell)]
        if bad:
            raise NumericalError(f"{path.name} not written: non-finite number {bad[0]!r}")
    for path, header, rows in tables:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return [path for path, _, _ in tables]
