"""Record the verdicts and measurement maxima that the output checks expect.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run from the root of a checkout.  Runs every workload once at the default
seed and writes ``perfbench/reference.json``.  The checks hold later code to
these values, so regenerate the file only where the physics is meant to
change, and say so with the change.
"""

import json
import sys
from pathlib import Path

from macrostab.runner import run_scenario
from macrostab.scenario import validate_scenario

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import REFERENCE_PATH  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, scenario_for  # noqa: E402


def main():
    reference = {}
    for workload in WORKLOADS:
        report = run_scenario(validate_scenario(scenario_for(workload, DEFAULT_SEED, None)))
        entry = {"verdicts": report["verdicts"]}
        if workload == "catalog-measure":
            entry["max_deviation"] = {
                f"{state['label']}/{row['n']}": row["max_deviation"]
                for state in report["results"]["measure"]["per_state"]
                for row in state["per_size"]
            }
        reference[workload] = entry
        print(workload, json.dumps(report["verdicts"], sort_keys=True), flush=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
