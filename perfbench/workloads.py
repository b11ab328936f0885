"""The four benchmark workloads, as the scenario files a CLI user would run.

Each workload is one ``macrostab run`` scenario; the benchmark seed becomes
the scenario ``seed``, which keys the trajectory noise streams.  Only the
decoherence workloads draw random numbers, so the inputs of
``catalog-measure`` and ``symmetry-breaking`` do not depend on the seed.

The sizes are smaller than the README examples so that every run fits the
benchmark's time budget while the measurement sweep costs about 0.33 s per
site pair and each trajectory step runs in a Python loop:

* ``catalog-measure`` runs the whole 8-family correspondence catalog at
  N = 2, 3, 4 (56 pair searches, about 18 s).  N = 4, 6, 8 would take
  152 pair searches (about 50 s).  At these sizes the pure-phase vacuum is
  measurement-stable without the cluster property, so the correspondence
  verdict reads false.
* the two ``decohere`` workloads keep N = 4, 6, 8 and the CLI's automatic
  step and horizon (400 recorded steps), with the minimum ensemble of 100
  trajectories (about 16 s).
"""

DEFAULT_SEED = 12345

WORKLOADS = {
    "catalog-measure": {
        "why": "cluster and measurement-stability verdicts over the state catalog; "
        "the measurement sweep takes nearly all the time",
        "seeded": False,
        "scenario": {
            "state": {"family": "catalog"},
            "sizes": [2, 3, 4],
            "experiments": ["cluster", "measure"],
            "params": {"epsilon": 0.1, "varepsilon": 0.05},
        },
    },
    "decohere-ghz": {
        "why": "trajectory ensemble of a GHZ state under collective z noise; "
        "the state occupies 2 states of the coupling eigenbasis",
        "seeded": True,
        "scenario": {
            "state": {"family": "ghz"},
            "sizes": [4, 6, 8],
            "experiments": ["decohere"],
            "params": {"kappa": 0.01, "kernel": "collective", "axis": "z", "n_traj": 100},
        },
    },
    "decohere-dense": {
        "why": "trajectory ensemble of a half-filled Dicke state under exponentially "
        "correlated x noise; full support in the coupling eigenbasis",
        "seeded": True,
        "scenario": {
            "state": {"family": "dicke-half"},
            "sizes": [4, 6, 8],
            "experiments": ["decohere"],
            "params": {
                "kappa": 0.01, "kernel": "exponential", "xi": 2.0, "axis": "x", "n_traj": 100,
            },
        },
    },
    "symmetry-breaking": {
        "why": "TFIM ground states, pure-phase vacua and two-point tables up to N = 14; "
        "no measurement sweep and no trajectories",
        "seeded": False,
        "scenario": {
            "sizes": [6, 8, 10, 12, 14],
            "experiments": ["symmetry-breaking"],
            "params": {"model": "transverse-ising", "J": 1.0, "h": 0.1, "kappa": 0.01},
        },
    },
}


def scenario_for(workload, seed, output_path):
    """Scenario file contents for one workload and benchmark seed."""
    spec = WORKLOADS[workload]["scenario"]
    scenario = {
        "name": f"perfbench-{workload}",
        "sizes": list(spec["sizes"]),
        "experiments": list(spec["experiments"]),
        "params": dict(spec["params"], seed=seed),
        "output": {"path": output_path, "format": "both"},
    }
    if "state" in spec:
        scenario["state"] = dict(spec["state"])
    return scenario
