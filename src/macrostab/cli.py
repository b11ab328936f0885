"""Command-line front end.

Subcommands: classify, cluster, decohere, measure, ground,
symmetry-breaking, and run <scenario-file>.  Every subcommand but run
stands for the one-experiment scenario file its flags spell out: it
builds that raw scenario, and ``validate_scenario`` checks it and
``run_scenario`` runs it exactly as for ``run``.  Exit codes: 0 success,
2 validation error, 3 numerical error, 4 capability (size cap) error.
"""

import argparse
import json
import sys

from .errors import MacrostabError, ValidationError
from .hamiltonian import MODELS
from .lattice import GEOMETRIES
from .noise import KERNELS
from .operators import PAULI_AXES
from .runner import run_scenario, write_report_files
from .scenario import FORMATS, load_scenario, validate_scenario

_COUPLINGS = ("J", "h", "B")

# the scenario params each subcommand's own flags set, besides seed and geometry
_COMMAND_PARAMS = {
    "classify": _COUPLINGS,
    "cluster": ("epsilon",) + _COUPLINGS,
    "decohere": ("kappa", "kernel", "axis", "xi", "n_traj", "horizon") + _COUPLINGS,
    "measure": ("epsilon", "varepsilon", "min_distance") + _COUPLINGS,
    "ground": ("model", "delta") + _COUPLINGS,
    "symmetry-breaking": ("model", "kappa", "nfs_factor") + _COUPLINGS,
}


def parse_sizes(text):
    """Parse 'a:b:step' (inclusive) or a comma-separated list."""
    text = text.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) == 2:
                parts.append("1")
            if len(parts) != 3:
                raise ValueError
            a, b, step = (int(v) for v in parts)
            if step < 1 or b < a:
                raise ValueError
            return list(range(a, b + 1, step))
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(f"cannot parse sizes {text!r}; use a:b:step or a comma list")


def _add_common(p):
    p.add_argument("--sizes", required=True, help="size sweep, a:b:step or comma list")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--out", default=None, help="output base path (writes <out>.json / CSVs)")
    p.add_argument("--format", choices=FORMATS, default="both")
    p.add_argument("--geometry", choices=GEOMETRIES, default="open-chain")


def _add_state(p):
    p.add_argument("--state", default="ghz", help="state family name, or 'catalog'")
    p.add_argument("--state-file", default=None, help="state file (overrides --state)")
    p.add_argument("--k", type=int, default=None, help="dicke excitation count")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--phi", type=float, default=None)
    p.add_argument("--method", default=None, help="pure-phase construction method")
    _add_couplings(p, h_default=0.1, h_help="transverse field of tfim-ground and pure-phase")


def _add_couplings(p, h_default, h_help):
    p.add_argument("--j", dest="J", type=float, default=1.0)
    p.add_argument("--h", dest="h", type=float, default=h_default, help=h_help)
    p.add_argument("--b-field", dest="B", type=float, default=0.0)


def _add_model(p):
    p.add_argument("--model", choices=MODELS, default="transverse-ising")
    _add_couplings(p, h_default=None, h_help="transverse field (default 0.1 for transverse-ising, 0 for xxz)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="macrostab",
        description="Spin-chain fluctuation, cluster-property, decoherence and "
        "measurement-stability experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="AFS/NFS scaling of the maximal additive fluctuation")
    _add_common(p)
    _add_state(p)

    p = sub.add_parser("cluster", help="normalized correlations and Omega(eps)")
    _add_common(p)
    _add_state(p)
    p.add_argument("--epsilon", type=float, default=0.1)

    p = sub.add_parser("decohere", help="dephasing rates and their size scaling")
    _add_common(p)
    _add_state(p)
    p.add_argument("--kappa", type=float, default=0.01)
    p.add_argument("--kernel", choices=KERNELS, default="collective")
    p.add_argument("--axis", choices=PAULI_AXES, default="z")
    p.add_argument("--xi", type=float, default=2.0)
    p.add_argument("--n-traj", type=int, default=200, help="0 runs analytic rates only")
    p.add_argument("--horizon", type=float, default=None)

    p = sub.add_parser("measure", help="stability against local measurements")
    _add_common(p)
    _add_state(p)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--varepsilon", type=float, default=0.05)
    p.add_argument("--min-distance", type=int, default=None)

    p = sub.add_parser("ground", help="iterative ground states of a spin-chain model")
    _add_common(p)
    _add_model(p)
    p.add_argument("--delta", type=float, default=1.0)

    p = sub.add_parser("symmetry-breaking", help="symmetric ground state versus pure-phase vacuum")
    _add_common(p)
    _add_model(p)
    p.add_argument("--kappa", type=float, default=0.01)
    p.add_argument("--nfs-factor", type=float, default=3.0)

    p = sub.add_parser("run", help="execute a scenario file")
    p.add_argument("scenario", help="path to a JSON scenario")

    return parser


def _state_source(args):
    if args.state_file:
        return {"file": args.state_file}
    params = {}
    for key in ("k", "theta", "phi", "method"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    if args.state in ("tfim-ground", "pure-phase"):
        params.update(J=args.J, h=args.h)
    if args.state == "tfim-ground" and args.B:
        params["B"] = args.B
    return {"family": args.state, "params": params}


def _scenario_from_args(args):
    """The scenario file a subcommand stands for, validated like one."""
    raw = {
        "name": args.command,
        "sizes": parse_sizes(args.sizes),
        "experiments": [args.command],
        "params": {key: getattr(args, key) for key in ("seed", "geometry") + _COMMAND_PARAMS[args.command]},
        "output": {"path": args.out, "format": args.format},
    }
    if hasattr(args, "state"):
        raw["state"] = _state_source(args)
    return validate_scenario(raw)


def _summarize(report, stream):
    verdicts = report.get("verdicts", {})
    for key in sorted(verdicts):
        print(f"{key}: {verdicts[key]}", file=stream)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            scenario = load_scenario(args.scenario)
        else:
            scenario = _scenario_from_args(args)
        report = run_scenario(scenario)
        written = write_report_files(report, scenario)
        if scenario.output_path is None:
            json.dump(report, sys.stdout, sort_keys=True, indent=2)
            print()
        else:
            _summarize(report, sys.stdout)
            for path in written:
                print(f"wrote {path}", file=sys.stderr)
        return 0
    except MacrostabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
