"""Command-line front end.

Subcommands: classify, cluster, decohere, measure, ground,
symmetry-breaking, and run <scenario-file>.  Every subcommand but run
stands for the one-experiment scenario file its flags spell out: each
param flag is one scenario field and defaults to unset, so only the
flags given enter that raw scenario and ``ScenarioParams`` holds every
default.  On the state subcommands (classify, cluster, decohere,
measure) --k/--theta/--phi/--method/--j/--h/--b-field are params of the
chosen state family; on ground --model/--delta/--j/--h/--b-field and
on symmetry-breaking --j/--h/--method (how the pure-phase vacuum is
made) are scenario params.  symmetry-breaking takes no --model or
--b-field: it is defined for the transverse-ising model at B = 0.
``validate_scenario`` checks the raw scenario and ``run_scenario`` runs
it exactly as for ``run``.  Exit codes: 0 success, 2 validation error,
3 numerical error, 4 capability (size cap) error.
"""

import argparse
import sys

from .errors import MacrostabError, ValidationError
from .report import dump_structured
from .runner import run_scenario, write_report_files
from .scenario import _STATEFUL_EXPERIMENTS, CHOICES, FAMILY_PARAMS, FORMATS, PARAM_TYPES, load_scenario, validate_scenario

# each subcommand's help and the scenario params its own flags set, besides seed and geometry
_COMMANDS = {
    "classify": ("AFS/NFS scaling of the maximal additive fluctuation", ()),
    "cluster": ("normalized correlations and Omega(eps)", ("epsilon",)),
    "decohere": ("dephasing rates and their size scaling", ("kappa", "kernel", "axis", "xi", "n_traj", "horizon")),
    "measure": ("stability against local measurements", ("epsilon", "varepsilon", "min_distance")),
    "ground": ("iterative ground states of a spin-chain model", ("model", "delta", "J", "h", "B")),
    "symmetry-breaking": ("symmetric ground state versus pure-phase vacuum", ("kappa", "nfs_factor", "J", "h", "method")),
}
# the params of every state family, by type; the family checks values and choices
_STATE_TYPES = {
    key: kind if kind in (int, float) else str for params in FAMILY_PARAMS.values() for key, kind in params.items()
}


def _flag(name):
    return "--b-field" if name == "B" else "--" + name.lower().replace("_", "-")


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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="macrostab",
        description="Spin-chain fluctuation, cluster-property, decoherence and "
        "measurement-stability experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, own) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--sizes", required=True, help="size sweep, a:b:step or comma list")
        p.add_argument("--out", help="output base path (writes <out>.json / CSVs)")
        p.add_argument("--format", choices=FORMATS)
        for name in ("seed", "geometry") + own:
            p.add_argument(
                _flag(name), dest=name, type=PARAM_TYPES[name], choices=CHOICES.get(name),
                help="0 runs analytic rates only" if name == "n_traj" else None,
            )
        if command in _STATEFUL_EXPERIMENTS:
            p.add_argument("--state", default="ghz", help="state family name, or 'catalog'")
            p.add_argument("--state-file", help="state file (overrides --state, takes no params)")
            for name, kind in _STATE_TYPES.items():
                p.add_argument(_flag(name), dest=name, type=kind, help="param of the --state family")

    p = sub.add_parser("run", help="execute a scenario file")
    p.add_argument("scenario", help="path to a JSON scenario")
    return parser


def _given(args, names):
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _scenario_from_args(args):
    """The scenario file a subcommand stands for, validated like one."""
    raw = {
        "name": args.command,
        "sizes": parse_sizes(args.sizes),
        "experiments": [args.command],
        "params": _given(args, ("seed", "geometry") + _COMMANDS[args.command][1]),
        "output": {"path": args.out, "format": args.format},
    }
    if args.command in _STATEFUL_EXPERIMENTS:
        source = {"file": args.state_file} if args.state_file else {"family": args.state}
        raw["state"] = {**source, "params": _given(args, _STATE_TYPES)}
    return validate_scenario(raw)


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
            sys.stdout.write(dump_structured(report))
        else:
            for key, verdict in sorted(report["verdicts"].items()):
                print(f"{key}: {verdict}")
            for path in written:
                print(f"wrote {path}", file=sys.stderr)
        return 0
    except MacrostabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
