"""Command-line entry point.

Subcommands mirror the experiment names (dashes for underscores), plus
``validate`` and ``list``.  Flags override config-file values; precedence
is flag > file > documented default.  Exit codes: 0 success, 2 config
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from .experiments import (
    EXPERIMENTS,
    ConfigError,
    list_experiments,
    load_config,
    run,
    validate,
)

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), help="table format")
    parser.add_argument("--model", metavar="KIND", help="lattice kind")
    parser.add_argument("--sites", type=int, metavar="N", help="chain sites / 2D side")
    parser.add_argument("--omega", type=float, metavar="W", help="potential slope")
    parser.add_argument(
        "--lambda", dest="lam", type=float, metavar="L", help="rescaling rate"
    )
    parser.add_argument("--alpha", type=float, metavar="A", help="Gaussian width")
    parser.add_argument(
        "--from-run", metavar="DIR", help="prior evolve1d run directory (evolve2d)"
    )


def _overrides(args: argparse.Namespace) -> dict:
    return {
        "model": {
            "kind": args.model,
            "n_sites": args.sites,
            "omega": args.omega,
        },
        "run": {
            "lambda": args.lam,
            "alpha": args.alpha,
            "from_run": args.from_run,
        },
        "output": {
            "directory": args.out,
            "format": args.format,
        },
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starkladder",
        description="Tilted non-Hermitian lattice experiments: complex "
        "Wannier-Stark ladders, Bloch oscillations, pair dynamics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name.replace("_", "-"), help=f"run the {name} experiment")
        _add_common_flags(p)
    p = sub.add_parser("validate", help="check a config without running it")
    p.add_argument("--experiment", choices=EXPERIMENTS)
    _add_common_flags(p)
    sub.add_parser("list", help="catalog of experiments")
    return parser


def main(argv: list | None = None) -> int:
    # Every module is loaded by now, and what the imports left (about 89,000
    # tracked objects, most of them numpy's and SciPy's) lives until the
    # process exits.  Freezing it keeps every later collection, those at
    # interpreter shutdown included, from traversing it again.
    gc.freeze()
    args = build_parser().parse_args(argv)
    command = args.command

    if command == "list":
        for entry in list_experiments():
            print(f"{entry['name']:18s} {entry['demonstrates']}")
            print(f"{'':18s} parameters: {', '.join(entry['parameters']) or 'none'}")
            print(f"{'':18s} lattices: {', '.join(entry['kinds'])}")
            print(f"{'':18s} outputs: {', '.join(entry['outputs'])}")
        return 0

    if command == "validate":
        overrides = _overrides(args)
        if args.experiment:
            overrides["experiment"] = args.experiment
        errors = validate(args.config, overrides)
        if errors:
            for err in errors:
                print(f"config error: {err}", file=sys.stderr)
            return EXIT_CONFIG
        print("ok")
        return 0

    overrides = _overrides(args)
    overrides["experiment"] = command.replace("-", "_")
    try:
        result = run(load_config(args.config, overrides))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # the eigensolver's and reference selection's failures are RuntimeErrors
    except (ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {result['directory']}")
    print(json.dumps(result["checks"], indent=2, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
