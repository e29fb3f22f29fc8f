"""Command-line entry point.

Subcommands:

  run <config-file> [--set section.key=value ...]   run one experiment
  list                                              list known experiments
  validate <config-file>                            check a config, no run

Exit codes: 0 when the run completed and every recorded assertion passed,
1 when the run completed but an assertion failed, 2 on any error
(configuration, numeric, or unexpected; a run records it in its manifest).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .config import apply_overrides, load_config
from .experiments import list_experiments, run_experiment, validate_experiment

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monosee",
        description="experiments for monotone stochastic evolution "
                    "equations: forward solves, backward solves, "
                    "iteration demos, and comparison-bound tables")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config")
    run_p.add_argument("config", help="path to an INI experiment config")
    run_p.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="SECTION.KEY=VALUE",
                       help="override one config value (repeatable)")

    sub.add_parser("list", help="list the known experiments")

    val_p = sub.add_parser("validate",
                           help="validate a config without running it")
    val_p.add_argument("config", help="path to an INI experiment config")
    val_p.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="SECTION.KEY=VALUE",
                       help="override one config value (repeatable)")
    return parser


def _load(path: str, overrides: List[str]):
    config = load_config(path)
    if overrides:
        config = apply_overrides(config, overrides)
    return config


def _cmd_run(args) -> int:
    config = _load(args.config, args.overrides)
    result = run_experiment(config)
    print(f"{result.experiment}: artifacts in {result.out_dir}")
    for a in result.outcome.assertions:
        mark = "PASS" if a.passed else "FAIL"
        print(f"  [{mark}] {a.name}: {a.detail}")
    if not result.passed:
        n_bad = sum(1 for a in result.outcome.assertions if not a.passed)
        print(f"{n_bad} assertion(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_list() -> int:
    for line in list_experiments():
        print(line)
    return 0


def _cmd_validate(args) -> int:
    config = _load(args.config, args.overrides)
    problems = validate_experiment(config)
    if problems:
        print(f"{args.config}: invalid for {config.experiment!r}:",
              file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 2
    print(f"{args.config}: ok ({config.experiment})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list":
            return _cmd_list()
        return _cmd_validate(args)
    except Exception as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
