"""Command-line harness.

Subcommands mirror the scenario kinds:

    clocklab gedanken box|efield     [--config PATH] [--set key=value ...]
    clocklab classical trajectory|brackets ...
    clocklab quantum moments|bound|optimize ...

Every run writes the scenario CSV plus a JSON run report, prints one line
per self-check, and exits 0 when all checks pass, 1 on a check failure,
2 on a config error (also one the run finds, such as a clock state that
reaches the cone tip), and 3 on a runtime error.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .config import ConfigError, parse_config
from .runner import RunReport, run

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_RUNTIME_ERROR = 3

_SUBCOMMANDS = {
    ("gedanken", "box"): "GEDANKEN_BOX",
    ("gedanken", "efield"): "GEDANKEN_EFIELD",
    ("classical", "trajectory"): "CLASSICAL_TRAJECTORY",
    ("classical", "brackets"): "CLASSICAL_BRACKETS",
    ("quantum", "moments"): "QUANTUM_MOMENTS",
    ("quantum", "bound"): "QUANTUM_BOUND_SWEEP",
    ("quantum", "optimize"): "QUANTUM_OPTIMIZE",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  A parse leaves it
    unchanged: ``--set`` appends to a copy of its default list."""
    parser = argparse.ArgumentParser(
        prog="clocklab",
        description="Proper-time/rest-mass uncertainty laboratory")
    groups = parser.add_subparsers(dest="group", required=True)
    group_subs: dict[str, argparse._SubParsersAction] = {}
    for (group, sub), kind in _SUBCOMMANDS.items():
        if group not in group_subs:
            gp = groups.add_parser(group)
            group_subs[group] = gp.add_subparsers(dest="subcommand", required=True)
        sp = group_subs[group].add_parser(sub)
        sp.set_defaults(kind=kind)
        sp.add_argument("--config", help="path to a scenario config document")
        sp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry (repeatable)")
        sp.add_argument("--output", help="override the CSV output path")
        sp.add_argument("--seed", type=int, help="override the scenario seed")
    return parser


def _config_documents(args: argparse.Namespace) -> tuple[str, str]:
    """The config file's text and the command line's entries, which replace
    the file's values."""
    text, pieces = "", []
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as err:
            raise ConfigError([str(err)]) from None
    for entry in args.set:
        if "=" not in entry:
            raise ConfigError([f"--set needs KEY=VALUE, got {entry!r}"])
        pieces.append(entry)
    if args.output is not None:
        pieces.append(f"output = {args.output}")
    if args.seed is not None:
        pieces.append(f"seed = {args.seed}")
    return text, "\n".join(pieces)


def _print_report(report: RunReport) -> None:
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        member = ("" if check.member is None else
                  f" member={check.member} {report.scenario.sweep.param}={check.sweep_value!r}")
        print(f"[{status}] {check.name}: measured={check.measured:.6e} "
              f"tolerance={check.tolerance:.6e}{member}")
    print(f"rows written: {report.rows_written} -> {report.scenario.output}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, overrides = _config_documents(args)
        config = parse_config(text, kind_hint=args.kind, overrides=overrides)
        report = run(config)  # may also raise ConfigError, for an input its physics refuses
    except ConfigError as err:
        for violation in err.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception as err:  # noqa: BLE001 - scenario context then contract exit code
        print(f"runtime error in {args.kind}: {err}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    _print_report(report)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
