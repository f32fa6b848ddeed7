"""Command-line entry point.

    mpflow run --scenario <name|path> [--bucket-ms 1000] [--out report.csv]
               [--duration-ms N]
    mpflow list-scenarios
    mpflow validate <path>    (warns about actions at or after the duration and
                               about links too slow to ack a first segment)
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import simnet
from .model import MpflowError
from .scenario import (
    BUILTIN_DOCS,
    BUILTIN_SUMMARIES,
    ScenarioError,
    builtin_scenario,
    emit_csv,
    format_action,
    parse_scenario,
    run_scenario,
)
from .wire import OptionError


def _read_scenario_file(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not a UTF-8 text file ({exc})") from None


def _load_scenario(ref: str):
    if ref in BUILTIN_DOCS:
        return builtin_scenario(ref)
    path = Path(ref)
    if not path.exists():
        raise ScenarioError(
            f"{ref!r} is neither a built-in scenario ({sorted(BUILTIN_DOCS)}) "
            f"nor an existing file"
        )
    return parse_scenario(_read_scenario_file(path))


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    report = run_scenario(scenario, bucket_ms=args.bucket_ms, duration_ms=args.duration_ms)
    if args.out:
        emit_csv(report, args.out)
    else:
        emit_csv(report, sys.stdout)
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in sorted(BUILTIN_DOCS):
        print(f"{name}: {BUILTIN_SUMMARIES[name]}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    text = _read_scenario_file(Path(args.path))
    try:
        scenario = parse_scenario(text)
    except ScenarioError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 1
    for action in scenario.actions:
        if action.at_ms < scenario.duration_ms:
            continue
        print(
            f"warning: {format_action(action)} is at or after duration "
            f"{scenario.duration_ms}ms and never runs",
            file=sys.stderr,
        )
    for link in scenario.links:
        ack_us = simnet.first_ack_us(link)
        if ack_us >= simnet.FIRST_DEATH_US:
            print(
                f"warning: link {link.link_id} acks a first segment after {ack_us / 1000:g}ms, "
                f"no earlier than the {simnet.FIRST_DEATH_US / 1000:g}ms at which a new sub-flow "
                f"dies of timeouts, so every sub-flow on it dies before carrying data",
                file=sys.stderr,
            )
    print(
        f"ok: scenario {scenario.name!r}, {len(scenario.links)} links, "
        f"{len(scenario.actions)} actions, {scenario.duration_ms} ms"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpflow",
        description="Deterministic multipath-transport simulator with "
        "sub-flow priority control",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and emit a CSV timeline")
    run_p.add_argument("--scenario", required=True, help="built-in name or file path")
    run_p.add_argument("--bucket-ms", type=int, default=1000)
    run_p.add_argument("--out", help="output CSV path (default: stdout)")
    run_p.add_argument("--duration-ms", type=int, default=None)
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list-scenarios", help="list built-in scenarios")
    list_p.set_defaults(func=_cmd_list)

    validate_p = sub.add_parser("validate", help="validate a scenario file")
    validate_p.add_argument("path")
    validate_p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A run's warnings, such as a skipped set_sub_prio target, go to stderr.
    to_stderr = logging.StreamHandler(sys.stderr)
    to_stderr.setLevel(logging.WARNING)
    to_stderr.setFormatter(logging.Formatter("warning: %(message)s"))
    logger = logging.getLogger("mpflow")
    logger.addHandler(to_stderr)
    try:
        return args.func(args)
    except (ScenarioError, MpflowError, OptionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(to_stderr)


if __name__ == "__main__":
    raise SystemExit(main())
