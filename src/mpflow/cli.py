"""Command-line entry point.

    mpflow run --scenario <name|path> [--bucket-ms 1000] [--out report.csv]
               [--duration-ms N]
    mpflow list-scenarios
    mpflow validate <path>    (warns about actions at or after the duration,
                               links too slow to ack a first segment, link_up
                               on a link that is up, and set_sub_prio ids that
                               no run creates)
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import List, Tuple

from . import simnet
from .model import MpflowError
from .scenario import (
    BUILTIN_DOCS,
    BUILTIN_SUMMARIES,
    Scenario,
    ScenarioAction,
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


def redundant_link_ups(scenario: Scenario) -> List[Tuple[ScenarioAction, int]]:
    """(action, link id) for each ``link_up`` target that finds its link
    already up, among the actions that run before the duration. Such a
    ``link_up`` still restarts the link: the run drops its in-flight
    segments."""
    up = {link.link_id: True for link in scenario.links}
    found = []
    for action in scenario.actions:
        if action.at_ms >= scenario.duration_ms:
            break  # sorted by time: none of the rest runs
        if action.verb in ("link_down", "link_up"):
            for link_id in action.targets:
                if action.verb == "link_up" and up[link_id]:
                    found.append((action, link_id))
                up[link_id] = action.verb == "link_up"
    return found


def subflow_id_bound(scenario: Scenario) -> int:
    """The largest sub-flow id a run of ``scenario`` can create, if no link
    is too slow to ack a first segment. Each death re-creates at most one
    sub-flow, and only a link that goes down or is restarted while up
    (:func:`redundant_link_ups`) kills one, once per such action target."""
    downs = sum(
        len(action.targets)
        for action in scenario.actions
        if action.verb == "link_down" and action.at_ms < scenario.duration_ms
    )
    return len(scenario.links) + downs + len(redundant_link_ups(scenario))


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
    slow = False
    for link in scenario.links:
        ack_us = simnet.first_ack_us(link)
        if ack_us >= simnet.FIRST_DEATH_US:
            slow = True
            print(
                f"warning: link {link.link_id} acks a first segment after {ack_us / 1000:g}ms, "
                f"no earlier than the {simnet.FIRST_DEATH_US / 1000:g}ms at which a new sub-flow "
                f"dies of timeouts, so every sub-flow on it dies before carrying data",
                file=sys.stderr,
            )
    for action, link_id in redundant_link_ups(scenario):
        print(
            f"warning: at {action.at_ms}ms link_up {link_id}: link {link_id} is already up; "
            f"the run drops its in-flight segments",
            file=sys.stderr,
        )
    if not slow:  # else sub-flows on the slow link die and come back without bound
        bound = subflow_id_bound(scenario)
        for action in scenario.actions:
            if action.verb != "set_sub_prio" or action.at_ms >= scenario.duration_ms:
                continue
            for subflow_id in action.targets:
                if subflow_id > bound:
                    print(
                        f"warning: {format_action(action)}: no run creates sub-flow "
                        f"{subflow_id}, since sub-flow ids go up to {bound}",
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
    except (MpflowError, OptionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(to_stderr)


if __name__ == "__main__":
    raise SystemExit(main())
