"""Scenario documents, built-in experiment timelines and CSV output.

A scenario is a small line-oriented text document describing a topology and
a timed action script::

    scenario fig4
    duration 100s

    link 1 1mbps 100ms 10.0.0.1 10.0.1.1
    link 2 1mbps 100ms 10.0.0.1 10.0.2.1
    link 3 1mbps 100ms 10.0.0.1 10.0.3.1

    at 15s set_sub_prio 2 3 backup
    at 35s link_down 1

Lines starting with ``#`` are comments. Times take an ``ms`` or ``s``
suffix in lower case only (``10MS`` is rejected); bandwidths take ``bps``,
``kbps`` or ``mbps`` in any case (``1Mbps``). The action verbs are the keys
of one table, ``_RULES``, which maps each to the rule that runs it;
``ACTION_VERBS`` is that table's list:

    set_sub_prio <subflow-id>... backup|active   (ids not alive then: skipped)
    set_active_list [<link-id>...]
    set_backup_list [<link-id>...]
    enable_ppos [<link-id>...]     (no ids: the pair of the first link line)
    link_down <link-id>...
    link_up <link-id>...

List and ppos actions name interface pairs through the link that serves
them. Setting the environment variable ``MPFLOW_PRIMARY_PATH_ONLY=1``
adds ``at 0s enable_ppos`` with no ids before the scenario's own actions,
on every run, scheduled and run like them.

The CSV output, ``emit_csv`` and ``CSV_HEADER``, comes from
:mod:`mpflow.report`.
"""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import simnet, sockopt
from .model import (
    EndpointAddress,
    InterfacePair,
    MpflowError,
    NotFoundError,
    ValidationError,
    new_connection,
)
from .report import CSV_HEADER, emit_csv
from .simnet import LinkSpec, Simulation, TimelineReport
from .sockopt import SubPrioRequest

PPOS_ENV_VAR = "MPFLOW_PRIMARY_PATH_ONLY"

_PairByLink = Dict[int, InterfacePair]


class ScenarioError(MpflowError):
    """Problem in a scenario document."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class ScenarioSyntaxError(ScenarioError):
    pass


class ScenarioSemanticError(ScenarioError):
    pass


class ScenarioAction(NamedTuple):
    """One timed action; targets are sub-flow ids for set_sub_prio and link
    ids for everything else."""

    at_ms: int
    verb: str
    targets: Tuple[int, ...] = ()
    low_prio: Optional[bool] = None


class Scenario(NamedTuple):
    name: str
    duration_ms: int
    links: Tuple[LinkSpec, ...]
    actions: Tuple[ScenarioAction, ...]


# Each verb's rule, run as ``rule(action, pair_by_link, sim)`` when the
# action is due. A rule reads ``sockopt`` and ``sim`` then, so a call
# rebound on them (as a tracer does) is the one that runs.


def _set_sub_prio(action: ScenarioAction, pair_by_link: _PairByLink, sim: Simulation) -> None:
    # Liberal, like a remote MP_PRIO: the sub-flow may have died.
    for subflow_id in action.targets:
        try:
            sockopt.set_subflow_priority(sim.sender, SubPrioRequest(subflow_id, action.low_prio))
        except NotFoundError:
            import logging  # only here, to keep it off ``import mpflow``

            logging.getLogger(__name__).warning(
                "at %d ms set_sub_prio: no alive sub-flow %d; skipped", action.at_ms, subflow_id
            )


def _set_active_list(action: ScenarioAction, pair_by_link: _PairByLink, sim: Simulation) -> None:
    sockopt.set_active_interface_list(sim.sender, [pair_by_link[i] for i in action.targets])


def _set_backup_list(action: ScenarioAction, pair_by_link: _PairByLink, sim: Simulation) -> None:
    sockopt.set_backup_interface_list(sim.sender, [pair_by_link[i] for i in action.targets])


def _enable_ppos(action: ScenarioAction, pair_by_link: _PairByLink, sim: Simulation) -> None:
    pairs = [pair_by_link[i] for i in action.targets] or [sim.sender.mesh_pairs()[0]]
    sockopt.enable_primary_path_only(sim.sender, pairs)


def _set_links(action: ScenarioAction, pair_by_link: _PairByLink, sim: Simulation) -> None:
    for link_id in action.targets:
        sim.set_link_state(link_id, up=action.verb == "link_up")


_RULES: Dict[str, Callable[[ScenarioAction, _PairByLink, Simulation], None]] = {
    "set_sub_prio": _set_sub_prio,
    "set_active_list": _set_active_list,
    "set_backup_list": _set_backup_list,
    "enable_ppos": _enable_ppos,
    "link_down": _set_links,
    "link_up": _set_links,
}

ACTION_VERBS = tuple(_RULES)


def _parse_time_ms(token: str, line: int) -> int:
    for suffix, scale in (("ms", 1), ("s", 1000)):
        if token.endswith(suffix):
            digits = token[: -len(suffix)]
            if digits.isdecimal():
                return int(digits) * scale
    raise ScenarioSyntaxError(f"bad time {token!r} (want e.g. 15s or 15000ms)", line)


def _parse_bandwidth_bps(token: str, line: int) -> int:
    lowered = token.lower()
    for suffix, scale in (("mbps", 1_000_000), ("kbps", 1_000), ("bps", 1)):
        if lowered.endswith(suffix):
            digits = lowered[: -len(suffix)]
            if digits.isdecimal():
                return int(digits) * scale
    raise ScenarioSyntaxError(f"bad bandwidth {token!r} (want e.g. 1mbps)", line)


def _parse_int_list(tokens: List[str], line: int, what: str) -> Tuple[int, ...]:
    values = []
    for token in tokens:
        if not token.isdecimal():
            raise ScenarioSyntaxError(f"bad {what} {token!r}", line)
        values.append(int(token))
    return tuple(values)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    name: Optional[str] = None
    duration_ms: Optional[int] = None
    links: List[LinkSpec] = []
    link_lines: List[int] = []
    raw_actions: List[Tuple[int, ScenarioAction]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "scenario":
            if len(tokens) != 2:
                raise ScenarioSyntaxError("scenario takes exactly one name", lineno)
            if name is not None:
                raise ScenarioSyntaxError("a second 'scenario' line", lineno)
            name = tokens[1]
        elif keyword == "duration":
            if len(tokens) != 2:
                raise ScenarioSyntaxError("duration takes exactly one time", lineno)
            if duration_ms is not None:
                raise ScenarioSyntaxError("a second 'duration' line", lineno)
            duration_ms = _parse_time_ms(tokens[1], lineno)
            if duration_ms == 0:
                raise ScenarioSyntaxError("duration must be positive", lineno)
        elif keyword == "link":
            if len(tokens) != 6:
                raise ScenarioSyntaxError(
                    "link takes: id bandwidth delay src-addr dst-addr", lineno
                )
            (link_ids,) = (_parse_int_list([tokens[1]], lineno, "link id"),)
            bandwidth = _parse_bandwidth_bps(tokens[2], lineno)
            delay_ms = _parse_time_ms(tokens[3], lineno)
            try:
                src = EndpointAddress.from_string(tokens[4])
                dst = EndpointAddress.from_string(tokens[5])
                pair = InterfacePair.between(src, dst)
                spec = LinkSpec(link_ids[0], pair, bandwidth, delay_ms)
            except (ValueError, ValidationError) as exc:
                raise ScenarioSyntaxError(str(exc), lineno) from exc
            links.append(spec)
            link_lines.append(lineno)
        elif keyword == "at":
            if len(tokens) < 3:
                raise ScenarioSyntaxError("action takes: at <time> <verb> ...", lineno)
            at_ms = _parse_time_ms(tokens[1], lineno)
            verb = tokens[2]
            args = tokens[3:]
            if verb not in ACTION_VERBS:
                raise ScenarioSyntaxError(f"unknown action {verb!r}", lineno)
            low_prio: Optional[bool] = None
            if verb == "set_sub_prio":
                if not args or args[-1] not in ("backup", "active"):
                    raise ScenarioSyntaxError(
                        "set_sub_prio takes sub-flow ids then backup|active", lineno
                    )
                low_prio = args[-1] == "backup"
                targets = _parse_int_list(args[:-1], lineno, "sub-flow id")
                if not targets:
                    raise ScenarioSyntaxError("set_sub_prio needs at least one id", lineno)
                if 0 in targets:
                    raise ScenarioSyntaxError("sub-flow ids start at 1", lineno)
            else:
                targets = _parse_int_list(args, lineno, "link id")
                if verb in ("link_down", "link_up") and not targets:
                    raise ScenarioSyntaxError(f"{verb} needs at least one link id", lineno)
            raw_actions.append(
                (lineno, ScenarioAction(at_ms, verb, targets, low_prio))
            )
        else:
            raise ScenarioSyntaxError(f"unknown keyword {keyword!r}", lineno)

    if name is None:
        raise ScenarioSyntaxError("missing 'scenario <name>' line")
    if duration_ms is None:
        raise ScenarioSyntaxError("missing 'duration <time>' line")
    if not links:
        raise ScenarioSyntaxError("scenario needs at least one link")
    try:
        simnet.check_topology(*_connection_endpoints(links), links)
    except simnet.TopologyError as exc:
        raise ScenarioSemanticError(str(exc), link_lines[exc.link_index]) from exc

    link_ids = {spec.link_id for spec in links}
    for lineno, action in raw_actions:
        if action.verb != "set_sub_prio":
            for target in action.targets:
                if target not in link_ids:
                    raise ScenarioSemanticError(
                        f"action references link {target}; topology has links "
                        f"{sorted(link_ids)}",
                        lineno,
                    )

    actions = tuple(
        action for _, action in sorted(raw_actions, key=lambda item: item[1].at_ms)
    )
    return Scenario(name, duration_ms, tuple(links), actions)


def format_scenario(scenario: Scenario) -> str:
    """Render a scenario back to its canonical document form."""
    lines = [f"scenario {scenario.name}", f"duration {scenario.duration_ms}ms", ""]
    for link in scenario.links:
        lines.append(
            f"link {link.link_id} {link.bandwidth_bps}bps "
            f"{link.one_way_delay_ms}ms "
            f"{EndpointAddress(link.pair.family, link.pair.src).host()} "
            f"{EndpointAddress(link.pair.family, link.pair.dst).host()}"
        )
    if scenario.actions:
        lines.append("")
    lines.extend(format_action(action) for action in scenario.actions)
    return "\n".join(lines) + "\n"


def format_action(action: ScenarioAction) -> str:
    """Render one action as its ``at <time> <verb> ...`` document line."""
    parts = [f"at {action.at_ms}ms {action.verb}"]
    parts.extend(str(t) for t in action.targets)
    if action.verb == "set_sub_prio":
        parts.append("backup" if action.low_prio else "active")
    return " ".join(parts)


_FIG_TOPOLOGY = """\
link 1 1mbps 100ms 10.0.0.1 10.0.1.1
link 2 1mbps 100ms 10.0.0.1 10.0.2.1
link 3 1mbps 100ms 10.0.0.1 10.0.3.1
"""

_FIG4_SCRIPT = (
    "at 15s set_sub_prio 2 3 backup\n"
    "at 35s link_down 1\n"
    "at 55s link_up 1\n"
    "at 75s link_down 2 3\n"
    "at 95s link_up 2 3\n"
)

_FIG6_SCRIPT = "at 30s link_down 1\nat 70s link_up 1\n"


def _fig_docs(**scripts: str) -> Dict[str, str]:
    """The paper figures' documents, by name: each one's action script on
    the shared topology, for 100 s."""
    return {
        name: f"scenario {name}\nduration 100s\n\n{_FIG_TOPOLOGY}\n{script}"
        for name, script in scripts.items()
    }


BUILTIN_DOCS: Dict[str, str] = _fig_docs(
    fig4=_FIG4_SCRIPT,
    fig5="at 0s set_backup_list 2 3\n" + _FIG4_SCRIPT,
    fig6_default=_FIG6_SCRIPT,
    fig6_ppos="at 0s enable_ppos 1\n" + _FIG6_SCRIPT,
)

BUILTIN_SUMMARIES: Dict[str, str] = {
    "fig4": "priority flip at 15s, link-1 outage 35-55s, links-2/3 outage 75-95s",
    "fig5": "fig4 plus a backup interface list, so re-created sub-flows stay backup",
    "fig6_default": "default scheduler, link-1 outage 30-70s",
    "fig6_ppos": "primary-path-only scheduler on link 1, link-1 outage 30-70s",
}


def builtin_scenario(name: str) -> Scenario:
    if name not in BUILTIN_DOCS:
        raise ScenarioError(
            f"unknown built-in scenario {name!r}; have {sorted(BUILTIN_DOCS)}"
        )
    return parse_scenario(BUILTIN_DOCS[name])


def _connection_endpoints(
    links: Sequence[LinkSpec],
) -> Tuple[List[EndpointAddress], List[EndpointAddress]]:
    """The local and the remote addresses of ``links``, each once, in order
    of first use, built from the links' checked pairs."""
    pairs = [link.pair for link in links]
    local_keys = dict.fromkeys((pair.family, pair.src) for pair in pairs)
    remote_keys = dict.fromkeys((pair.family, pair.dst) for pair in pairs)
    return (
        [EndpointAddress._make((family, address, 0)) for family, address in local_keys],
        [EndpointAddress._make((family, address, 0)) for family, address in remote_keys],
    )


def run_scenario(
    scenario: Scenario,
    bucket_ms: int = 1000,
    duration_ms: Optional[int] = None,
) -> TimelineReport:
    """Build the connection pair for a scenario and execute it.
    ``duration_ms``, if given, replaces the scenario's duration. Actions
    at or after the run's end would never run and are left out."""
    duration_ms = scenario.duration_ms if duration_ms is None else duration_ms
    sim = Simulation(
        new_connection(*_connection_endpoints(scenario.links)),
        list(scenario.links),
        duration_ms=duration_ms,
        bucket_ms=bucket_ms,
    )
    link_pairs = {link.link_id: link.pair for link in scenario.links}
    actions = scenario.actions
    if os.environ.get(PPOS_ENV_VAR, "").lower() in ("1", "true", "yes", "on"):
        actions = (ScenarioAction(0, "enable_ppos"), *actions)
    sim.schedule_actions(
        (a.at_ms, partial(_RULES[a.verb], a, link_pairs)) for a in actions if a.at_ms < duration_ms
    )
    return sim.run()
