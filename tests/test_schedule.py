"""Scheduling actions: a list in one call, or one action at a time, and the
times that are refused.

``Simulation.schedule_actions`` takes ``(at_ms, action)`` pairs, and
``schedule_action`` is its one-pair case, so the two ways must give one
script: the same run order, the same end state and the same errors.
"""

import re

import pytest

from mpflow import sockopt
from mpflow.model import ValidationError, new_connection
from mpflow.simnet import LinkSpec, Simulation
from mpflow.sockopt import SubPrioRequest
from helpers import addr
from scenario_gen import report_digest, timer_digest

MBPS = 1_000_000
DURATION_MS = 6_000


class BootstrapLog(Simulation):
    """A Simulation that logs its bootstrap in ``log``."""

    def __init__(self, log, *args):
        super().__init__(*args)
        self.log = log

    def _bootstrap(self):
        self.log.append(("bootstrap", self.now_us))
        super()._bootstrap()


def build_sim(log=None):
    """Three 1 Mbps links with 100 ms delay, for 6 s, that logs its
    bootstrap in ``log``."""
    sender = new_connection([addr("10.0.0.1")], [addr(f"10.0.{i}.1") for i in (1, 2, 3)])
    links = [LinkSpec(i + 1, p, MBPS, 100) for i, p in enumerate(sender.mesh_pairs())]
    return BootstrapLog([] if log is None else log, sender, links, DURATION_MS)


def one_by_one(sim, actions):
    for at_ms, action in actions:
        sim.schedule_action(at_ms, action)


def in_bulk(sim, actions):
    sim.schedule_actions(iter(actions))  # any iterable, such as a generator


def flip(subflow_id, low_prio):
    request = SubPrioRequest(subflow_id, low_prio)
    return lambda sim: sockopt.set_subflow_priority(sim.sender, request)


def link(link_id, up):
    return lambda sim: sim.set_link_state(link_id, up=up)


def ppos(sim):
    sockopt.enable_primary_path_only(sim.sender, sim.sender.mesh_pairs()[:1])


def script(case, schedule, log):
    """The ``(at_ms, action)`` pairs of ``case``. Each action logs its name
    and its µs, then acts; ``later`` schedules more pairs in ``schedule``,
    the way under test."""

    def named(name, effect=None):
        def action(sim):
            log.append((name, sim.now_us))
            if effect is not None:
                effect(sim)

        return action

    def later(pairs):
        return lambda sim: schedule(sim, [(at, named(name, effect)) for at, name, effect in pairs])

    cases = {
        "equal-times": [
            (1_000, "a", None), (1_000, "b", flip(2, True)), (1_000, "c", flip(3, True)),
            (2_000, "d", flip(2, False)), (2_000, "e", None),
        ],
        "out-of-order": [
            (3_000, "a", link(1, False)), (1_000, "b", flip(2, True)), (2_000, "c", None),
            (1_000, "d", flip(3, True)), (5_999, "e", link(1, True)), (0, "f", None),
            (2_000, "g", flip(2, False)),
        ],
        "zero-ms-before-the-bootstrap": [
            (0, "a", later([(0, "s", None)])), (0, "b", ppos), (0, "c", flip(2, False)),
            (500, "d", None),
        ],
        "during-the-run": [
            (1_000, "a", later([
                (1_000, "x", flip(2, True)), (1_500, "y", None), (1_200, "z", link(3, False)),
                (1_000, "w", None), (4_000, "v", link(3, True)),
            ])),
            (1_200, "b", None),
            (3_000, "c", later([(3_000, "u", flip(2, False)), (3_500, "t", ppos)])),
        ],
    }
    return [(at, named(name, effect)) for at, name, effect in cases[case]]


def run(case, schedule):
    log = []
    sim = build_sim(log)
    schedule(sim, script(case, schedule, log))
    report = sim.run()
    ends = zip(sim.sender.subflows, sim.receiver.subflows)
    return log, report_digest(report), timer_digest(sim), [(a.low_prio, b.low_prio) for a, b in ends]


EXPECTED_ORDER = {
    "equal-times": ["bootstrap", "a", "b", "c", "d", "e"],
    "out-of-order": ["f", "bootstrap", "b", "d", "c", "g", "a", "e"],
    "zero-ms-before-the-bootstrap": ["a", "b", "c", "bootstrap", "s", "d"],
    "during-the-run": ["bootstrap", "a", "x", "w", "b", "z", "y", "c", "u", "t", "v"],
}


@pytest.mark.parametrize("case", sorted(EXPECTED_ORDER))
def test_a_list_scheduled_in_one_call_runs_as_one_scheduled_an_action_at_a_time(case):
    """Both ways run the actions by time, and those of one µs in the order
    they were scheduled: the 0 ms actions scheduled before the run precede
    the bootstrap, and an action scheduled during the run for its own µs
    runs after those already due then, the bootstrap included. The CSV, the
    timers (which hold the seq of each pending entry) and the flags at both
    ends agree."""
    bulk, single = run(case, in_bulk), run(case, one_by_one)
    assert bulk == single
    log = bulk[0]
    assert [name for name, _ in log] == EXPECTED_ORDER[case]
    assert [at for _, at in log] == sorted(at for _, at in log)


def error_of(schedule, sim, pairs):
    with pytest.raises(ValidationError) as raised:
        schedule(sim, pairs)
    return str(raised.value)


@pytest.mark.parametrize(
    "at_ms, message",
    [
        (-5, "an action's time must be a whole number of ms >= 0: -5"),
        (1.5, "an action's time must be a whole number of ms >= 0: 1.5"),
        ("10", "an action's time must be a whole number of ms >= 0: 10"),
        (True, "an action's time must be a whole number of ms >= 0: True"),
        (False, "an action's time must be a whole number of ms >= 0: False"),
        (DURATION_MS, f"an action at {DURATION_MS} ms would never run: the run ends first"),
        (7_000, "an action at 7000 ms would never run: the run ends first"),
    ],
    ids=["negative", "fraction", "text", "true", "false", "at-the-end", "after-the-end"],
)
def test_both_ways_refuse_a_time_with_the_same_error_and_keep_the_pairs_before_it(at_ms, message):
    """A pair that fails the check raises ValidationError; the pairs before
    it stay scheduled and those after it are not."""
    scripts = []
    for schedule in (in_bulk, one_by_one):
        log, sim = [], build_sim()
        pairs = [(500, lambda s: log.append(500)), (at_ms, lambda s: log.append("bad")),
                 (700, lambda s: log.append(700))]
        assert error_of(schedule, sim, pairs) == message
        sim.run()
        scripts.append(log)
    assert scripts == [[500], [500]]


def test_both_ways_refuse_a_time_before_the_current_us_during_the_run():
    """An action at 2 s that schedules one at 2.5 s and then one at 1 s
    ends the run with the same error either way, the 2.5 s one scheduled."""
    message = "an action at 1000 ms would run in the past: the run is at 2000000 µs"
    for schedule in (in_bulk, one_by_one):
        log, sim = [], build_sim()

        def schedule_back(s):
            schedule(s, [(2_500, lambda s: log.append(2_500)), (1_000, lambda s: log.append(1))])

        sim.schedule_action(2_000, schedule_back)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            sim.run()
        assert [at for at, _, _ in sim._script] == [0, 2_000_000, 2_500_000]
