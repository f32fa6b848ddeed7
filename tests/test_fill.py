"""Bulk window fills against a per-segment reference.

``Simulation._fill`` sends the ``n`` segments that fit a window in one
step. It must leave exactly the state that ``n`` sends of one segment each
leave: the link busy ``n`` serializations longer, the window and the bytes
sent ``n`` MSS larger, one queued ack per segment on a link that is up, and
the timer armed by the first send. Each test runs one input twice, with
the bulk fill and with ``_fill`` replaced by a loop of single sends, logs
each flow's state after every fill and compares the logs and the CSVs,
with the queued acks expanded one by one. The bulk fill queues its acks as
one run; the per-segment fill queues a run of one ack per segment, so a
whole window sent into an empty FIFO starts its train on 32 runs, and the
end of such a train is checked against the end of one whose window is a
single run. A
clocked flow's data ack refills the one MSS it freed in ``_on_acks``
itself, not through ``_fill``, so the logs also hold the state after each
``_on_acks`` call that sent, with the acks it handled. The targeted cases
also check that the fill they are about happened.
"""

import heapq
import io
import random
from typing import NamedTuple
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpflow import scenario as scenario_module
from mpflow.scenario import PPOS_ENV_VAR, emit_csv, parse_scenario, run_scenario
from mpflow.simnet import MSS, WINDOW_BYTES, WINDOW_SEGMENTS, Simulation
from helpers import acks_handled, expand
from scenario_gen import random_scenario


def fill_per_segment(sim, flow):
    """The fill as one send per segment: each starts serializing when the
    link is free, is acked one round trip after it finishes, as a run of
    its own, and arms the timer if the flow was idle. A whole window sent
    into an empty FIFO then tries a train on the acks it queued, as at an
    ack, and a FIFO that the fill found empty and left non-empty puts its
    flow on the ack calendar."""
    sf, link = flow.sf, flow.link
    found_empty, sent = not flow.acks, 0
    while sf.inflight_bytes + MSS <= WINDOW_BYTES:
        link.tx_free_us = max(sim.now_us, link.tx_free_us) + link.mss_us
        sf.inflight_bytes += MSS
        sf.bytes_sent_total += MSS
        sent += 1
        if link.up:
            arrival = link.tx_free_us + 2 * link.delay_us
            flow.acks.append((arrival, 1, link.mss_us, MSS, arrival - sim.now_us, 0))
        if flow.armed_at_us is None:
            sim._arm_rto(flow, sim.now_us)
    if found_empty and flow.acks:
        if sent == WINDOW_SEGMENTS and not flow.train_wait and sim._train(flow):
            return
        heapq.heappush(sim._calendar, (flow.acks[0][0], sf.id, flow))


def queued_acks(flow):
    """The acks queued on ``flow``, or, in a train, the window it started
    from, one by one. A train that the bulk fill starts at once and one
    that the per-segment fill starts on the acks it queued give the same
    window, as runs of different lengths."""
    return expand(flow.acks) + expand(flow.train)


class Fill(NamedTuple):
    at: int
    flow_id: int
    segments: int
    inflight_before: int
    serialization_us: int
    link_up: bool
    acks: list
    tx_free_us: int
    inflight_bytes: int
    bytes_sent_total: int
    armed_at_us: object
    timer: int
    timer_pending_at: object
    acks_handled: object = None  # for the one-MSS refills of an _on_acks call


class FillLog(Simulation):
    """A Simulation that logs each flow's state after each fill, and
    remembers its instances, for runs built inside ``run_scenario``."""

    instances = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fills = []
        FillLog.instances.append(self)

    def _fill(self, flow):
        before, sent = flow.sf.inflight_bytes, flow.sf.bytes_sent_total
        super()._fill(flow)
        self._log(flow, before, sent)

    def _on_acks(self, flow, horizon):
        before, sent = flow.sf.inflight_bytes, flow.sf.bytes_sent_total
        queued = len(expand(flow.acks))
        super()._on_acks(flow, horizon)
        if flow.sf.bytes_sent_total > sent:
            self._log(flow, before, sent, acks_handled(flow, queued, sent))

    def _log(self, flow, before, sent, acks_handled=None):
        sf, link, pending = flow.sf, flow.link, flow.timer_pending
        self.fills.append(
            Fill(
                self.now_us,
                sf.id,
                (sf.bytes_sent_total - sent) // MSS,
                before,
                link.mss_us,
                link.up,
                queued_acks(flow),
                link.tx_free_us,
                sf.inflight_bytes,
                sf.bytes_sent_total,
                flow.armed_at_us,
                flow.timer,
                pending and pending[0],
                acks_handled,
            )
        )


def run_both(doc, bucket_ms=1000):
    """Run the scenario ``doc`` with bulk fills and with per-segment fills;
    assert that both log the same fills and write the same CSV, and return
    the fills of the bulk run."""

    def run():
        with mock.patch.object(scenario_module, "Simulation", FillLog):
            report = run_scenario(parse_scenario(doc), bucket_ms=bucket_ms)
        csv = io.StringIO()
        emit_csv(report, csv)
        return FillLog.instances.pop().fills, csv.getvalue()

    with mock.patch.dict("os.environ", {PPOS_ENV_VAR: ""}):
        bulk = run()
        with mock.patch.object(Simulation, "_fill", fill_per_segment):
            per_segment = run()
    assert bulk == per_segment
    return bulk[0]


TWO_LINKS = "link 1 1mbps 100ms 10.0.0.1 10.0.1.1\nlink 2 1mbps 100ms 10.0.0.1 10.0.2.1\n"


def test_a_fill_on_a_down_link_queues_no_acks():
    # Link 1 goes down at t = 0, and the action's pump fills sub-flow 1's
    # window on it: the link is busy 32 serializations, the window is full
    # and no ack comes back.
    fills = run_both("scenario down\nduration 5s\nat 0s link_down 1\n" + TWO_LINKS)
    first = fills[0]
    assert (first.flow_id, first.link_up, first.segments) == (1, False, WINDOW_SEGMENTS)
    assert first.acks == [] and first.tx_free_us == WINDOW_SEGMENTS * 11_680
    assert first.armed_at_us == 0 and first.timer_pending_at == 200_000


def test_a_link_that_serializes_in_no_time_acks_a_window_at_once():
    # At 20 Gbps an MSS serializes in under 1 µs, so s is 0 and every
    # segment of a window is acked one round trip after it is sent.
    fills = run_both("scenario fast\nduration 2s\nlink 1 20000mbps 1ms 10.0.0.1 10.0.1.1\n")
    first = fills[0]
    assert (first.serialization_us, first.segments) == (0, WINDOW_SEGMENTS)
    assert first.acks == [(2_000, MSS, 0)] * WINDOW_SEGMENTS
    # Later, each ack refills the one MSS it freed.
    assert any(fill.at > 0 and fill.segments == fill.acks_handled for fill in fills)


def test_a_fill_of_a_partly_full_window_sends_the_room_left():
    # Sub-flow 1 is backup from 1 s: its acks come back and send nothing.
    # Made active again 60 ms later, it still has segments in flight, and
    # the action's pump fills the room its acks freed. The pump also fills
    # sub-flow 2, whose full window takes no segment.
    def flip(at, flag):
        return f"at {at} set_sub_prio 1 {flag}\n"

    doc = "scenario partly\nduration 3s\n" + TWO_LINKS + flip("1000ms", "backup")
    fills = run_both(doc + flip("1060ms", "active"))
    (refill,) = [fill for fill in fills if fill.at == 1_060_000 and fill.segments]
    assert refill.flow_id == 1 and 0 < refill.inflight_before < WINDOW_BYTES
    assert 1 < refill.segments < WINDOW_SEGMENTS
    assert refill.inflight_bytes == WINDOW_BYTES


def test_a_window_sent_in_one_burst_is_acked_back_to_back():
    # A window sent in one burst serializes back to back, each ack one
    # serialization after the one before, from s + 2d on.
    fills = run_both("scenario steady\nduration 2s\n" + TWO_LINKS)
    first = fills[0]
    s = 11_680
    assert first.acks == [(200_000 + s * (i + 1), MSS, 0) for i in range(WINDOW_SEGMENTS)]
    assert first.tx_free_us == WINDOW_SEGMENTS * s


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_generated_scenarios_fill_alike_in_bulk_and_per_segment(seed):
    run_both(random_scenario(random.Random(seed)))
