"""Invariants of the simulator on generated scenarios.

Hypothesis draws seeds for ``scenario_gen.random_scenario``, so the runs
reach random meshes, slow and fast links, outages that kill sub-flows and
re-create them, and every action verb. Every run checks that:

* the scenario passes ``parse_scenario`` and then runs without raising;
  the built-ins and the ``edge_*`` scenarios of ``scenario_gen`` run
  under the same checks;
* no sub-flow has more bytes acked than it sent;
* no row carries more than its link can serialize in one bucket: acks come
  back spaced by one segment's serialization time, so a bucket holds at
  most ``bucket // serialization + 1`` segments (as in perfbench/README.md).
  A link whose MSS serializes in under 1 µs has no such bound;
* genealogy ids strictly increase;
* the sub-flows on one pair have lifetimes that do not overlap;
* every CSV data line is the matching ``report.rows`` entry written as a
  CSV line, so the two views of the report agree;
* each sub-flow has exactly one row in each bucket that it was born before
  the end of and alive past the start of, and no other row, with the bytes
  acked in the bucket, the flag in force at the bucket's end and whether it
  died at or after that end, all read from the simulation's own state;
* every data segment goes where ``select`` would send it, so no bytes go
  on a backup sub-flow while an active one is alive, nor off the primary
  pairs while a sub-flow on one is. Only pumps call ``_fill``. A pump
  fills every flow of the deciding tier, one flow after another, so the
  bytes each flow gets in it are checked against a loop of one ``select``
  per segment, replayed on the windows as they were just before the pump.
  Between pumps, only acks change what ``select`` reads, and an ack
  leaves each flow of the deciding tier with a full window. So a clocked
  flow's window is checked full before and after each ``_on_acks`` call,
  and each data ack in it refills the one MSS it freed: the refill is
  checked against a ``select`` with that window one MSS short, which is
  what each ack's refill sees. A steady ack train sends its segments
  without ``_fill`` too, each in that same state, so a train is checked
  in it when it starts at an ack and after each pump that it outlives or
  that starts it at a send, once every flow of the tier is filled;
* the ack calendar has an entry keyed at the head of every flow with
  queued acks when a drain starts and when it ends, a drain leaves no ack
  due before its horizon, and no ack due before a pump's action or timer is
  still queued;
* each flow's queued data acks are at least its link's serialization
  time ``s`` apart, checked after each send that queues them (a fill, an
  ``_on_acks`` call or a train's end): its link serializes one segment at
  a time. A train is
  taken when 32 queued acks span ``31 * s``, which on this fact means
  every gap is ``s``;
* after each pump, every flow's cached tier is ``tier`` of its sub-flow
  if it is alive and None if not, the counts of alive flows by tier match
  a recount, and the deciding tier is ``select``'s: only the bootstrap's
  pump asks ``select``, and the others read the counts;
* at each pump and around each drain, every alive flow with its timer
  armed and in no train or keepalive has the deadline
  ``armed_at + max(2 * srtt, RTO_MIN_US) * 2**consecutive_timeouts``: srtt
  changes only where the timer is armed or disarmed next, so a timeout
  re-arms from the same base.
"""

import io
import random
from bisect import bisect_right
from collections import defaultdict
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mpflow import scenario as scenario_module
from mpflow.cli import subflow_id_bound
from mpflow.report import ThroughputBucket
from mpflow.scenario import BUILTIN_DOCS, PPOS_ENV_VAR, emit_csv, parse_scenario, run_scenario
from mpflow.scheduler import select, tier
from mpflow.simnet import FIRST_DEATH_US, MSS, RTO_MIN_US, WINDOW_BYTES, Simulation, first_ack_us
from helpers import acked_by_bucket, expand
from scenario_gen import edge_scenarios, random_scenario


class RecordingSimulation(Simulation):
    """A Simulation that remembers its instances, for their end state,
    checks the refills of each ``_on_acks`` call and each ack train against
    a fresh scheduler choice and the fills of each pump against a choice
    per segment, and checks the ack calendar and the deadlines of armed
    timers at each drain and pump, the cached tiers, their counts and
    the deciding tier after each pump, and the spacing of each flow's
    queued data acks after each send that queues them."""

    instances = []
    pump_fills = None  # while a pump runs: bytes sent by id

    def run(self):
        RecordingSimulation.instances.append(self)
        return super().run()

    def _ack_heads(self):
        return [flow.acks[0][0] for flow in self._flows.values() if flow.acks]

    def _check_deadlines(self):
        for flow in self._flows.values():
            sf = flow.sf
            closed_form = flow.train is not None or flow.keepalive is not None
            if sf.alive and flow.armed_at_us is not None and not closed_form:
                base = max(2 * sf.srtt_us, RTO_MIN_US)
                deadline = flow.armed_at_us + base * 2**sf.consecutive_timeouts
                assert flow.timer == deadline, (self.now_us, sf.id)

    def _check_calendar(self):
        entries = {(at, sf_id): flow for at, sf_id, flow in self._calendar}
        for flow in self._flows.values():
            if flow.acks:
                key = (flow.acks[0][0], flow.sf.id)
                assert entries.get(key) is flow, (self.now_us, key)

    def _drain_acks(self, horizon):
        self._check_calendar()
        self._check_deadlines()
        super()._drain_acks(horizon)
        assert min(self._ack_heads(), default=horizon) >= horizon, self.now_us
        self._check_calendar()
        self._check_deadlines()

    def _check_ack_spacing(self, flow):
        arrivals = [at for at, nbytes, _ in expand(flow.acks) if nbytes]
        s = flow.link.mss_us
        assert all(b - a >= s for a, b in zip(arrivals, arrivals[1:])), (self.now_us, flow.sf.id)

    def _fill(self, flow):
        assert self.pump_fills is not None, self.now_us  # only pumps fill
        sf = flow.sf
        sent = sf.bytes_sent_total
        super()._fill(flow)
        if sf.bytes_sent_total > sent:
            self.pump_fills[sf.id] = sf.bytes_sent_total - sent
        self._check_ack_spacing(flow)

    def _on_acks(self, flow, horizon):
        if flow.clocked:
            assert flow.sf.inflight_bytes == WINDOW_BYTES, (self.now_us, flow.sf.id)
            self._check_one_mss_short(flow)
        super()._on_acks(flow, horizon)
        if flow.clocked:
            assert flow.sf.inflight_bytes == WINDOW_BYTES, (self.now_us, flow.sf.id)
        self._check_ack_spacing(flow)

    def _end_train(self, flow, until):
        super()._end_train(flow, until)
        self._check_ack_spacing(flow)

    def _train(self, flow):
        if not super()._train(flow):
            return False
        if self.pump_fills is None:  # a train started by a pump's fill is checked after it
            self._check_one_mss_short(flow)
        return True

    def _pump(self, *args):
        assert min(self._ack_heads(), default=self.now_us) >= self.now_us, self.now_us
        self._check_deadlines()
        windows = {sf.id: sf.inflight_bytes for sf in self.sender.subflows}
        self.pump_fills = {}
        super()._pump(*args)
        fills, self.pump_fills = self.pump_fills, None
        assert fills == self._select_per_segment(windows), self.now_us
        self._check_tiers()
        for flow in self._flows.values():
            if flow.train is not None:
                self._check_one_mss_short(flow)

    def _check_tiers(self):
        counts = [0, 0, 0]
        for flow in self._flows.values():
            sf = flow.sf
            assert flow.tier == (tier(self.sender, sf) if sf.alive else None), (self.now_us, sf.id)
            if sf.alive:
                counts[flow.tier] += 1
        assert self._tier_counts == counts, (self.now_us, self._tier_counts, counts)
        assert self._deciding == select(self.sender, MSS, WINDOW_BYTES).tier, self.now_us

    def _select_per_segment(self, windows):
        """Bytes by id that one ``select`` per segment sends, from the
        windows ``windows`` (bytes in flight by id) until no sub-flow is
        chosen. It runs on the sender's sub-flows with their windows
        swapped for ``windows``, and puts the windows back."""
        subflows = {sf.id: sf for sf in self.sender.subflows}
        current = {i: sf.inflight_bytes for i, sf in subflows.items()}
        sent = defaultdict(int)
        for i, sf in subflows.items():
            sf.inflight_bytes = windows[i]
        while (chosen := select(self.sender, MSS, WINDOW_BYTES).chosen) is not None:
            subflows[chosen].inflight_bytes += MSS
            sent[chosen] += MSS
        for i, sf in subflows.items():
            sf.inflight_bytes = current[i]
        return dict(sent)

    def _check_one_mss_short(self, flow):
        flow.sf.inflight_bytes -= MSS
        decision = select(self.sender, MSS, WINDOW_BYTES)
        flow.sf.inflight_bytes += MSS
        assert decision.chosen == flow.sf.id, (self.now_us, flow.sf.id, decision)


def run_recorded(doc, bucket_ms):
    """(scenario, report, simulation) of one run of ``doc``. The generator
    writes only scenarios that ``parse_scenario`` accepts."""
    scenario = parse_scenario(doc)
    RecordingSimulation.instances.clear()
    with mock.patch.object(scenario_module, "Simulation", RecordingSimulation):
        report = run_scenario(scenario, bucket_ms=bucket_ms)
    (sim,) = RecordingSimulation.instances
    return scenario, report, sim


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), bucket_ms=st.sampled_from((1000, 100)))
def test_generated_scenarios_keep_the_invariants(seed, bucket_ms):
    check_invariants(random_scenario(random.Random(seed)), bucket_ms)


CANNED = {**BUILTIN_DOCS, **dict(edge_scenarios())}


@pytest.mark.parametrize("bucket_ms", (1000, 100))
@pytest.mark.parametrize("name", sorted(CANNED))
def test_canned_scenarios_keep_the_invariants(name, bucket_ms):
    check_invariants(CANNED[name], bucket_ms)


def check_invariants(doc, bucket_ms):
    """Run ``doc`` at ``bucket_ms`` under the checks of
    RecordingSimulation, then check its report against its end state."""
    with mock.patch.dict("os.environ", {PPOS_ENV_VAR: ""}):
        scenario, report, sim = run_recorded(doc, bucket_ms)

    acked = defaultdict(int)
    for row in report.rows:
        acked[row.subflow_id] += row.bytes_acked
    for sf in sim.sender.subflows:
        assert acked[sf.id] <= sf.bytes_sent_total, sf.id

    segments_by_pair = {}
    for link in scenario.links:
        serialization_us = MSS * 8 * 1_000_000 // link.bandwidth_bps
        if serialization_us:  # at s == 0, which only a canned link has, no bound
            segments_by_pair[link.pair] = bucket_ms * 1000 // serialization_us + 1
    pair_of = {rec.subflow_id: rec.pair for rec in report.columns}
    for row in report.rows:
        segments = segments_by_pair.get(pair_of[row.subflow_id])
        assert segments is None or row.bytes_acked <= segments * MSS, row

    ids = [rec.subflow_id for rec in report.columns]
    assert all(a < b for a, b in zip(ids, ids[1:])), ids

    by_pair = defaultdict(list)
    for rec in report.columns:
        by_pair[rec.pair].append(rec)
    for records in by_pair.values():
        for earlier, later in zip(records, records[1:]):
            assert earlier.died_ms is not None, (earlier, later)
            assert earlier.died_ms <= later.created_ms, (earlier, later)

    buf = io.StringIO()
    emit_csv(report, buf)
    data = [line for line in buf.getvalue().splitlines()[1:] if not line.startswith("#")]
    assert data == [
        f"{row.bucket_start_ms},{row.subflow_id},{pair_of[row.subflow_id]},"
        f"{row.bytes_acked},{row.bytes_acked * 8 * 1000 // bucket_ms},"
        f"{int(row.low_prio)},{int(row.alive)}"
        for row in report.rows
    ]

    bucket_us, duration_us = bucket_ms * 1000, scenario.duration_ms * 1000
    acked = {flow.sf.id: acked_by_bucket(flow, bucket_us) for flow in sim._flows.values()}
    expected = []
    for bucket in range(-(-duration_us // bucket_us)):
        start_us = bucket * bucket_us
        end_us = min(start_us + bucket_us, duration_us)
        for flow in sim._flows.values():
            died = flow.sf.died_us
            if flow.sf.created_us < end_us and (died is None or died > start_us):
                expected.append(
                    ThroughputBucket(
                        start_us // 1000,
                        flow.sf.id,
                        acked[flow.sf.id].get(bucket, 0),
                        flow.flag_values[bisect_right(flow.flag_times, end_us) - 1],
                        died is None or died >= end_us,
                    )
                )
    assert report.rows == expected


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_no_run_creates_a_sub_flow_id_above_the_bound(seed):
    # The bound that ``mpflow validate`` checks set_sub_prio ids against;
    # it does not hold with a link too slow to ack a first segment.
    scenario = parse_scenario(random_scenario(random.Random(seed)))
    assume(all(first_ack_us(link) < FIRST_DEATH_US for link in scenario.links))
    with mock.patch.dict("os.environ", {PPOS_ENV_VAR: ""}):
        report = run_scenario(scenario)
    assert max(rec.subflow_id for rec in report.columns) <= subflow_id_bound(scenario)
