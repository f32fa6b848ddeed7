"""The per-run ack rule against the one-ack reference.

A sub-flow's FIFO holds its acks as runs, ``(a, n, g, nbytes, r, dr)``:
``n`` acks of ``nbytes``, ack ``j`` due at ``a + j * g`` with round trip
``r + j * dr``. ``Simulation._on_acks`` handles the due part of a run in one
step. Every call must leave the flow in the state that handing the same
acks, expanded one by one, to ``helpers.on_ack_arrival`` leaves, with the
train tried at the same acks: srtt, the window, the bytes sent and acked,
the timer's arming, deadline and pending entry, the probe, the train, the
keepalive, the link's clock and the FIFO, ack by ack. ``RunCheck`` replays
each call through the reference first, with each refill queued as a run of
its own, puts the state back and compares. The unit cases build the states
where a per-run step could go wrong by a shortcut.
"""

import itertools
import random
from collections import deque
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpflow import scenario as scenario_module
from mpflow import simnet
from mpflow.model import new_connection
from mpflow.report import SubflowColumn, TimelineReport
from mpflow.scenario import PPOS_ENV_VAR, parse_scenario, run_scenario
from mpflow.simnet import MSS, WINDOW_BYTES, WINDOW_SEGMENTS, LinkSpec, Simulation
from helpers import addr, expand, logged, on_ack_arrival, pop_ack
from scenario_gen import edge_scenarios, random_scenario


def one_by_one(sim, flow, horizon):
    """The acks of ``flow`` due before ``horizon`` through the one-ack
    reference, with the train tried where ``_on_acks`` tries it, up to an
    ack that leaves an unclocked flow idle."""
    while flow.acks and flow.acks[0][0] < horizon:
        if flow.clocked:
            if not flow.train_wait:
                if sim._train(flow):
                    return
                wait = flow.probe_outstanding or flow.sf.consecutive_timeouts
                flow.train_wait = 1 if wait else WINDOW_SEGMENTS
            flow.train_wait -= 1
        sim.now_us, nbytes, sent_us = pop_ack(flow.acks)
        on_ack_arrival(sim, flow, nbytes, sent_us)
        if not flow.clocked and flow.armed_at_us is None:
            return


def append_run(acks, a, n, g, r, dr):
    """``simnet._queue`` without joining a run to the last: the reference's
    refills stay runs of one ack."""
    if n:
        acks.append((a, n, g, MSS, r, dr))


def observe(sim, flow, kept):
    """What a later event could read of ``flow`` and its link. Only the
    deadline of the pending timer entry counts: the reference pushes an
    entry for each deadline that beats it. The log counts by its acks, from
    its run ``kept`` on: a call leaves the runs before that one as it found
    them, and the reference logs a run per ack."""
    sf, pending = flow.sf, flow.timer_pending
    return (
        sim.now_us, sf.srtt_us, sf.inflight_bytes, sf.consecutive_timeouts, sf.bytes_sent_total,
        logged(flow.log[kept:]), flow.armed_at_us, flow.timer, pending and pending[0],
        flow.probe_outstanding, flow.train_wait, expand(flow.train), flow.keepalive,
        flow.link.tx_free_us, expand(flow.acks),
    )


def check_call(sim, flow, horizon):
    """Run ``_on_acks(flow, horizon)`` after replaying it through the
    reference on the same state, and assert that both leave the same one."""
    sf, link = flow.sf, flow.link
    seq = next(sim._seq)
    saved = (
        sim.now_us, [*sim._heap], [*sim._calendar], [*flow.acks], [*flow.log],
        sf.srtt_us, sf.inflight_bytes, sf.consecutive_timeouts, sf.bytes_sent_total,
        flow.armed_at_us, flow.timer, flow.timer_pending, flow.probe_outstanding,
        flow.train_wait, flow.train, flow.keepalive, link.tx_free_us,
    )

    def restore():
        sim._seq = itertools.count(seq)
        (sim.now_us, sim._heap[:], sim._calendar[:], runs, flow.log,
         sf.srtt_us, sf.inflight_bytes, sf.consecutive_timeouts, sf.bytes_sent_total,
         flow.armed_at_us, flow.timer, flow.timer_pending, flow.probe_outstanding,
         flow.train_wait, flow.train, flow.keepalive, link.tx_free_us) = saved
        flow.acks.clear()  # the drain holds this deque
        flow.acks.extend(runs)
        flow.log = [*flow.log]

    kept = max(len(flow.log) - 1, 0)  # the last run may be extended
    restore()
    with mock.patch.object(simnet, "_queue", append_run):
        one_by_one(sim, flow, horizon)
    expected = observe(sim, flow, kept)
    restore()
    Simulation._on_acks(sim, flow, horizon)
    assert observe(sim, flow, kept) == expected, (sim.now_us, sf.id)


class RunCheck(Simulation):
    """A Simulation that checks each ``_on_acks`` call against the reference."""

    calls = 0

    def _on_acks(self, flow, horizon):
        RunCheck.calls += 1
        check_call(self, flow, horizon)


def run_checked(doc, bucket_ms):
    with mock.patch.object(scenario_module, "Simulation", RunCheck):
        with mock.patch.dict("os.environ", {PPOS_ENV_VAR: ""}):
            run_scenario(parse_scenario(doc), bucket_ms=bucket_ms)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), bucket_ms=st.sampled_from((1000, 100, 10)))
def test_generated_scenarios_handle_each_run_as_ack_by_ack(seed, bucket_ms):
    run_checked(random_scenario(random.Random(seed)), bucket_ms)


def test_the_edge_scenarios_handle_each_run_as_ack_by_ack():
    before = RunCheck.calls
    for _, doc in edge_scenarios():
        run_checked(doc, 100)
    assert RunCheck.calls > before


# One 1 Mbps link with 50 ms delay: an MSS serializes in S = 11,680 µs, and
# an ack sent on the idle link comes back RTT = S + 100 ms later.
S, RTT = 11_680, 111_680
A = 1_000_000  # the first queued ack's arrival


def one_link(runs, *, srtt, inflight, clocked=False, probe=False, tx_free=0):
    """A simulation of one link whose sub-flow has ``runs`` queued, its
    timer armed 100 ms before the first, and the run at that µs."""
    sender = new_connection([addr("10.0.0.1")], [addr("10.0.1.1")])
    sim = Simulation(sender, [LinkSpec(1, sender.mesh_pairs()[0], 1_000_000, 50)], 60_000, 10)
    flow = sim._flows[1]
    sf = flow.sf
    sf.srtt_us, sf.inflight_bytes = srtt, inflight
    flow.acks = deque(runs)
    flow.clocked, flow.probe_outstanding, flow.train_wait = clocked, probe, WINDOW_SEGMENTS
    flow.link.tx_free_us = tx_free
    sim.now_us = A - 100_000
    sim._arm_rto(flow, sim.now_us)
    return sim, flow


def test_a_deadline_that_srtt_pulls_back_is_the_soonest():
    # srtt starts 2 s above the round trip of 8 acks S apart, and falls by
    # more than four spacings an ack, so each ack's deadline comes before
    # the one before it: the pending entry is the last's, not the first's.
    sim, flow = one_link([(A, 8, S, MSS, RTT, 0)], srtt=2_000_000, inflight=10 * MSS)
    first_srtt = (7 * 2_000_000 + RTT) // 8
    check_call(sim, flow, A + 8 * S)
    assert flow.timer_pending[0] < A + 2 * first_srtt
    assert flow.timer_pending[0] == flow.timer == A + 7 * S + 2 * flow.sf.srtt_us
    assert flow.sf.inflight_bytes == 2 * MSS and not flow.acks


def test_refills_change_spacing_where_the_link_goes_idle():
    # Acks 3 S apart reach a clocked flow whose link is busy for one more
    # serialization: the first refill waits for it, the others leave at
    # their ack, 3 S apart, each a round trip RTT before its ack comes.
    runs = [(A, 4, 3 * S, MSS, RTT, 0)]
    sim, flow = one_link(runs, srtt=RTT, inflight=WINDOW_BYTES, clocked=True, tx_free=A + S)
    check_call(sim, flow, A + 9 * S + 1)
    busy, idle = flow.acks
    assert busy == (A + 2 * S + 100_000, 1, S, MSS, 2 * S + 100_000, -2 * S)
    assert idle == (A + 4 * S + 100_000, 3, 3 * S, MSS, RTT, 0)
    assert flow.link.tx_free_us == A + 9 * S + S


def test_a_probe_between_two_data_runs_keeps_the_flow_busy():
    # The probe's ack clears the probe, while data is still in flight, so
    # the flow goes idle only at the last data ack.
    runs = [(A, 3, S, MSS, RTT, 0), (A + 3 * S, 1, 0, 0, 100_000, 0), (A + 4 * S, 3, S, MSS, RTT, S)]
    sim, flow = one_link(runs, srtt=RTT, inflight=6 * MSS, probe=True)
    check_call(sim, flow, A + 10 * S)
    assert not flow.acks and not flow.probe_outstanding and flow.armed_at_us is None
    assert sim.now_us == A + 6 * S


def test_the_ack_that_frees_the_last_byte_stops_the_call_inside_its_run():
    # Three MSS in flight, five acks queued: the third leaves the flow idle,
    # and the last two stay queued, as the reference leaves them.
    sim, flow = one_link([(A, 5, S, MSS, RTT, 0)], srtt=RTT, inflight=3 * MSS)
    check_call(sim, flow, A + 10 * S)
    assert expand(flow.acks) == [(A + j * S, MSS, A + j * S - RTT) for j in (3, 4)]
    assert sim.now_us == A + 2 * S and flow.armed_at_us is None


@pytest.mark.parametrize("off", [0, 1], ids=["continues", "1us-off"])
def test_a_refill_joins_the_last_run_only_where_it_continues_its_progression(off):
    # The last queued run ends S before the refills of the two handled acks
    # come back, at the same spacing, with a round trip ``off`` µs above
    # theirs: the refills extend it only when it is theirs exactly.
    tail = (A + RTT - 2 * S, 2, S, MSS, RTT + off, 0)
    sim, flow = one_link([(A, 2, S, MSS, RTT, 0), tail], srtt=RTT, inflight=WINDOW_BYTES, clocked=True)
    check_call(sim, flow, A + S + 1)
    refills = (A + RTT, 2, S, MSS, RTT, 0)
    assert [*flow.acks] == ([(*tail[:1], 4, *tail[2:])] if not off else [tail, refills])


@st.composite
def run_sequences(draw):
    """Up to 8 runs ``(probe, (a, n, g, r, dr))`` of ``n`` acks, the ``j``-th
    due at ``a + j * g`` with round trip ``r + j * dr``; a probe's is one ack
    of 0 bytes. Each is drawn afresh, or from the progression of the one
    before: its first ack due a spacing after the other's last, with a round
    trip a step on, and then each of its fields 1 off or not."""
    off = st.sampled_from((0, 0, 1, -1))
    runs = []
    for _ in range(draw(st.integers(1, 8))):
        probe = draw(st.integers(0, 5)) == 5
        if runs and draw(st.booleans()):
            a, n, g, r, dr = runs[-1][1]
            run = (a + n * g + draw(off), draw(st.integers(0, 4)), g + draw(off),
                   r + n * dr + draw(off), dr + draw(off))
        else:
            run = (draw(st.integers(0, 10**6)), draw(st.integers(0, 4)), draw(st.integers(0, 30)),
                   draw(st.integers(0, 10**4)), draw(st.integers(-20, 20)))
        runs.append((probe, (run[0], 1, 0, run[3], 0) if probe else run))
    return runs


@settings(derandomize=True, max_examples=400, deadline=None)
@given(runs=run_sequences())
def test_a_queued_or_logged_run_joins_the_last_only_where_its_acks_stay_the_same(runs):
    # ``_queue`` and ``_log`` extend the last run with a new one only where
    # it continues that run's progression exactly, so the runs they leave
    # hold the acks handed to them, in order. A probe's ack, queued as
    # ``_send_probe`` queues it, is joined by no data run, and is not logged.
    fifo, log, queued, delivered = deque(), [], [], []
    for probe, (a, n, g, r, dr) in runs:
        if probe:
            fifo.append((a, 1, 0, 0, r, 0))
            queued += expand([(a, 1, 0, 0, r, 0)])
            continue
        simnet._queue(fifo, a, n, g, r, dr)
        queued += expand([(a, n, g, MSS, r, dr)])
        simnet._log(log, a, n, g)
        delivered += logged([(a, n, g)])
    assert expand(fifo) == queued
    assert logged(log) == delivered


def test_the_store_puts_each_ack_in_its_bucket():
    # The report's bytes per bucket against one count per ack, with an ack
    # already in the run's first bucket, for a sub-flow born mid-run: runs
    # spaced under a bucket, one to two buckets apart, past a window and
    # shorter (filled, then cleared where empty), and two buckets or more
    # apart, from every offset.
    bucket = 10_000
    rng = random.Random(7)
    for g in (0, 1, 3_000, 9_999, 10_000, 10_001, 11_680, 19_999, 20_000, 33_333):
        for k in (1, 2, WINDOW_SEGMENTS, WINDOW_SEGMENTS + 1, 150):
            born = rng.randrange(10 * bucket)
            a = born + rng.randrange(30 * bucket)
            log = [(max(born, a // bucket * bucket), 1, 0), (a, k, g)]
            column = SubflowColumn(1, None, log, [born], [False], None)
            first, acked = TimelineReport(10, 60_000, [column]).acked(column)
            expected = [0] * (6_000 - first)
            for at in logged(log):
                expected[at // bucket - first] += MSS
            assert first == born // bucket and acked == expected, (g, k, a)
