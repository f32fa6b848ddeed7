import gc
import heapq
import re
import weakref

import pytest

from mpflow.model import (
    PORT_BASE,
    EndpointAddress,
    InterfacePair,
    ValidationError,
    close_subflow,
    new_connection,
    open_subflow,
    subflow_port,
)
from mpflow.simnet import LinkSpec, Simulation
from mpflow import simnet, sockopt
from mpflow.scenario import PPOS_ENV_VAR, builtin_scenario, parse_scenario, run_scenario
from mpflow.sockopt import SubPrioRequest
from helpers import addr, expand, on_ack_arrival, pop_ack, tuple_for_next

MSS = 1460
WINDOW = 32 * MSS
MBPS = 1_000_000
INF = float("inf")


def build_sim(n_links, duration_ms=20_000, actions=()):
    sender = new_connection(
        [addr("10.0.0.1")], [addr(f"10.0.{i + 1}.1") for i in range(n_links)]
    )
    links = [
        LinkSpec(i + 1, mesh_pair, MBPS, 100)
        for i, mesh_pair in enumerate(sender.mesh_pairs())
    ]
    sim = Simulation(sender, links, duration_ms)
    for at_ms, fn in actions:
        sim.schedule_action(at_ms, fn)
    return sim


def link_action(link_id, up):
    return lambda sim: sim.set_link_state(link_id, up=up)


def bytes_by_flow_bucket(report):
    return {
        (row.bucket_start_ms // report.bucket_ms, row.subflow_id): row.bytes_acked
        for row in report.rows
    }


def next_dues(sim):
    """When the next action, the next timer and the earliest queued ack are
    due, in that order, each ``inf`` if there is none; and the flow of
    that ack, by sub-flow id among equals, or None."""
    flow = min(
        (flow for flow in sim._flows.values() if flow.acks),
        key=lambda flow: flow.acks[0][0],
        default=None,
    )
    script, heap = sim._script, sim._heap
    dues = [script[0][0] if script else INF, heap[0][0] if heap else INF]
    return dues + [flow.acks[0][0] if flow else INF], flow


def next_at(sim):
    """When the next event is due: an action, a timer or a queued ack."""
    return min(next_dues(sim)[0])


def step(sim):
    """Run the next event in the simulator's order and return its handler:
    the script's next action, which it takes off the script, the timer
    heap's top or the earliest queued ack, which goes to the one-ack
    reference. Within one µs, actions run first, then timers, then acks,
    both by sub-flow id."""
    dues, flow = next_dues(sim)
    kind = dues.index(min(dues))  # the first of the earliest
    sim.now_us = dues[kind]
    if kind == 0:
        sim._on_action(sim._script.pop(0)[2])
        return Simulation._on_action
    if kind == 1:
        _, _, seq, timer_flow = heapq.heappop(sim._heap)
        sim._on_timer(timer_flow, seq)
        return Simulation._on_timer
    _, nbytes, sent_us = pop_ack(flow.acks)
    on_ack_arrival(sim, flow, nbytes, sent_us)
    return on_ack_arrival


def timer_entries(sim, flow):
    return [entry for entry in sim._heap if entry[3] is flow]


def time_out_until_dead(sim, sf):
    """Step the flow's RTO entries until it dies; returns the times of all
    entries popped and of the timeouts among them."""
    popped, timeouts = [], []
    while sf.alive:
        before = sf.consecutive_timeouts
        assert step(sim) is Simulation._on_timer
        popped.append(sim.now_us)
        if sf.consecutive_timeouts != before or not sf.alive:
            timeouts.append(sim.now_us)
    return popped, timeouts


# --------------------------------------------------------------------- #
# retransmission timer arithmetic


def test_rto_fires_at_doubling_offsets_and_third_kills():
    sim = build_sim(1)
    flow = sim._flows[1]
    sf = flow.sf
    sf.srtt_us = 200_000
    sf.inflight_bytes = MSS
    sim._arm_rto(flow, sim.now_us)
    fires = []
    while sf.alive:
        at, sf_id, seq, timer_flow = heapq.heappop(sim._heap)
        assert (sf_id, timer_flow) == (1, flow)
        sim.now_us = at
        fires.append(at)
        sim._on_timer(timer_flow, seq)
    # oracle: base = max(2 * 200 ms, 200 ms) = 400 ms, offsets double per
    # consecutive timeout => fires 400, 800, 1600 ms after arming
    assert fires == [400_000, 800_000, 1_600_000]
    assert sf.died_us == 1_600_000
    assert sf.inflight_bytes == 0


def test_rto_floor_applies_when_srtt_small():
    sim = build_sim(1)
    flow = sim._flows[1]
    flow.sf.srtt_us = 10_000
    flow.sf.inflight_bytes = MSS
    sim._arm_rto(flow, sim.now_us)
    at, _, _, _ = sim._heap[0]
    assert at == 200_000  # max(2 * 10 ms, 200 ms)


def test_spurious_timeout_then_ack_resets_counter():
    sim = build_sim(1)
    flow = sim._flows[1]
    sf = flow.sf
    sim._fill(flow)
    # fresh flow: srtt 0 so the timer (200 ms) beats the first window's
    # first ack (211.68 ms)
    handlers = [step(sim) for _ in range(2)]
    assert handlers == [Simulation._on_timer, on_ack_arrival]
    assert sf.alive
    assert sf.consecutive_timeouts == 0
    # first sample: 11.68 ms serialization + 2 x 100 ms propagation
    assert sf.srtt_us == 211_680


def mark_backup(subflow_id):
    return lambda sim: sockopt.set_subflow_priority(sim.sender, SubPrioRequest(subflow_id, True))


def test_steady_run_keeps_one_rto_entry_per_flow():
    # The second input idles a backup, so it is probed, and cuts its link for
    # long enough that the probe times out three times, the sub-flow dies
    # and its re-establishment waits for the link to come back. Every flow,
    # dead ones included, holds at most one timer entry throughout.
    outage = [
        (1_000, mark_backup(2)),
        (3_000, link_action(2, False)),
        (8_500, link_action(2, True)),
    ]
    inputs = [(3, [], [True, True, True]), (2, outage, [True, False, True])]
    for n_links, actions, alive in inputs:
        sim = build_sim(n_links, duration_ms=10_000, actions=actions)
        sim.schedule_action(0, Simulation._bootstrap)
        events = 0
        while next_at(sim) < sim.duration_us:
            step(sim)
            events += 1
            for flow in sim._flows.values():
                assert len(timer_entries(sim, flow)) <= 1
        assert [flow.sf.alive for flow in sim._flows.values()] == alive
        assert all(timer_entries(sim, flow) for flow in sim._flows.values() if flow.sf.alive)
        # one event per segment, its ack: no arrival events, no stale timer fires
        segments = sum(flow.sf.bytes_sent_total for flow in sim._flows.values()) // MSS
        assert events < 1.1 * segments


def test_rearm_to_an_earlier_deadline_fires_at_the_new_one():
    sim = build_sim(1)
    flow = sim._flows[1]
    sf = flow.sf
    sf.inflight_bytes = MSS
    sf.srtt_us = 500_000
    sim._arm_rto(flow, sim.now_us)  # base 1 s
    # an ack at 100 ms after srtt fell: base max(2 * 50 ms, 200 ms)
    sim.now_us = 100_000
    sf.srtt_us = 50_000
    sim._arm_rto(flow, sim.now_us)
    assert sorted(entry[0] for entry in timer_entries(sim, flow)) == [300_000, 1_000_000]
    popped, timeouts = time_out_until_dead(sim, sf)
    assert timeouts == [300_000, 500_000, 900_000]
    assert popped == timeouts  # the stale 1 s entry is still in the heap
    assert sf.died_us == 900_000


def test_later_rearm_waits_for_the_pending_entry_then_doubles():
    sim = build_sim(1)
    flow = sim._flows[1]
    sf = flow.sf
    sf.inflight_bytes = MSS
    sf.srtt_us = 200_000
    sim._arm_rto(flow, sim.now_us)  # base 400 ms, pending at 400 ms
    sim.now_us = 100_000
    sim._arm_rto(flow, sim.now_us)  # an ack at 100 ms moves the deadline to 500 ms
    assert [entry[0] for entry in timer_entries(sim, flow)] == [400_000]
    popped, timeouts = time_out_until_dead(sim, sf)
    # the 400 ms entry is pushed again for 500 ms; then 1x, 2x and 4x the
    # base after the last ack, and the third timeout kills
    assert popped == [400_000, 500_000, 900_000, 1_700_000]
    assert timeouts == [500_000, 900_000, 1_700_000]
    assert sf.died_us == 1_700_000


@pytest.mark.parametrize("bandwidth_bps, dies", [(23_361, False), (23_360, True)])
def test_a_timer_runs_before_an_ack_of_the_same_us(bandwidth_bps, dies):
    # 1,460 B at 23,360 bps serialize in exactly 500 ms, so with 2 x 150 ms
    # the first ack lands at 800 ms, the third timeout of a fresh sub-flow.
    # The timeout runs first and kills it; 1 bps more is 22 µs early.
    sender = new_connection([addr("10.0.0.1")], [addr("10.0.1.1")])
    spec = LinkSpec(1, sender.mesh_pairs()[0], bandwidth_bps, 150)
    assert (simnet.first_ack_us(spec) >= simnet.FIRST_DEATH_US) is dies
    assert simnet.FIRST_DEATH_US == 800_000
    report = Simulation(sender, [spec], duration_ms=2_000).run()
    first = report.columns[0]
    assert first.died_ms == (800 if dies else None)


def test_mp_prio_is_lost_with_its_segment():
    # One action at t = 0 marks sub-flows 1 and 2 backup, which queues an
    # MP_PRIO on each, and its pump sends their first segments: each option
    # is due at the receiver at 100 ms, each segment at 111.68 ms. The same
    # action takes link 1 down, so its option leaves on a link that is
    # down. Link 2 goes down at 50 ms and is up again at 80 ms, so its option
    # arrives on an up link that has changed since it was sent. Both options
    # are lost with their segments, and both sub-flows die at 800 ms.
    def flip_and_cut(sim):
        mark_backup(1)(sim)
        mark_backup(2)(sim)
        sim.set_link_state(1, up=False)

    actions = [(0, flip_and_cut), (50, link_action(2, False)), (80, link_action(2, True))]
    sim = build_sim(2, duration_ms=1_500, actions=actions)
    sim.run()
    for flow in sim._flows.values():
        assert flow.sf.low_prio
        assert not flow.peer.low_prio
        assert flow.log == []
        assert flow.sf.srtt_us == 0  # its ack never came back
        assert flow.sf.died_us == 800_000


def test_finished_simulation_is_freed_by_reference_counting(monkeypatch):
    # Events still pending at the end stay on the heap. If they referred to
    # the simulation (as bound methods would), every finished run would
    # wait for the cycle collector instead of being freed at once. No other
    # reference cycle is left for it either, such as a link that points
    # back at its flow.
    run = Simulation.run
    pending, refs = [], []

    def run_and_watch(sim):
        report = run(sim)
        pending.append(len(sim._heap))
        refs.append(weakref.ref(sim))
        return report

    monkeypatch.setattr(Simulation, "run", run_and_watch)
    gc.collect()
    gc.disable()
    try:
        run_scenario(builtin_scenario("fig4"))
        freed = refs[0]() is None
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert pending[0] > 0
    assert freed
    assert unreachable == 0


# --------------------------------------------------------------------- #
# same-µs order and the ack FIFOs


@pytest.mark.parametrize("down_ms, acked", [(210, 0), (211, MSS)])
def test_an_action_runs_before_an_ack_of_the_same_us(down_ms, acked):
    # 1,460 B at 1,168,000 bps serialize in exactly 10 ms, so the first ack
    # is due at 210 ms. A link_down at that µs drops it; 1 ms later it counts.
    sender = new_connection([addr("10.0.0.1")], [addr("10.0.1.1")])
    spec = LinkSpec(1, sender.mesh_pairs()[0], 1_168_000, 100)
    sim = Simulation(sender, [spec], duration_ms=1_000)
    sim.schedule_action(down_ms, link_action(1, False))
    report = sim.run()
    assert sum(row.bytes_acked for row in report.rows) == acked


def record_applied(monkeypatch):
    """Replace the receiver's MP_PRIO handler with one that also records
    (carrying sub-flow, backup flag) of each call."""
    applied = []
    apply = sockopt.apply_remote_mp_prio

    def record(conn, opt, received_on=None):
        applied.append((received_on, opt.backup_flag))
        apply(conn, opt, received_on=received_on)

    monkeypatch.setattr(sockopt, "apply_remote_mp_prio", record)
    return applied


def looker(seen, subflow_id):
    """An action that records, by its µs, the receiver's flag of ``subflow_id``."""

    def look(sim):
        seen[sim.now_us] = sim.receiver.subflow_by_id(subflow_id).low_prio

    return look


@pytest.mark.parametrize("delay2_ms", [100, 99])
def test_an_mp_prio_travels_on_the_sub_flow_it_names(delay2_ms, monkeypatch):
    # Marking sub-flow 3 backup at 1 s queues an MP_PRIO while the windows
    # of sub-flows 1 and 2 are full. Whichever of their acks comes next,
    # with equal links or with link 2 1 ms shorter, the option travels on
    # sub-flow 3 and lands one 100 ms delay after the flip: an action 1 ms
    # before does not see it, nor does one at 1,100 ms, queued before the
    # option, and one 1 ms after does. Had it gone on link 2 at 99 ms, the
    # action at 1,100 ms would see it.
    applied, seen = record_applied(monkeypatch), {}
    sender = new_connection([addr("10.0.0.1")], [addr(f"10.0.{i}.1") for i in (1, 2, 3)])
    delays = (100, delay2_ms, 100)
    links = [
        LinkSpec(i + 1, mesh_pair, MBPS, delays[i])
        for i, mesh_pair in enumerate(sender.mesh_pairs())
    ]
    sim = Simulation(sender, links, duration_ms=2_000)
    sim.schedule_action(1_000, mark_backup(3))
    for at_ms in (1_099, 1_100, 1_101):
        sim.schedule_action(at_ms, looker(seen, 3))
    sim.run()
    assert applied == [(3, True)]
    assert seen == {1_099_000: False, 1_100_000: False, 1_101_000: True}
    assert sim.receiver.subflow_by_id(3).low_prio


def test_an_mp_prio_lands_exactly_one_one_way_delay_after_the_flip(monkeypatch):
    # An action reads the receiver's view as it is at its µs: the option
    # of the flip at 1 s has not landed at 1,099 ms and has landed at
    # 1,100 ms for an action queued after it (the next test).
    applied, seen = record_applied(monkeypatch), {}
    look = looker(seen, 2)

    def late(sim):
        sim.schedule_action(1_100, look)

    actions = [(1_000, mark_backup(2)), (1_099, look), (1_050, late)]
    sim = build_sim(3, duration_ms=1_500, actions=actions)
    sim.run()
    assert applied == [(2, True)]
    assert seen == {1_099_000: False, 1_100_000: True}


def test_an_mp_prio_due_at_an_action_s_us_is_applied_first_only_if_queued_first():
    # The options and the actions of one µs keep the order in which they
    # were queued. The flip at 1 s queues its MP_PRIO, due at 1,100 ms,
    # after the run has scheduled a look for then, which runs first; a look
    # that an action at 1,050 ms schedules for 1,100 ms runs after it.
    seen = []

    def look(name):
        return lambda sim: seen.append((name, sim.now_us, sim.receiver.subflow_by_id(2).low_prio))

    actions = [
        (1_000, mark_backup(2)),
        (1_100, look("before")),
        (1_050, lambda sim: sim.schedule_action(1_100, look("after"))),
    ]
    build_sim(3, duration_ms=1_500, actions=actions).run()
    assert seen == [("before", 1_100_000, False), ("after", 1_100_000, True)]


@pytest.mark.parametrize("flip_ms, lands", [(650, True), (651, False)])
def test_an_mp_prio_that_arrives_after_its_sub_flow_s_death_is_ignored(flip_ms, lands):
    # 1,460 B at 23,360 bps serialize in 500 ms, so with 2 x 150 ms the
    # first ack comes at 800 ms, and the third timeout of the fresh sub-flow
    # kills it first. A flip at 650 ms lands in the µs of the death, before
    # the timer: the receiver's copy turns backup, then dies. The option of
    # a flip 1 ms later reaches a dead sub-flow, which ignores it.
    sender = new_connection([addr("10.0.0.1")], [addr("10.0.1.1")])
    sim = Simulation(sender, [LinkSpec(1, sender.mesh_pairs()[0], 23_360, 150)], duration_ms=2_000)
    sim.schedule_action(flip_ms, mark_backup(1))
    sim.run()
    assert sim.sender.subflow_by_id(1).died_us == 800_000
    peer = sim.receiver.subflow_by_id(1)
    assert (peer.alive, peer.low_prio) == (False, lands)


def test_an_mp_prio_to_a_sub_flow_closed_on_its_way_is_ignored():
    # Sub-flow 2 is marked backup at 1 s and closed at 1,050 ms, before its
    # option lands at 1,100 ms: the option reaches no live sub-flow.
    actions = [(1_000, mark_backup(2)), (1_050, lambda sim: close_subflow(sim.sender, 2))]
    sim = build_sim(3, duration_ms=1_500, actions=actions)
    sim.run()
    peer = sim.receiver.subflow_by_id(2)
    assert (peer.alive, peer.low_prio) == (False, False)


@pytest.mark.parametrize("flip_ms, lands", [(1_399, True), (1_400, False)])
def test_an_mp_prio_at_or_after_the_run_s_end_is_never_applied(flip_ms, lands, monkeypatch):
    # A 1.5 s run ends at 1,500 ms: the option of a flip 100 ms before, due
    # then, never lands, and that of a flip 1 ms earlier does.
    applied = record_applied(monkeypatch)
    sim = build_sim(3, duration_ms=1_500, actions=[(flip_ms, mark_backup(2))])
    sim.run()
    assert applied == [(2, True)] * lands
    assert sim.receiver.subflow_by_id(2).low_prio is lands


@pytest.mark.parametrize(
    "changes",
    [
        [(990, False)],  # down at the flip and when the option arrives
        [(1_050, False)],  # goes down on the way
        [(1_050, False), (1_080, True)],  # back up, but no longer the same link
        [(1_050, True)],  # a link_up on an up link changes it as well
    ],
    ids=["down-at-the-flip", "down-on-the-way", "down-and-up", "up-on-up"],
)
def test_an_mp_prio_is_lost_on_a_link_that_is_down_or_changes_before_it_arrives(
    changes, monkeypatch
):
    actions = [(1_000, mark_backup(2))] + [(at_ms, link_action(2, up)) for at_ms, up in changes]
    sim = build_sim(3, duration_ms=1_500, actions=actions)
    applied = record_applied(monkeypatch)
    sim.run()
    assert applied == []
    assert sim.sender.subflow_by_id(2).low_prio
    assert not sim.receiver.subflow_by_id(2).low_prio


def test_a_window_sent_on_a_down_link_queues_no_acks(monkeypatch):
    # Sub-flow 2 is an idle backup on a 1 Mbps, 100 ms link; its first probe
    # at 1 s gives it a 200 ms srtt. Link 2 goes down at 1.3 s and link 1 at
    # 1.5 s, and sub-flow 1 dies of it at 2,298 ms. That death's pump fills
    # sub-flow 2's window on the down link: the window counts in flight, but
    # no ack is queued. The probe sent at 2.2 s, also on the down link, armed
    # its timer with a 400 ms base, so it dies at its third timeout, at
    # 2.2 + 4 * 0.4 s.
    sender = new_connection([addr("10.0.0.1")], [addr("10.0.1.1"), addr("10.0.2.1")])
    fast, slow = sender.mesh_pairs()
    links = [LinkSpec(1, fast, 5_840_000, 20), LinkSpec(2, slow, MBPS, 100)]
    sim = Simulation(sender, links, duration_ms=6_000)
    sim.schedule_action(0, mark_backup(2))
    sim.schedule_action(1_300, link_action(2, False))
    sim.schedule_action(1_500, link_action(1, False))
    after_kill, kill = [], Simulation._kill

    def record(sim, flow):
        kill(sim, flow)
        backup = sim._flows[2]
        after_kill.append((sim.now_us, flow.sf.id, backup.sf.inflight_bytes, list(backup.acks)))

    monkeypatch.setattr(Simulation, "_kill", record)
    sim.run()
    assert after_kill == [(2_298_000, 1, WINDOW, []), (3_800_000, 2, 0, [])]
    assert sim._flows[2].log == []


def test_acks_after_a_short_outage_are_handled_at_their_own_times():
    # Sub-flow 2 is a draining backup when link 2 flaps for 20 ms at 1.1 s:
    # its segments in flight are lost, but it lives on, and marking sub-flow
    # 1 backup at 1.15 s has it carry again on the restarted link. Its first
    # new ack is due at 1,361.68 ms, before the last lost one (1,368 ms).
    overdue = []

    def look(sim):
        for flow in sim._flows.values():
            overdue.extend(at for at, *_ in expand(flow.acks) if at < sim.now_us)

    actions = [
        (1_000, mark_backup(2)),
        (1_100, link_action(2, False)),
        (1_120, link_action(2, True)),
        (1_150, mark_backup(1)),
        (1_365, look),
    ]
    report = build_sim(2, duration_ms=4_000, actions=actions).run()
    assert overdue == []
    assert [rec.died_ms for rec in report.columns] == [None, None]


# --------------------------------------------------------------------- #
# throughput model


def test_steady_state_saturates_each_link():
    report = build_sim(3, duration_ms=10_000).run()
    per = bytes_by_flow_bucket(report)
    # analytic rate oracle: min(window / rtt, bandwidth)
    base_rtt_s = (MSS * 8 / MBPS) + 0.2
    expected_bps = min(WINDOW * 8 / base_rtt_s, MBPS)
    assert expected_bps == MBPS  # window chosen above the path BDP
    for bucket in range(2, 10):
        for flow in (1, 2, 3):
            rate = per[(bucket, flow)] * 8
            assert abs(rate - expected_bps) <= 0.1 * expected_bps


def test_per_flow_bucket_rate_never_exceeds_link_capacity():
    report = run_scenario(builtin_scenario("fig4"))
    for row in report.rows:
        # one MSS of slack: ack arrivals quantize serialization across
        # bucket boundaries
        assert row.bytes_acked <= MBPS // 8 + MSS


def test_acked_never_exceeds_sent():
    sim = build_sim(
        2,
        duration_ms=20_000,
        actions=[(5_000, link_action(1, False)), (12_000, link_action(1, True))],
    )
    report = sim.run()
    acked = {}
    for row in report.rows:
        acked[row.subflow_id] = acked.get(row.subflow_id, 0) + row.bytes_acked
    for sf in sim.sender.subflows:
        assert acked.get(sf.id, 0) <= sf.bytes_sent_total


def test_single_path_ppos_timeline_identical_to_default():
    plain = build_sim(1, duration_ms=8_000).run()

    def enable(sim):
        sockopt.enable_primary_path_only(sim.sender, sim.sender.mesh_pairs())

    ppos = build_sim(1, duration_ms=8_000, actions=[(0, enable)]).run()
    assert ppos == plain


# --------------------------------------------------------------------- #
# failure, detection and re-establishment


def test_a_sub_flow_re_opened_past_the_last_port_wraps_to_the_port_base():
    # PORT_BASE + 25,600 would be 65,600, past 0xFFFF: the port wraps, and
    # the re-opened sub-flow's endpoints are ones the checked constructor
    # accepts, at both ends.
    sim = build_sim(1, duration_ms=6_000)
    sim.sender.next_id = sim.receiver.next_id = 25_600
    sim.schedule_action(1_000, link_action(1, False))
    sim.schedule_action(4_000, link_action(1, True))
    report = sim.run()
    assert [c.subflow_id for c in report.columns] == [1, 25_600]
    assert report.columns[1].died_us is None
    for conn in (sim.sender, sim.receiver):
        sf = conn.subflow_by_id(25_600)
        assert sf.src.port == sf.dst.port == PORT_BASE + 64 == subflow_port(25_600)
        assert (EndpointAddress(*sf.src), EndpointAddress(*sf.dst)) == (sf.src, sf.dst)


def test_a_flapping_mesh_builds_nothing_checked_after_parsing(monkeypatch):
    # Every address and pair was checked when the scenario was parsed, so
    # neither the set-up nor the sub-flows re-opened in the run check one
    # again: none goes through a checked constructor.
    scenario = parse_scenario(
        "scenario flaps\nduration 8s\n"
        "link 1 10mbps 5ms 10.0.0.1 10.0.1.1\nlink 2 10mbps 7ms 10.0.0.1 10.0.2.1\n"
        "link 3 10mbps 9ms 10.0.0.2 10.0.1.1\nlink 4 10mbps 11ms 10.0.0.2 10.0.2.1\n"
        "at 1s link_down 1 4\nat 3500ms link_up 1 4\nat 4s link_down 2\nat 6500ms link_up 2\n"
    )
    checked = []
    for cls in (EndpointAddress, InterfacePair):
        def counting(cls, *args, new=cls.__new__, **kwargs):
            checked.append(cls)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(cls, "__new__", staticmethod(counting))
    EndpointAddress.from_string("10.0.0.1")
    assert checked == [EndpointAddress]  # the count sees a checked build
    checked.clear()
    report = run_scenario(scenario)
    assert len(report.columns) == 7  # 3 re-opened
    assert checked == []


def test_outage_kills_busy_subflow_and_reestablishes_within_a_second():
    sim = build_sim(
        2,
        duration_ms=20_000,
        actions=[(5_000, link_action(1, False)), (12_000, link_action(1, True))],
    )
    report = sim.run()
    records = {rec.subflow_id: rec for rec in report.columns}
    # busy sub-flow died a few retransmission timeouts after the cut
    assert records[1].died_ms is not None
    assert 5_000 < records[1].died_ms < 9_000
    # its pair came back as a brand-new sub-flow within one attempt period
    successor = records[3]
    assert successor.pair == records[1].pair
    assert 12_000 < successor.created_ms <= 13_100
    assert successor.died_ms is None


def test_dead_path_is_silent_until_successor_exists():
    sim = build_sim(
        2,
        duration_ms=20_000,
        actions=[(5_000, link_action(1, False)), (12_000, link_action(1, True))],
    )
    report = sim.run()
    per = bytes_by_flow_bucket(report)
    died_bucket = next(
        rec.died_ms // 1000 for rec in report.columns if rec.subflow_id == 1
    )
    created_bucket = next(
        rec.created_ms // 1000
        for rec in report.columns
        if rec.subflow_id == 3
    )
    for bucket in range(6, 20):
        assert per.get((bucket, 1), 0) == 0
    for bucket in range(died_bucket + 1, created_bucket):
        assert per.get((bucket, 3), 0) == 0  # no rows before creation
    assert per[(created_bucket + 1, 3)] > 0


def test_surviving_path_carries_through_the_outage():
    sim = build_sim(
        2,
        duration_ms=20_000,
        actions=[(5_000, link_action(1, False)), (12_000, link_action(1, True))],
    )
    per = bytes_by_flow_bucket(sim.run())
    for bucket in range(20):
        assert per[(bucket, 2)] > 0


def test_idle_backup_survives_via_probes():
    def mark_backup(sim):
        sockopt.set_subflow_priority(sim.sender, SubPrioRequest(2, True))

    sim = build_sim(2, duration_ms=15_000, actions=[(1_000, mark_backup)])
    report = sim.run()
    per = bytes_by_flow_bucket(report)
    for bucket in range(3, 15):
        assert per[(bucket, 2)] == 0  # silent while an active exists
    rec = next(r for r in report.columns if r.subflow_id == 2)
    assert rec.died_ms is None  # probes kept it alive the whole run


def test_downing_an_idle_backup_link_changes_no_throughput():
    def mark_backup(sim):
        sockopt.set_subflow_priority(sim.sender, SubPrioRequest(2, True))

    baseline = build_sim(
        2, duration_ms=15_000, actions=[(1_000, mark_backup)]
    ).run()
    dropped = build_sim(
        2,
        duration_ms=15_000,
        actions=[(1_000, mark_backup), (8_000, link_action(2, False))],
    ).run()
    base_per = bytes_by_flow_bucket(baseline)
    drop_per = bytes_by_flow_bucket(dropped)
    for bucket in range(15):
        assert drop_per[(bucket, 1)] == base_per[(bucket, 1)]
        assert drop_per.get((bucket, 2), 0) == base_per.get((bucket, 2), 0)
    for bucket in range(3, 15):
        assert drop_per.get((bucket, 2), 0) == 0
    # the idle path was detected dead through probe timeouts
    rec = next(r for r in dropped.columns if r.subflow_id == 2)
    assert rec.died_ms is not None and 8_000 < rec.died_ms < 14_000


def test_backup_silence_while_actives_schedulable():
    report = run_scenario(builtin_scenario("fig4"))
    per = bytes_by_flow_bucket(report)
    # sub-flows 2 and 3 are backup from t=15 s and sub-flow 1 carries alone
    for bucket in range(17, 35):
        assert per.get((bucket, 2), 0) == 0
        assert per.get((bucket, 3), 0) == 0


def test_mp_prio_reaches_the_receiver_one_trip_after_the_local_flip():
    seen = {}

    def mark_backup(sim):
        sockopt.set_subflow_priority(sim.sender, SubPrioRequest(2, True))

    def look(sim):
        seen[sim.now_us // 1000] = sim.receiver.subflow_by_id(2).low_prio

    actions = [(1_000, mark_backup), (1_001, look), (1_500, look)]
    sim = build_sim(3, duration_ms=2_000, actions=actions)
    sim.run()
    # the option rides the next segment and lands at least one 100 ms delay later
    assert seen == {1_001: False, 1_500: True}
    assert sim.sender.subflow_by_id(2).low_prio


def flag_history(report):
    """(µs, flag) pairs of each column's flag history, by sub-flow id."""
    return {c.subflow_id: list(zip(c.flag_times, c.flag_values)) for c in report.columns}


def test_an_action_that_flips_a_sub_flow_and_back_records_no_flag_change(monkeypatch):
    # The run records a flip from the MP_PRIOs that an action queues. One
    # action that sets sub-flow 2 backup and then active again leaves its
    # flag where it was: no change is recorded, and both options arrive.
    def there_and_back(sim):
        for low_prio in (True, False):
            sockopt.set_subflow_priority(sim.sender, SubPrioRequest(2, low_prio))

    sim = build_sim(3, duration_ms=1_500, actions=[(1_000, there_and_back)])
    applied = record_applied(monkeypatch)
    report = sim.run()
    assert applied == [(2, True), (2, False)]
    assert flag_history(report) == {i: [(0, False)] for i in (1, 2, 3)}
    assert not sim.receiver.subflow_by_id(2).low_prio


def test_enable_ppos_records_the_flips_it_queues_at_the_action_s_us():
    def ppos(sim):
        sockopt.enable_primary_path_only(sim.sender, sim.sender.mesh_pairs()[:1])

    report = build_sim(3, duration_ms=1_500, actions=[(1_000, ppos)]).run()
    assert flag_history(report) == {
        1: [(0, False)],
        2: [(0, False), (1_000_000, True)],
        3: [(0, False), (1_000_000, True)],
    }


def test_identical_runs_produce_identical_reports():
    assert run_scenario(builtin_scenario("fig4")) == run_scenario(
        builtin_scenario("fig4")
    )


# --------------------------------------------------------------------- #
# validation


def test_every_mesh_pair_needs_a_link():
    sender = new_connection([addr("10.0.0.1")], [addr("10.0.1.1"), addr("10.0.2.1")])
    links = [LinkSpec(1, sender.mesh_pairs()[0], MBPS, 100)]
    with pytest.raises(ValidationError):
        Simulation(sender, links, duration_ms=1000)


def test_link_must_serve_a_connection_pair():
    sender = new_connection([addr("10.0.0.1")], [addr("10.0.1.1")])
    stray = LinkSpec(2, sender.mesh_pairs()[0], MBPS, 100)
    from helpers import pair

    links = [
        LinkSpec(1, sender.mesh_pairs()[0], MBPS, 100),
        LinkSpec(3, pair("10.9.0.1", "10.9.1.1"), MBPS, 100),
    ]
    with pytest.raises(ValidationError):
        Simulation(sender, links, duration_ms=1000)
    del stray


@pytest.mark.parametrize(
    "close, reopen",
    [(True, True), (True, False), (False, True)],
    ids=["closed-and-reopened", "closed", "two-live"],
)
def test_the_sender_must_hold_one_live_sub_flow_per_link_pair(close, reopen):
    # Closed and re-opened, sub-flow 2 would stay on link 2 beside sub-flow
    # 3, and run, it would open a fourth sub-flow there a second in.
    sender = new_connection([addr("10.0.0.1")], [addr("10.0.1.1"), addr("10.0.2.1")])
    links = [LinkSpec(i + 1, p, MBPS, 100) for i, p in enumerate(sender.mesh_pairs())]
    if close:
        close_subflow(sender, 2)
    if reopen:
        open_subflow(sender, tuple_for_next(sender, sender.mesh_pairs()[1]))
    with pytest.raises(ValidationError, match="one live sub-flow per link pair"):
        Simulation(sender, links, duration_ms=3_000)


def test_a_sub_flow_closed_by_an_action_dies_at_the_action_s_us():
    # Sub-flow 2 of two 1 Mbps / 100 ms pairs is closed at 1 s of a 4 s run.
    # It dies there at both ends: its last row is the bucket that ends at
    # its death, and the receiver's copy is dead too. Its successor opens a
    # second later, as after any death, not at 1,743 ms, when the timer it
    # had pending when it was closed is due.
    sim = build_sim(2, duration_ms=4_000, actions=[(1_000, lambda s: close_subflow(s.sender, 2))])
    report = sim.run()
    assert [(c.subflow_id, c.created_ms, c.died_ms) for c in report.columns] == [
        (1, 0, None),
        (2, 0, 1_000),
        (3, 2_000, None),
    ]
    assert [row.bucket_start_ms for row in report.rows if row.subflow_id == 2] == [0]
    assert [sf.alive for sf in sim.receiver.subflows] == [True, False, True]
    assert not sim._flows[2].acks and sim.sender.subflow_by_id(2).inflight_bytes == 0


@pytest.mark.parametrize("flip", [True, False], ids=["and-flips-it", "alone"])
def test_an_action_that_opens_a_sub_flow_is_rejected(flip):
    # The simulator serves only the sub-flows it opens itself. One that an
    # action opens, after closing sub-flow 2, would get no simulator state,
    # yet the scheduler would rank it, and its flip would name no flow.
    def reopen(sim):
        close_subflow(sim.sender, 2)
        sf_id = open_subflow(sim.sender, tuple_for_next(sim.sender, sim.sender.mesh_pairs()[1]))
        if flip:
            sockopt.set_subflow_priority(sim.sender, SubPrioRequest(sf_id, True))

    sim = build_sim(2, duration_ms=3_000, actions=[(1_000, reopen)])
    with pytest.raises(ValidationError, match="may not open sub-flows"):
        sim.run()


def test_unknown_link_id_rejected_at_runtime():
    sim = build_sim(1, duration_ms=1000)
    with pytest.raises(ValidationError):
        sim.set_link_state(9, up=False)


def test_link_spec_validation():
    from helpers import pair

    with pytest.raises(ValidationError):
        LinkSpec(1, pair("10.0.0.1", "10.0.1.1"), 0, 100)
    with pytest.raises(ValidationError):
        LinkSpec(1, pair("10.0.0.1", "10.0.1.1"), MBPS, -5)


@pytest.mark.parametrize(
    "link_id, pair_text, bandwidth_bps, delay_ms, message",
    [
        (1, None, 1_500_000.0, 10, "link 1: bandwidth must be a whole number: 1500000.0"),
        (1, None, MBPS, 10.5, "link 1: delay must be a whole number: 10.5"),
        (1, "not a pair", MBPS, 10, "link 1: pair must be an InterfacePair: 'not a pair'"),
        ([1], None, MBPS, 10, "link [1]: id must be a whole number: [1]"),
        (True, None, MBPS, 10, "link True: id must be a whole number: True"),
        (1, None, True, 10, "link 1: bandwidth must be a whole number: True"),
        (1, None, MBPS, False, "link 1: delay must be a whole number: False"),
    ],
    ids=["float-bandwidth", "float-delay", "not-a-pair", "list-id", "bool-id", "bool-bandwidth",
         "bool-delay"],
)
def test_a_link_spec_takes_whole_numbers_and_an_interface_pair(
    link_id, pair_text, bandwidth_bps, delay_ms, message
):
    # A float bandwidth or delay would make the run's integer ranges raise a
    # bare TypeError, and an unhashable id the topology check, so the spec
    # refuses them when built, as it does a pair that no link could serve.
    from helpers import pair

    link_pair = pair("10.0.0.1", "10.0.1.1") if pair_text is None else pair_text
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        LinkSpec(link_id, link_pair, bandwidth_bps, delay_ms)


def test_a_link_without_delay_must_take_a_us_per_segment():
    # Otherwise an ack comes back, and sends the next segment, in the µs
    # its own segment was sent, and the clock never moves.
    from helpers import pair

    p = pair("10.0.0.1", "10.0.1.1")
    LinkSpec(1, p, 11_680_000_000, 0)  # 1,460 B in exactly 1 µs
    LinkSpec(1, p, 20_000_000_000, 1)
    with pytest.raises(ValidationError, match="at 0 ms delay"):
        LinkSpec(1, p, 11_680_000_001, 0)


def test_nonpositive_duration_rejected():
    sender = new_connection([addr("10.0.0.1")], [addr("10.0.1.1")])
    links = [LinkSpec(1, sender.mesh_pairs()[0], MBPS, 100)]
    with pytest.raises(ValidationError):
        Simulation(sender, links, duration_ms=0)


@pytest.mark.parametrize(
    "times, message",
    [
        ({"duration_ms": 5000.5}, "duration must be a whole number of ms: 5000.5"),
        ({"bucket_ms": 0.5}, "bucket width must be a whole number of ms: 0.5"),
        ({"bucket_ms": 250.0}, "bucket width must be a whole number of ms: 250.0"),
    ],
    ids=["duration_5000.5", "bucket_0.5", "bucket_250.0"],
)
def test_a_run_s_times_must_be_whole_ms(times, message):
    """A fractional duration or bucket width would reach the report's rows
    as a bare TypeError; the constructor rejects it."""
    sender = new_connection([addr("10.0.0.1")], [addr("10.0.1.1")])
    links = [LinkSpec(1, sender.mesh_pairs()[0], MBPS, 100)]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        Simulation(sender, links, **{"duration_ms": 5_000, **times})


@pytest.mark.parametrize("at_ms", [1.5, -5])
def test_an_action_s_time_must_be_whole_ms_and_not_negative(at_ms):
    """A fractional time would reach the flag history and the report as a
    bare TypeError, and a negative one ran before the bootstrap and left
    the flag history at ``[0, -5000]``; ``schedule_action`` rejects both
    and schedules nothing."""
    sim = build_sim(2, duration_ms=2_000)
    message = f"an action's time must be a whole number of ms >= 0: {at_ms}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        sim.schedule_action(at_ms, mark_backup(2))
    sim.run()
    assert [flow.flag_times for flow in sim._flows.values()] == [[0], [0]]


@pytest.mark.parametrize("at_ms", [2_000, 2_500])
def test_an_action_the_run_never_reaches_is_rejected(at_ms):
    """An action at or after the end of the run stayed on the heap and
    never ran; ``schedule_action`` rejects it and schedules nothing, and
    an action in the run's last ms still runs."""
    sim = build_sim(2, duration_ms=2_000)
    message = f"an action at {at_ms} ms would never run: the run ends first"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        sim.schedule_action(at_ms, mark_backup(2))
    sim.schedule_action(1_999, mark_backup(1))
    sim.run()
    assert [flow.flag_times for flow in sim._flows.values()] == [[0, 1_999_000], [0]]


def test_an_action_may_not_schedule_one_in_the_past():
    """An action at 2 s that scheduled one at 1 s sent the run back in time:
    the two recorded ``now_us`` as 2,000,000 and then 1,000,000. Once the
    run has started, ``schedule_action`` rejects a time before its current
    µs, and the error ends the run."""
    times = []

    def record(sim):
        times.append(sim.now_us)

    def schedule_earlier(sim):
        record(sim)
        if len(times) == 1:  # once, should the run come back to it
            sim.schedule_action(1_000, record)

    sim = build_sim(1, duration_ms=3_000, actions=[(2_000, schedule_earlier)])
    message = "an action at 1000 ms would run in the past: the run is at 2000000 µs"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        sim.run()
    assert times == [2_000_000]


def test_an_action_scheduled_for_the_current_us_runs_after_those_already_due():
    # An action at 2 s schedules another for its own µs, which runs after
    # it and after the action already scheduled for that µs.
    order = []

    def record(name):
        return lambda sim: order.append((name, sim.now_us))

    def first(sim):
        record("first")(sim)
        sim.schedule_action(2_000, record("third"))

    build_sim(1, duration_ms=3_000, actions=[(2_000, first), (2_000, record("second"))]).run()
    assert order == [("first", 2_000_000), ("second", 2_000_000), ("third", 2_000_000)]


# At 10 kbps no first segment is acked before its sub-flow dies, 800 ms
# after it is sent, so link 1 goes through 223 sub-flows in 400 s, none of
# which acks a byte, while link 2's one sub-flow carries data throughout.
SLOW_LINK_DOC = (
    "scenario slow_link\nduration 400s\n"
    "link 1 10kbps 150ms 10.0.0.1 10.0.1.1\nlink 2 1mbps 10ms 10.0.0.1 10.0.2.1\n"
)


def test_a_log_grows_with_the_runs_of_acks_not_with_the_run(monkeypatch):
    # At 1 ms buckets the run has 400,000 of them. A flow logs its acks as
    # runs, not by bucket, so link 1's 223 sub-flows log none, and link 2's
    # one logs a single run: its train's acks, one MSS's 11,680 µs apart
    # from the first at 31.68 ms on. The report turns each column's log into
    # one entry per row.
    monkeypatch.delenv(PPOS_ENV_VAR, raising=False)
    report = run_scenario(parse_scenario(SLOW_LINK_DOC), bucket_ms=1)
    assert len(report.columns) == 224
    assert [column.subflow_id for column in report.columns if column.log] == [2]
    assert report.columns[1].log == [(31_680, 34_244, 11_680)]
    for column in report.columns:
        end_us = 400_000_000 if column.died_us is None else column.died_us
        first, acked = report.acked(column)
        assert first == column.flag_times[0] // 1000, column.subflow_id
        assert len(acked) == (end_us - 1) // 1000 + 1 - first, column.subflow_id
