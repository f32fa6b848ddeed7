"""The simulator's profiling seams.

Profilers (such as the benchmark's tracer) count the per-segment calls by
replacing module attributes of ``mpflow.simnet`` while a run is traced, so
``Simulation`` must look ``select``, ``heapq`` and the receiver's MP_PRIO
handler up at call time, and only timers may go through ``heapq``, not the
ack calendar's entries. The benchmark's tracer, which relies on these
seams, must count a traced pass the same way twice. The sub-flow's cached
interface pair must also stay equal to the pair of its endpoints, for
sub-flows re-created during the run as well.
"""

import io
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest

import mpflow
from mpflow import simnet, sockopt
from mpflow.model import InterfacePair, close_subflow, new_connection
from mpflow.scenario import BUILTIN_DOCS, PPOS_ENV_VAR, parse_scenario, run_scenario
from mpflow.simnet import LinkSpec, Simulation
from mpflow.sockopt import SubPrioRequest
from helpers import acks_handled, addr, expand
from scenario_gen import perfbench_module, perfbench_workloads


def build_steady_sim():
    """Three 1 Mbps links with 100 ms delay that stay up for 6 s."""
    sender = new_connection([addr("10.0.0.1")], [addr(f"10.0.{i}.1") for i in (1, 2, 3)])
    links = [
        LinkSpec(i + 1, mesh_pair, 1_000_000, 100)
        for i, mesh_pair in enumerate(sender.mesh_pairs())
    ]
    return Simulation(sender, links, duration_ms=6_000)


def build_flapping_sim():
    """The steady run, but link 1 is down from 1 s to 3 s, long enough to
    kill its sub-flow, which is re-created once the link is back."""
    sim = build_steady_sim()
    sim.schedule_action(1_000, lambda s: s.set_link_state(1, up=False))
    sim.schedule_action(3_000, lambda s: s.set_link_state(1, up=True))
    return sim


def test_run_looks_up_select_and_heapq_at_call_time(monkeypatch):
    counts = {"select": 0, "heappush": 0, "heappop": 0}
    select, heapq = simnet.select, simnet.heapq

    def counting_select(conn, mss, window):
        counts["select"] += 1
        return select(conn, mss, window)

    def counting_heappush(heap, item):
        counts["heappush"] += 1
        heapq.heappush(heap, item)

    def counting_heappop(heap):
        counts["heappop"] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(simnet, "select", counting_select)
    monkeypatch.setattr(
        simnet, "heapq", SimpleNamespace(heappush=counting_heappush, heappop=counting_heappop)
    )
    build_flapping_sim().run()
    assert counts["select"] > 0
    assert counts["heappush"] > 0
    assert counts["heappop"] > 0


def test_only_heap_events_go_through_the_heapq_seam(monkeypatch):
    """The benchmark's tracer counts heap events by rebinding
    ``simnet.heapq``, so the ack calendar keeps its pushes and pops off that
    seam: every item pushed or popped through it is a timer entry
    ``(at, sub-flow id, seq, flow)``, while the calendar's own ``(head
    arrival, sub-flow id, flow)`` entries go through ``simnet.heappush`` and
    ``simnet.heappop``. Actions and MP_PRIO options are not heap events,
    and every pop runs a timer."""
    pushed, popped, calendar, timers = [], [], [], Counter()
    heapq, on_timer = simnet.heapq, Simulation._on_timer

    def seam_heappush(heap, item):
        pushed.append(item)
        heapq.heappush(heap, item)

    def seam_heappop(heap):
        popped.append(heapq.heappop(heap))
        return popped[-1]

    def calendar_heappush(heap, item):
        calendar.append(item)
        heapq.heappush(heap, item)

    def counting_on_timer(sim, flow, seq):
        timers[flow.sf.id] += 1
        on_timer(sim, flow, seq)

    monkeypatch.setattr(
        simnet, "heapq", SimpleNamespace(heappush=seam_heappush, heappop=seam_heappop)
    )
    monkeypatch.setattr(simnet, "heappush", calendar_heappush)
    monkeypatch.setattr(Simulation, "_on_timer", counting_on_timer)
    sim = build_flapping_sim()
    request = SubPrioRequest(2, True)
    sim.schedule_action(2_000, lambda s: sockopt.set_subflow_priority(s.sender, request))
    sim.run()
    for at, sf_id, seq, flow in pushed:
        assert isinstance(at, int) and isinstance(seq, int) and flow is sim._flows[sf_id]
    assert {sf_id for _, sf_id, _, _ in pushed} == {1, 2, 3, 4}  # 4 re-opens link 1
    assert sorted(popped + sim._heap) == sorted(pushed)
    assert timers == Counter(sf_id for _, sf_id, _, _ in popped)
    assert calendar and all(flow.sf.id == sf_id for _, sf_id, flow in calendar)


def test_every_delivered_mp_prio_goes_through_the_sockopt_seam(monkeypatch):
    """The benchmark's tracer counts MP_PRIO deliveries by replacing
    ``simnet.sockopt.apply_remote_mp_prio``. A replacement that only
    records sees every delivered option, and the receiver's flags then stay
    at their birth values: nothing else writes them."""

    def flip(subflow_id, low_prio):
        request = SubPrioRequest(subflow_id, low_prio)
        return lambda sim: sockopt.set_subflow_priority(sim.sender, request)

    def ppos(sim):
        sockopt.enable_primary_path_only(sim.sender, sim.sender.mesh_pairs()[:1])

    def build():
        sim = build_steady_sim()
        for at_ms, action in ((1_000, flip(2, True)), (2_000, flip(2, False)), (3_000, ppos)):
            sim.schedule_action(at_ms, action)
        return sim

    sim, seen = build(), []

    def record(conn, opt, received_on=None):
        seen.append((received_on, opt.backup_flag))

    monkeypatch.setattr(simnet.sockopt, "apply_remote_mp_prio", record)
    sim.run()
    assert seen == [(2, True), (2, False), (2, True), (3, True)]
    assert [sf.low_prio for sf in sim.receiver.subflows] == [False] * 3
    monkeypatch.undo()
    sim = build()
    sim.run()
    assert [sf.low_prio for sf in sim.receiver.subflows] == [False, True, True]


def test_cached_pair_matches_endpoints_after_recreation():
    sim = build_flapping_sim()
    sim.run()
    assert len(sim.sender.subflows) > 3  # link 1's sub-flow was re-created
    for conn in (sim.sender, sim.receiver):
        assert len(conn.subflows) == len(sim.sender.subflows)
        for sf in conn.subflows:
            assert sf.pair() == InterfacePair.between(sf.src, sf.dst)


def build_mesh16_sim(duration_ms):
    """Four local and four remote addresses, and a 10 Mbps link with 20 ms
    delay for each of their 16 pairs."""
    sender = new_connection(
        [addr(f"10.0.0.{i}") for i in range(1, 5)], [addr(f"10.1.{i}.1") for i in range(1, 5)]
    )
    links = [LinkSpec(i + 1, pair, 10_000_000, 20) for i, pair in enumerate(sender.mesh_pairs())]
    return Simulation(sender, links, duration_ms)


def count_selects_by_handler(run):
    """Call ``run()``, which runs simulations. Count by the innermost
    handler that made them (``"__init__"`` outside any, as when a
    ``Simulation`` is built): their ``select`` calls, their ``tier`` calls
    and the flows their pumps visit, which are every alive flow when the
    pump is the bootstrap's or the deciding tier moved, and else the flows
    handed to it. Also count how often each handler ran, the acks handled:
    by ``_on_acks``, of clocked flows (each data ack sends one segment,
    there) and of unclocked ones (which send nothing), and in trains (each
    sends one segment), counted as each train ends; and, by handler, the
    runs of data acks logged, one step each, and the entries that they add
    to the logs, as a run that continues the last one extends it. Return
    them as a namespace of Counters."""
    stack, runs, acks, logged, entries = [], Counter(), Counter(), Counter(), Counter()
    selects, tiers, visits = Counter(), Counter(), Counter()
    with pytest.MonkeyPatch.context() as patch:

        def wrap(name):
            method = getattr(Simulation, name)

            def wrapped(sim, *args):
                runs[name] += 1
                stack.append(name)
                try:
                    return method(sim, *args)
                finally:
                    stack.pop()

            patch.setattr(Simulation, name, wrapped)

        for name in (
            "_bootstrap",
            "_on_action",
            "_kill",
            "_open_on_pair",
            "_drain_acks",
            "_on_acks",
            "_on_timer",
            "_train",
            "_end_train",
        ):
            wrap(name)
        select, tier, on_acks = simnet.select, simnet.tier, Simulation._on_acks
        end_train, pump, log = Simulation._end_train, Simulation._pump, simnet._log

        def counting_select(conn, mss, window):
            selects[stack[-1]] += 1
            return select(conn, mss, window)

        def counting_tier(conn, sf):
            tiers[stack[-1] if stack else "__init__"] += 1
            return tier(conn, sf)

        def counting_pump(sim, flows=None, timer_id=0):
            newest = sim._newest_flow.values()
            deciding, alive = sim._deciding, sum(flow.sf.died_us is None for flow in newest)
            pump(sim, flows, timer_id)
            moved = flows is None or sim._deciding != deciding
            visits[stack[-1]] += alive if moved else len(flows)

        def counting_on_acks(sim, flow, horizon):
            queued, sent = len(expand(flow.acks)), flow.sf.bytes_sent_total
            on_acks(sim, flow, horizon)
            acks["clocked" if flow.clocked else "unclocked"] += acks_handled(flow, queued, sent)

        def counting_end_train(sim, flow, until):
            sent = flow.sf.bytes_sent_total
            end_train(sim, flow, until)
            acks["trained"] += (flow.sf.bytes_sent_total - sent) // simnet.MSS

        def counting_log(flow_log, a, k, g):
            logged[stack[-1]] += 1
            before = len(flow_log)
            log(flow_log, a, k, g)
            entries[stack[-1]] += len(flow_log) - before

        patch.setattr(simnet, "select", counting_select)
        patch.setattr(simnet, "tier", counting_tier)
        patch.setattr(Simulation, "_pump", counting_pump)
        patch.setattr(Simulation, "_on_acks", counting_on_acks)
        patch.setattr(Simulation, "_end_train", counting_end_train)
        patch.setattr(simnet, "_log", counting_log)
        run()
    return SimpleNamespace(
        selects=selects, tiers=tiers, visits=visits, runs=runs, acks=acks, logged=logged,
        entries=entries,
    )


def test_select_runs_only_when_the_tiers_can_change():
    """An ack refills its own flow without asking the scheduler, and each
    alive flow keeps its tier, which the simulation counts, so ``select``
    runs once per run, in the bootstrap's pump; never in ``_on_acks`` or a
    train, which handle many acks at once. A flow is ranked with ``tier``
    when it is built and again only where its tier or life may change, and
    a pump visits only such flows, unless the deciding tier moves. On the
    steady run, the bootstrap's one ``select`` names the tier whose three
    empty windows its pump fills. The flapping run's two link actions
    change no tier, so their pumps visit no flow; its one death and its one
    re-opening each visit their own flow, and the re-opened one is ranked.
    At the parent design, every pump asked ``select`` and ranked every
    alive flow."""
    counts = count_selects_by_handler(lambda: build_steady_sim().run())
    assert sum(counts.acks.values()) > 1000
    assert counts.selects == {"_bootstrap": 1}
    assert counts.tiers == {"__init__": 3}
    assert counts.visits == {"_bootstrap": 3}

    counts = count_selects_by_handler(lambda: build_flapping_sim().run())
    assert sum(counts.acks.values()) > 1000
    assert (counts.runs["_kill"], counts.runs["_open_on_pair"]) == (1, 1)
    assert counts.selects == {"_bootstrap": 1}
    assert counts.tiers == {"__init__": 3, "_open_on_pair": 1}
    assert counts.visits == {"_bootstrap": 3, "_on_action": 0, "_kill": 1, "_open_on_pair": 1}


def test_an_action_that_closes_a_sub_flow_visits_that_flow_alone():
    """``close_subflow`` records the id it closes on the connection, as a
    flip queues its id in the outbox, so the pump of an action that closes
    sub-flow 5 of 16 active ones visits that flow alone, and the deciding
    tier stays, so no part of the action reads the newest flow of every
    link. At the parent design, ``_on_action`` scanned all 16 for a closed
    one after every action."""

    def run(scans=None):
        sim = build_mesh16_sim(3_000)
        sim.schedule_action(1_000, lambda s: close_subflow(s.sender, 5))
        if scans is not None:

            class Newest(dict):
                def values(self):
                    scans.append(sim.now_us)
                    return super().values()

            sim._newest_flow = Newest(sim._newest_flow)
        sim.run()
        assert sim.sender.closed_ids == []  # read by the action's pump
        return sim

    counts = count_selects_by_handler(run)
    assert (counts.runs["_on_action"], counts.visits["_on_action"]) == (1, 1)
    scans = []
    sim = run(scans)
    assert sim.sender.subflow_by_id(5).died_us == 1_000_000
    assert 1_000_000 not in scans and scans


@pytest.mark.parametrize(
    "name, selects, tiers, action_visits",
    [("mesh16_flaps", 2, 63, 0), ("prio_churn_fine", 4, 2_250, 2_492)],
)
def test_the_benchmark_workloads_ask_select_once_per_run(name, selects, tiers, action_visits):
    """On a pass of the benchmark's ``mesh16_flaps`` or ``prio_churn_fine``
    at seed 0, ``select`` runs once per scenario, in its bootstrap, and a
    flow is ranked with ``tier`` only when it is built and after an action
    that may flip it. ``mesh16_flaps`` (2 scenarios of 16 links) ranks its
    32 first sub-flows and the 31 it re-opens; all its actions are link
    changes, whose pumps visit no flow. ``prio_churn_fine`` (4 scenarios
    of 3 links) ranks its 12 sub-flows and, after each of its 1,596
    actions, the ones it flipped: 2,238 in all. Its action pumps visit
    those, or all 3 flows after the 377 actions that move the deciding
    tier: 2,492 visits, where visiting every alive flow made 4,788. At
    the parent design, every pump asked ``select`` and ranked every alive
    flow: 96 ``select`` and 984 ``tier`` calls on ``mesh16_flaps``, and
    1,600 and 4,800 on ``prio_churn_fine``."""
    workload = getattr(perfbench_workloads(), name)(0)

    def run():
        for _, doc in workload.docs:
            run_scenario(parse_scenario(doc), bucket_ms=workload.bucket_ms)

    with mock.patch.dict("os.environ", {PPOS_ENV_VAR: ""}):
        counts = count_selects_by_handler(run)
    assert counts.selects == {"_bootstrap": selects} and selects == len(workload.docs)
    assert sum(counts.tiers.values()) == tiers
    assert counts.visits["_on_action"] == action_visits


def test_every_ack_of_mesh16_flaps_runs_in_a_train():
    """On the benchmark's ``mesh16_flaps`` at seed 0, every window of acks
    on a saturated link is a train from its first full window on, so no ack
    is handled outside one. The acks handled stay the 167,815 of the
    per-ack design. Each sub-flow sends its first window in one burst, with
    its timer due after the first ack, so its train starts at that send; a
    link change queues none of the acks it drops; so acks are queued only
    as the run ends, and the pass drains none. Trains started at their
    first ack made 33 drains and 63 ``_on_acks`` calls per pass."""
    workload = perfbench_workloads().mesh16_flaps(0)

    def run():
        for _, doc in workload.docs:
            run_scenario(parse_scenario(doc), bucket_ms=workload.bucket_ms)

    with mock.patch.dict("os.environ", {PPOS_ENV_VAR: ""}):
        counts = count_selects_by_handler(run)
    acks = counts.acks
    assert (acks["clocked"], acks["unclocked"], acks["trained"]) == (0, 0, 167_815)
    assert (counts.runs["_drain_acks"], counts.runs["_on_acks"]) == (0, 0)


def test_no_ack_of_an_unclocked_flow_runs_one_by_one_on_prio_churn_fine():
    """On the benchmark's ``prio_churn_fine`` at seed 0, ``_on_acks`` takes
    each flow's due acks in one call, clocked or not, and the due part of
    each run of them in one step. The acks handled in all stay the 89,155
    of the per-ack design. A window sent in one burst into an empty FIFO
    starts its train at the send, so no ``_on_acks`` call starts it at its
    first ack: 1,686 calls, where starting every train at an ack made
    1,820. Their 15,100 acks take 1,635 steps that log bytes, where the
    per-ack rule took a step for each of the 15,095 data acks among them.
    With the 392 runs that trains log as they end, the pass's logs hold 379
    runs in all, as a run that continues the last one extends it, where the
    parent design kept bytes for each of the pass's 120,000 rows."""
    workload = perfbench_workloads().prio_churn_fine(0)

    def run():
        for _, doc in workload.docs:
            run_scenario(parse_scenario(doc), bucket_ms=workload.bucket_ms)

    with mock.patch.dict("os.environ", {PPOS_ENV_VAR: ""}):
        counts = count_selects_by_handler(run)
    acks = counts.acks
    assert (acks["clocked"], acks["unclocked"], acks["trained"]) == (4_081, 11_019, 74_055)
    assert counts.runs["_on_acks"] == 1_686  # for the 15,100 acks outside trains
    assert (counts.logged["_on_acks"], counts.logged["_end_train"]) == (1_635, 392)
    assert sum(counts.entries.values()) == 379
    assert sum(acks.values()) == 89_155


def test_a_steady_run_drains_acks_as_often_however_long_it_runs(monkeypatch):
    """The run drains the ack FIFOs only when an ack is due before the
    horizon. On one saturated link, the bootstrap's window starts a train at
    its send, and a train keeps its FIFO empty, so the run drains no ack
    whether it lasts 6 s, 60 s or 600 s. A train started at the window's
    first ack drained once, and a horizon that stepped by RTO_MIN_US
    drained 31, 301 and 3,001 times."""
    drains, drain = [], Simulation._drain_acks

    def counting(sim, horizon):
        drains[-1] += 1
        return drain(sim, horizon)

    monkeypatch.setattr(Simulation, "_drain_acks", counting)
    monkeypatch.delenv(PPOS_ENV_VAR, raising=False)
    for duration in ("6s", "60s", "600s"):
        drains.append(0)
        doc = f"scenario steady\nduration {duration}\nlink 1 2mbps 5ms 10.0.0.1 10.0.1.1\n"
        run_scenario(parse_scenario(doc))
    assert drains == [0, 0, 0]


def test_an_mp_prio_arrival_cuts_no_drain(monkeypatch):
    """An MP_PRIO arrival sets only the receiver's view of its sub-flow,
    which no ack reads or writes, so the run delivers one at the top of the
    heap before it drains the acks due before it. On two window-limited
    links, whose acks queue, 20 flips of sub-flow 1 to active (each queues
    an MP_PRIO) then drain the acks as often as 20 backup-list changes at
    the same times, which queue none. With a drain cut at each arrival,
    the flips drained 47 times and the list changes 33."""
    drains, drain = [], Simulation._drain_acks

    def counting(sim, horizon):
        drains[-1] += 1
        return drain(sim, horizon)

    monkeypatch.setattr(Simulation, "_drain_acks", counting)
    monkeypatch.delenv(PPOS_ENV_VAR, raising=False)
    links = "link 1 10mbps 40ms 10.0.0.1 10.0.1.1\nlink 2 10mbps 40ms 10.0.0.1 10.0.2.1\n"
    for action in ("set_sub_prio 1 active", "set_backup_list 1"):
        drains.append(0)
        times = "".join(f"at {500 + 100 * k}ms {action}\n" for k in range(20))
        run_scenario(parse_scenario(f"scenario flips\nduration 3s\n{links}{times}"))
    assert drains == [33, 33]


def test_idle_and_dead_sub_flows_of_the_built_ins_pop_no_timer_for_nothing():
    """On the four built-ins, the timer sends a probe as a heap event only
    on a down link, where the keepalive ended at the link change, or as the
    first probe of a sub-flow without an RTT sample. Its 200 ms timeout
    does not outlast the 200 ms round trip, so no keepalive runs, and the
    timeout fires in the µs of the ack, before it. Every other probe runs
    in a keepalive. A dead sub-flow's timer never pops while its link is
    down: a death on a down link sets none, and the link's coming up sets
    it for the next attempt."""
    probes, dead_pops_on_down_links = Counter(), 0
    on_timer = Simulation._on_timer

    def counting(sim, flow, seq):
        nonlocal dead_pops_on_down_links
        sf, link = flow.sf, flow.link
        dead_pops_on_down_links += not sf.alive and not link.up
        before, srtt = flow.probe_outstanding, sf.srtt_us
        on_timer(sim, flow, seq)
        if flow.probe_outstanding and not before:
            kind = "up link" if srtt else "up link, no sample"
            probes[kind if link.up else "down link"] += 1

    with mock.patch.object(Simulation, "_on_timer", counting):
        with mock.patch.dict("os.environ", {PPOS_ENV_VAR: ""}):
            for doc in BUILTIN_DOCS.values():
                run_scenario(parse_scenario(doc))
    assert probes == {"down link": 4, "up link, no sample": 4}
    assert dead_pops_on_down_links == 0


@pytest.mark.parametrize(
    "name, events", [("paper_figs", 98), ("mesh16_flaps", 188), ("prio_churn_fine", 655)]
)
def test_two_traced_passes_of_each_benchmark_workload_count_alike(name, events):
    """``perfbench/run.py --trace 1`` stops unless its traced passes make a
    ``select`` call and pop a heap event through the ``simnet.heapq`` seam,
    and fails a pass whose counts differ from the first's. Two seed-0
    passes through its ``Tracer`` meet both. Only timers are heap events:
    a pass pops 98, 188 or 655 of them, where the heap that also held
    actions and MP_PRIO arrivals popped 124, 222 and 4,493. Timers popped
    past the seam would read 0."""
    tracer_module = perfbench_module("tracer")
    workload = perfbench_workloads().make(name, 0, mpflow)
    passes = []
    with mock.patch.dict("os.environ", {PPOS_ENV_VAR: ""}):
        for _ in range(2):
            with tracer_module.Tracer(mpflow) as tracer:
                for run_id, (_, doc) in enumerate(workload.docs):
                    tracer.begin_run(run_id)
                    report = run_scenario(parse_scenario(doc), bucket_ms=workload.bucket_ms)
                    mpflow.emit_csv(report, io.StringIO())
                    tracer.counts["scenario.csv_rows"] += len(report.rows)
            passes.append(tracer.exact_counts())
    first, second = passes
    assert first["scheduler.select_calls"] == len(workload.docs)
    assert first["simnet.events"] == events
    assert second == first
