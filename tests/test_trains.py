"""Steady ack trains and keepalives against the per-event path.

``Simulation._train`` starts a train on a saturated sub-flow, and
``Simulation._end_train`` handles the acks it ran over in one step when an
event touches the flow or the run ends. Together they must leave exactly
the state that handling those acks one by one through the one-ack
reference ``helpers.on_ack_arrival`` leaves. In the same way,
``Simulation._idle`` takes an idle sub-flow's probes out of the event loop
when ``Simulation._keepalive`` lets it, and ``Simulation._end_keepalive``
must leave the state that sending each probe from the timer and handling
each of their acks leaves, and ``Simulation._on_acks``, which handles a
sub-flow's due acks in one call, the state that the reference leaves ack
by ack. Each test runs one input twice, in closed form and with ``_train``
and ``_keepalive`` patched to refuse every train and keepalive and
``_on_acks`` to hand over one ack at a time, and compares the CSV and the
end state of every flow and every link. Where only the bulk drain is
refused, the timers' pending heap entries must agree too. The targeted
cases also check that the trains and keepalives they are about were taken
and where they ended, or, on a link the window cannot saturate, that no
train was.
"""

import contextlib
import heapq
import io
import random
from types import SimpleNamespace
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpflow import scenario as scenario_module
from mpflow import simnet, sockopt
from mpflow.model import close_subflow, new_connection
from mpflow.scenario import PPOS_ENV_VAR, emit_csv, parse_scenario, run_scenario
from mpflow.simnet import MSS, RTO_MIN_US, WINDOW_SEGMENTS, LinkSpec, Simulation, _srtt_after
from mpflow.sockopt import SubPrioRequest
from helpers import acked_by_bucket, addr, expand, logged, on_ack_arrival, pop_ack
from scenario_gen import BUSY_SCENARIO, edge_scenarios, random_scenario, tie_scenario


class Train(NamedTuple):
    flow_id: int
    until: int  # it handled the acks due before this
    first_ack: int
    acks: int
    serialization_us: int
    srtt_us: int  # at the start of the train


class Keepalive(NamedTuple):
    flow_id: int
    until: int  # it sent the probes due before this
    probe_at_until: bool  # and the one due at it
    first_probe: int


class TrainLog(Simulation):
    """A Simulation that logs the trains and keepalives it takes, and the
    timer pops of flows while they are in a train, and remembers its
    instances, for runs built inside ``run_scenario``."""

    instances = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trains = []
        self.keepalives = []
        self.train_timer_pops = 0
        self._start_srtt = {}
        TrainLog.instances.append(self)

    def _train(self, flow):
        srtt = flow.sf.srtt_us
        if not super()._train(flow):
            return False
        self._start_srtt[flow.sf.id] = srtt
        return True

    def _end_train(self, flow, until):
        first_ack, sent = flow.train[0][0], flow.sf.bytes_sent_total
        super()._end_train(flow, until)
        s = MSS * 8 * 1_000_000 // flow.link.spec.bandwidth_bps
        acks = (flow.sf.bytes_sent_total - sent) // MSS  # each acks one segment and sends one
        srtt = self._start_srtt.pop(flow.sf.id)
        self.trains.append(Train(flow.sf.id, until, first_ack, acks, s, srtt))

    def _end_keepalive(self, flow, until, probe_at_until):
        self.keepalives.append(Keepalive(flow.sf.id, until, probe_at_until, flow.keepalive))
        super()._end_keepalive(flow, until, probe_at_until)


def counting_train_pops(on_timer):
    """``Simulation._on_timer`` that also counts the pops of flows in a train."""

    def counting(sim, flow, seq):
        if flow.train is not None:
            sim.train_timer_pops += 1
        on_timer(sim, flow, seq)

    return counting


def end_state(sim, report, pending_at=False):
    """The CSV, and per flow and per link what a later event could read. A
    train or a keepalive pushes no timer entry, so the heap differs from
    the per-event run's: each flow's deadline and whether it has a live
    entry agree, and with ``pending_at`` also the entry's deadline."""
    csv = io.StringIO()
    emit_csv(report, csv)
    flows = {
        flow_id: (
            flow.sf.bytes_sent_total,
            flow.sf.srtt_us,
            flow.sf.inflight_bytes,
            flow.sf.consecutive_timeouts,
            flow.sf.died_us,
            flow.peer.alive,
            flow.probe_outstanding,
            flow.armed_at_us,
            flow.timer,
            flow.timer_pending is not None,
            flow.timer_pending[0] if pending_at and flow.timer_pending else None,
            expand(flow.train),
            flow.keepalive,
            logged(flow.log),
            expand(flow.acks),
        )
        for flow_id, flow in sim._flows.items()
    }
    links = {flow.link.spec.link_id: flow.link.tx_free_us for flow in sim._flows.values()}
    return csv.getvalue(), flows, links


def one_ack(sim, flow, horizon):
    """``_on_acks`` refused: the flow's next ack through the one-ack
    reference, after the train that ``_on_acks`` tries at that ack."""
    if flow.clocked:
        if not flow.train_wait:
            if sim._train(flow):
                return
            wait = flow.probe_outstanding or flow.sf.consecutive_timeouts
            flow.train_wait = 1 if wait else WINDOW_SEGMENTS
        flow.train_wait -= 1
    sim.now_us, nbytes, sent_us = pop_ack(flow.acks)
    on_ack_arrival(sim, flow, nbytes, sent_us)


REFUSALS = {
    "_train": lambda sim, flow: False,
    "_keepalive": lambda sim, flow: False,
    "_on_acks": one_ack,
}


def run_both(run, refused=tuple(REFUSALS)):
    """Call ``run()``, which gives a TrainLog and its report, in closed form
    and then with every train and keepalive and the bulk drain refused, or
    those of ``refused``; assert that both runs end in the same state, and
    return the run in closed form. With trains and keepalives in both runs,
    the flows' pending timer entries are at the same deadlines."""
    with mock.patch.object(Simulation, "_on_timer", counting_train_pops(Simulation._on_timer)):
        sim, report = run()
        with contextlib.ExitStack() as patches:
            for name in refused:
                patches.enter_context(mock.patch.object(TrainLog, name, REFUSALS[name]))
            per_event, per_event_report = run()
    assert per_event.trains == [] or "_train" not in refused
    assert per_event.keepalives == [] or "_keepalive" not in refused
    pending_at = not {"_train", "_keepalive"} & set(refused)
    assert end_state(sim, report, pending_at) == end_state(per_event, per_event_report, pending_at)
    return sim


def scenario_run(doc, bucket_ms):
    """A run of the scenario ``doc`` through ``run_scenario``."""
    scenario = parse_scenario(doc)

    def run():
        with mock.patch.object(scenario_module, "Simulation", TrainLog):
            with mock.patch.dict("os.environ", {PPOS_ENV_VAR: ""}):
                report = run_scenario(scenario, bucket_ms=bucket_ms)
        return TrainLog.instances.pop(), report

    return run


def links_run(links, duration_ms, bucket_ms=1000, actions=()):
    """A run over one local address and one remote address per link;
    ``links`` are (bandwidth in bps, one-way delay in ms)."""

    def run():
        remotes = [addr(f"10.0.{i + 1}.1") for i in range(len(links))]
        sender = new_connection([addr("10.0.0.1")], remotes)
        specs = [
            LinkSpec(i + 1, pair, bandwidth_bps, delay_ms)
            for i, (pair, (bandwidth_bps, delay_ms)) in enumerate(zip(sender.mesh_pairs(), links))
        ]
        sim = TrainLog(sender, specs, duration_ms, bucket_ms)
        for at_ms, action in actions:
            sim.schedule_action(at_ms, action)
        return sim, sim.run()

    return run


def one_link(bandwidth_bps, delay_ms, duration_ms, bucket_ms=1000, actions=()):
    return links_run([(bandwidth_bps, delay_ms)], duration_ms, bucket_ms, actions)


def acks_of(train):
    return [train.first_ack + i * train.serialization_us for i in range(train.acks)]


def mark_backup(subflow_id):
    return lambda sim: sockopt.set_subflow_priority(sim.sender, SubPrioRequest(subflow_id, True))


# At 5,840,000 bps an MSS serializes in exactly 2 ms. The bootstrap sends at
# t = 0, so with a 20 ms delay every ack is due at a multiple of 2 ms: every
# fifth at a 10 ms bucket edge, and one at each whole second.
EVEN_BPS = 5_840_000


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), bucket_ms=st.sampled_from((1000, 100, 10)))
def test_generated_scenarios_end_alike_with_and_without_trains(seed, bucket_ms):
    run_both(scenario_run(random_scenario(random.Random(seed)), bucket_ms))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), bucket_ms=st.sampled_from((1000, 100, 10)))
def test_generated_scenarios_end_alike_with_and_without_bulk_drains(seed, bucket_ms):
    # Trains and keepalives run in both runs, so every difference is the
    # bulk drain's, and the timers' pending entries are compared too.
    run_both(scenario_run(random_scenario(random.Random(seed)), bucket_ms), ("_on_acks",))


EDGE = dict(edge_scenarios())


@pytest.mark.parametrize("refused", [tuple(REFUSALS), ("_on_acks",)], ids=["all", "bulk"])
@pytest.mark.parametrize("bucket_ms", [1000, 100, 10])
@pytest.mark.parametrize("name", sorted(EDGE))
def test_edge_scenarios_end_alike_with_and_without_closed_forms(name, bucket_ms, refused):
    run_both(scenario_run(EDGE[name], bucket_ms), refused)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), bucket_ms=st.sampled_from((1000, 100)))
def test_generated_scenarios_end_alike_with_and_without_keepalives(seed, bucket_ms):
    # Trains run in both runs, so every difference is the keepalives'.
    run_both(scenario_run(random_scenario(random.Random(seed)), bucket_ms), ("_keepalive",))


@st.composite
def slow_link_runs(draw):
    """A ``links_run`` over 1-3 links, one of them at 15-60 kbps, where an
    MSS serializes for longer than RTO_MIN_US, with sub-flow priority flips
    at random times. The others run at 15 kbps-2 Mbps."""
    slow = (draw(st.integers(15_000, 60_000)), draw(st.integers(0, 150)))
    others = st.tuples(st.integers(15_000, 2_000_000), st.integers(0, 150))
    links = draw(st.permutations([slow] + draw(st.lists(others, max_size=2))))
    duration_ms = draw(st.integers(2_000, 40_000))
    flips = st.tuples(
        st.integers(0, duration_ms - 1), st.integers(1, len(links) + 2), st.booleans()
    )
    actions = [
        (at_ms, set_prio(subflow_id, backup))
        for at_ms, subflow_id, backup in draw(st.lists(flips, max_size=6))
    ]
    return links_run(links, duration_ms, draw(st.sampled_from((1000, 100))), actions)


def set_prio(subflow_id, backup):
    """``set_sub_prio`` as a scenario runs it: an id that names no alive
    sub-flow is skipped."""

    def act(sim):
        with contextlib.suppress(sockopt.NotFoundError):
            sockopt.set_subflow_priority(sim.sender, SubPrioRequest(subflow_id, backup))

    return act


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(run=slow_link_runs())
def test_slow_links_with_priority_flips_end_alike_with_and_without_trains(run):
    run_both(run)


def ewma(srtt, sample, n):
    """srtt after ``n`` acks of round trip ``sample``, one EWMA step per ack."""
    for _ in range(n):
        srtt = (7 * srtt + sample) // 8
    return srtt


def closed_form_steps(srtt, sample):
    """The step count from which ``_srtt_after`` answers in closed form."""
    return 6 * abs(srtt - sample).bit_length()


def test_srtt_after_matches_the_ewma_loop_within_4096_of_the_sample():
    # Every gap |srtt - sample| <= 4096, at two samples, with n on both
    # sides of the closed form's step count, far past it, and at the last
    # step before the loop reaches its fixed point, which a closed form
    # answering too early would get wrong.
    for sample in (4096, 10_000):
        for srtt in range(sample - 4096, sample + 4097):
            bound = closed_form_steps(srtt, sample)
            steps = [srtt]
            for _ in range(bound + 1):
                steps.append((7 * steps[-1] + sample) // 8)
            reached = steps.index(steps[-1])
            for n in (0, 1, max(reached - 1, 0), reached, bound - 1, bound, bound + 1):
                assert _srtt_after(srtt, sample, n) == steps[n], (srtt, sample, n)
            assert _srtt_after(srtt, sample, 10**9) == steps[-1], (srtt, sample)


def test_srtt_after_from_no_sample():
    # srtt 0 at every sample up to 4096, and _end_keepalive's ``srtt or rtt``,
    # which starts the EWMA at its own sample.
    for sample in range(4097):
        bound = closed_form_steps(0, sample)
        for n in (bound - 1, bound, 10**9):
            assert _srtt_after(0, sample, n) == ewma(0, sample, min(n, 2 * bound)), (sample, n)
        assert _srtt_after(0 or sample, sample, 10**9) == sample


@given(
    srtt=st.integers(0, 2**48), sample=st.integers(0, 2**48), offset=st.integers(-3, 3)
)
def test_srtt_after_matches_the_ewma_loop_on_large_values(srtt, sample, offset):
    n = max(0, closed_form_steps(srtt, sample) + offset)
    assert _srtt_after(srtt, sample, n) == ewma(srtt, sample, n)


def test_a_bulk_drain_leaves_the_timer_entry_at_its_earliest_deadline():
    # At 50 ms one-way, 31 serializations of 2 ms fall short of the 100 ms
    # round trip, so the window limits sub-flow 1, which never trains. Its
    # first window went out in one burst, with samples from 102 to 164 ms,
    # so srtt is still about 134 ms when the flow is marked backup at 210 ms,
    # above the steady 102 ms. Unclocked, its acks, 2 ms apart, each lower
    # srtt by an eighth of the gap, so their deadlines ``at + 2 * srtt``
    # first fall and then rise. The timer's pending entry stays at the
    # lowest, past the run's end, and the deadline is the last ack's.
    run = links_run([(EVEN_BPS, 50), (EVEN_BPS, 20)], 310, actions=[(210, mark_backup(1))])
    flow = run_both(run, ("_on_acks",))._flows[1]
    assert (flow.timer_pending[0], flow.armed_at_us, flow.timer) == (448_868, 308_000, 513_022)


def test_a_clocked_drain_leaves_the_timer_entry_at_its_earliest_deadline(monkeypatch):
    # The clocked twin of the test above. Alone on its link, sub-flow 1
    # stays clocked, and the window limits it, so it never trains and each
    # ack refills it. Its first window went out in one burst, so srtt is
    # still about 134 ms when the refills' acks come back from 204 ms on,
    # 2 ms apart, each with a sample of 102 ms. Their deadlines first fall,
    # eight times from 214 to 230 ms, and then rise. One drain handles the
    # acks from 204 to 308 ms. It pushes the flow's pending entry once, at
    # the lowest deadline, where one push per falling deadline leaves the
    # per-ack reference with 11 in all. Only timer entries go on the heap
    # through ``simnet.heapq``, so its pushes are the timer's.
    pushes = []

    def counting(heap, entry):
        pushes.append(heap)
        heapq.heappush(heap, entry)

    monkeypatch.setattr(simnet, "heapq", SimpleNamespace(heappush=counting, heappop=heapq.heappop))
    sim = run_both(links_run([(EVEN_BPS, 50)], 310), ("_on_acks",))
    flow = sim._flows[1]
    assert sim.trains == [] and flow.clocked
    assert (flow.timer_pending[0], flow.armed_at_us, flow.timer) == (448_868, 308_000, 513_022)
    assert (sum(heap is sim._heap for heap in pushes), len(pushes)) == (3, 3 + 11)


def test_a_steady_run_takes_one_train():
    # Nothing touches the flow after its train starts, so the train runs to
    # the end of the run. Its timer entry, pushed by the last ack before the
    # train, pops once, is dropped, and nothing pushes another.
    sim = run_both(one_link(EVEN_BPS, 20, 60_000))
    (train,) = sim.trains
    assert train.until == 60_000_000
    assert train.acks > 29_000
    assert sim.train_timer_pops <= 1


def test_a_train_splits_its_acks_at_bucket_edges():
    # Some train spans five 10 ms buckets or more, with acks on their edges.
    trains = run_both(one_link(EVEN_BPS, 20, 2_000, bucket_ms=10)).trains
    edges = [train for train in trains if any(at % 10_000 == 0 for at in acks_of(train))]
    assert max(train.acks * train.serialization_us for train in edges) >= 5 * 10_000


def test_a_bucket_narrower_than_s_leaves_buckets_inside_a_train_empty():
    # At 1 Mbps an MSS serializes in 11.68 ms, so at 10 ms buckets a train
    # steps over a bucket now and then: it holds no ack, and the split adds
    # no entry for it, as the per-ack run does not.
    sim = run_both(one_link(1_000_000, 20, 3_000, bucket_ms=10))
    acked = acked_by_bucket(sim._flows[1], 10_000)
    (train,) = sim.trains
    buckets = {at // 10_000 for at in acks_of(train)}
    skipped = set(range(min(buckets), max(buckets) + 1)) - buckets
    assert train.serialization_us == 11_680 and len(skipped) > 10
    assert not skipped & acked.keys()
    assert all(acked[bucket] == MSS for bucket in buckets if bucket > min(buckets))


@pytest.mark.parametrize("bucket_ms", [2, 10])
def test_a_bucket_that_is_a_multiple_of_s_holds_that_many_acks(bucket_ms):
    # An MSS serializes in exactly 2 ms at EVEN_BPS, and every ack is due on
    # a multiple of 2 ms, so each bucket inside the train holds bucket_ms / 2
    # acks, the one on its start edge included: one each when s is the
    # bucket width, five at 10 ms.
    sim = run_both(one_link(EVEN_BPS, 20, 2_000, bucket_ms=bucket_ms))
    acked = acked_by_bucket(sim._flows[1], bucket_ms * 1000)
    (train,) = sim.trains
    first, last = acks_of(train)[0] // (bucket_ms * 1000), acks_of(train)[-1] // (bucket_ms * 1000)
    assert last - first > 100
    assert all(acked[bucket] == bucket_ms // 2 * MSS for bucket in range(first + 1, last + 1))


@pytest.mark.parametrize(
    "bandwidth_bps, duration_ms, bucket_ms, bucket, acks",
    [(EVEN_BPS, 500, 1000, 0, 229), (1_000_000, 60, 10, 5, 1)],
    ids=["s-below-the-bucket", "s-above-the-bucket"],
)
def test_a_train_that_ends_in_the_bucket_it_started_in(
    bandwidth_bps, duration_ms, bucket_ms, bucket, acks
):
    # The only train starts at the first ack, s + 40 ms, and the run's end
    # stops it in the same bucket: at 2 ms per MSS, 229 acks from 42 ms on
    # in the first 1 s bucket; at 11.68 ms per MSS, wider than a 10 ms
    # bucket, the one ack at 51.68 ms, in bucket 5, before a run of 60 ms
    # ends.
    sim = run_both(one_link(bandwidth_bps, 20, duration_ms, bucket_ms=bucket_ms))
    (train,) = sim.trains
    assert (train.acks, train.until) == (acks, duration_ms * 1000)
    assert {at // (bucket_ms * 1000) for at in acks_of(train)} == {bucket}
    assert acked_by_bucket(sim._flows[1], bucket_ms * 1000) == {bucket: acks * MSS}


@pytest.mark.parametrize("duration_ms, last_bucket_acks", [(2_000, 5), (2_001, 1)])
def test_a_train_ending_on_a_bucket_edge_splits_there(duration_ms, last_bucket_acks):
    # At 10 ms buckets an ack is due on every bucket edge. A run of 2,000 ms
    # ends the train on the edge at 2 s and leaves the ack due there, so the
    # last bucket with acks is 199, with five. A run of 2,001 ms handles it
    # alone in bucket 200, the run's short last bucket.
    sim = run_both(one_link(EVEN_BPS, 20, duration_ms, bucket_ms=10))
    acked = acked_by_bucket(sim._flows[1], 10_000)
    last = sim.trains[-1]
    assert last.until == duration_ms * 1000
    assert max(acked) == 199 + (duration_ms == 2_001)
    assert acked[max(acked)] == last_bucket_acks * MSS


@pytest.mark.parametrize("duration_ms", [2_000, 2_001])
def test_an_ack_at_the_horizon_waits(duration_ms):
    # An ack is due at exactly 2 s, the end of the first run: the train ends
    # there and leaves it unhandled. 1 ms later it is handled.
    trains = run_both(one_link(EVEN_BPS, 20, duration_ms)).trains
    last = trains[-1]
    assert last.until == duration_ms * 1000
    assert acks_of(last)[-1] == 2_000_000 - 2_000 * (duration_ms == 2_000)


@pytest.mark.parametrize(
    "bandwidth_bps, delay_ms, trains_run",
    [(10_000_000, 19, False), (10_000_000, 18, True), (EVEN_BPS, 32, False), (EVEN_BPS, 31, True)],
)
def test_a_train_needs_a_saturated_link(bandwidth_bps, delay_ms, trains_run):
    # The window keeps the link busy iff 31 serializations last at least the
    # two one-way delays: 31 * 1,168 µs = 36.208 ms against 38 and 36 ms,
    # and 31 * 2 ms = 62 ms against 64 and exactly 62 ms.
    s = MSS * 8 * 1_000_000 // bandwidth_bps
    assert ((WINDOW_SEGMENTS - 1) * s >= 2 * delay_ms * 1000) is trains_run
    trains = run_both(one_link(bandwidth_bps, delay_ms, 4_000)).trains
    assert bool(trains) is trains_run


def test_a_train_starts_at_the_first_ack_before_any_sample():
    # The bootstrap sends the first window in one burst at t = 0, and the
    # link is still busy with it when the first ack comes back, at
    # s + 2d = 12 ms. So a train starts there, before srtt has a sample,
    # and its end replays srtt's EWMA over the window's samples of 12, 14,
    # ..., 74 ms before the steady 64 ms ones.
    (train,) = run_both(one_link(EVEN_BPS, 5, 3_000)).trains
    assert (train.first_ack, train.srtt_us, train.until) == (12_000, 0, 3_000_000)


def test_a_slow_link_times_out_in_its_first_window_and_trains_later(monkeypatch):
    # At 50 kbps an MSS serializes in 233.6 ms, longer than RTO_MIN_US.
    # Sub-flow 2 idles as a backup on keepalive probes, which set its srtt
    # to the 100 ms round trip, until it is made active at 3 s. Its timer,
    # armed with a base of 200 ms by the first window's burst, fires before
    # the first ack, at 333.6 ms, so the train tried at that ack is
    # refused. The ack clears the timeout, and its sample lifts the base
    # above s, so the train tried again at the next ack, s later, runs.
    timeouts = []
    on_timer = Simulation._on_timer

    def record(sim, flow, seq):
        before = flow.sf.consecutive_timeouts
        on_timer(sim, flow, seq)
        if flow.sf.consecutive_timeouts > before:
            timeouts.append((flow.sf.id, sim.now_us))

    monkeypatch.setattr(Simulation, "_on_timer", record)
    actions = [(0, mark_backup(2)), (3_000, set_prio(2, False))]
    sim = run_both(links_run([(EVEN_BPS, 20), (50_000, 50)], 15_000, actions=actions))
    assert timeouts == [(2, 3_200_000)] * 2  # in the run with trains, then per ack
    (late,) = [train for train in sim.trains if train.flow_id == 2]
    assert late.serialization_us == 233_600 > RTO_MIN_US
    assert late.first_ack == 3_000_000 + 2 * 233_600 + 100_000 == 3_567_200
    assert late.until == 15_000_000


def test_a_link_down_at_an_ack_stops_the_train_before_it():
    # The link goes down at 1 s, when an ack is due: the train ends at the
    # ack before, the one at 1 s is dropped, and the sub-flow dies at its
    # third timeout, 200 + 200 + 400 ms after that earlier ack. It is
    # re-created after the link comes back.
    actions = [
        (1_000, lambda sim: sim.set_link_state(1, up=False)),
        (2_500, lambda sim: sim.set_link_state(1, up=True)),
    ]
    sim = run_both(one_link(EVEN_BPS, 20, 4_000, actions=actions))
    (cut,) = [train for train in sim.trains if train.until == 1_000_000]
    assert cut.acks > 1 and acks_of(cut)[-1] == 998_000
    first, successor = sim.sender.subflows
    assert (first.died_us, successor.created_us) == (1_798_000, 2_798_000)


def test_a_backup_flip_ends_the_train_of_the_flow_it_takes_out_of_the_tier():
    # Both sub-flows run trains when sub-flow 1 is marked backup at 3 s. The
    # action's pump takes it out of the deciding tier, so its train ends
    # there and its later acks send nothing; sub-flow 2 carries on alone.
    links = [(EVEN_BPS, 20), (EVEN_BPS, 25)]
    sim = run_both(links_run(links, 6_000, actions=[(3_000, mark_backup(1))]))
    ended = [train for train in sim.trains if train.until == 3_000_000]
    assert {train.flow_id for train in ended} >= {1}
    assert all(train.until <= 3_000_000 for train in sim.trains if train.flow_id == 1)
    assert sim.sender.subflow_by_id(1).low_prio
    assert sim.sender.subflow_by_id(1).inflight_bytes == 0
    assert any(train.flow_id == 2 and train.until == 6_000_000 for train in sim.trains)


def test_a_reopened_active_sub_flow_ends_the_train_of_a_backup():
    # Sub-flow 2 is a backup that takes over when sub-flow 1 dies of the
    # outage of link 1, at 1,798 ms, and runs a train. Once the link is back,
    # sub-flow 1's timer opens sub-flow 3 on it at 2,798 ms. That pump queues
    # no MP_PRIO, but it takes sub-flow 2 out of the deciding tier, so its
    # train ends there and its later acks send nothing.
    actions = [
        (500, mark_backup(2)),
        (1_000, lambda sim: sim.set_link_state(1, up=False)),
        (2_500, lambda sim: sim.set_link_state(1, up=True)),
    ]
    sim = run_both(links_run([(EVEN_BPS, 20), (EVEN_BPS, 25)], 5_000, actions=actions))
    assert sim.sender.subflow_by_id(3).created_us == 2_798_000
    after_death = [train for train in sim.trains if train.first_ack > 1_798_000]
    (backup,) = [train for train in after_death if train.flow_id == 2]
    assert backup.until == 2_798_000
    assert sim.sender.subflow_by_id(2).inflight_bytes == 0


def test_a_flip_of_sub_flow_3_leaves_sub_flow_2_s_train_running(monkeypatch):
    # Link 1 is too fast for its window to saturate it, so sub-flow 1 takes
    # no train, while sub-flows 2 and 3 run one when sub-flow 3 is marked
    # backup at 3,005 ms. The flip takes sub-flow 3 out of the deciding tier
    # and ends its train. Its MP_PRIO travels on sub-flow 3, so sub-flow 2's
    # train, which started before the flip, runs on to the end of the run.
    carriers, in_train = [], []
    apply = sockopt.apply_remote_mp_prio

    def record(conn, opt, received_on=None):
        carriers.append(received_on)
        apply(conn, opt, received_on=received_on)

    def flip(sim):
        in_train.append(sim._flows[2].train is not None)
        mark_backup(3)(sim)

    monkeypatch.setattr(sockopt, "apply_remote_mp_prio", record)
    links = [(10_000_000, 100), (EVEN_BPS, 20), (EVEN_BPS, 20)]
    sim = run_both(links_run(links, 4_000, actions=[(3_005, flip)]))
    assert in_train == [True, False]  # with trains, then per ack
    assert carriers == [3, 3]
    assert sim.receiver.subflow_by_id(3).low_prio
    (running,) = [train for train in sim.trains if train.flow_id == 2]
    assert running.first_ack < 3_005_000 and running.until == 4_000_000
    assert [train.until for train in sim.trains if train.flow_id == 3] == [3_005_000]


@pytest.mark.parametrize(
    "name, dying, idle, probe_sent", [("lo", 2, 1, True), ("hi", 1, 2, False)], ids=["lo", "hi"]
)
def test_a_probe_due_at_a_pump_that_clocks_its_flow_is_sent_first_under_a_higher_id(
    name, dying, idle, probe_sent
):
    # The slow link's sub-flow idles in a keepalive from 4.1 s on, with
    # probes every 1.1 s from 5.1 s. The primary on the fast link dies at
    # 21,600 ms, the µs of the probe 15 periods on, and the pump of that
    # death clocks the idle sub-flow. Timers run by id: with the dying
    # sub-flow 2 (lo), the idle sub-flow 1's probe timer has run before the
    # pump, and the keepalive ends with that probe sent; with the dying
    # sub-flow 1 (hi), the pump comes first, and the probe is never sent.
    sim = run_both(scenario_run(tie_scenario(name), 100))
    assert sim.sender.subflow_by_id(dying).died_us == 21_600_000
    assert sim.keepalives == [Keepalive(idle, 21_600_000, probe_sent, 5_100_000)]
    assert 5_100_000 + 15 * (1_000_000 + 100_000) == 21_600_000


def close(subflow_id):
    return lambda sim: close_subflow(sim.sender, subflow_id)


@pytest.mark.parametrize(
    "actions, ended",
    [([(2_000, close(2))], "train"), ([(0, mark_backup(2)), (4_500, close(2))], "keepalive")],
    ids=["in-a-train", "in-a-keepalive"],
)
def test_a_sub_flow_closed_by_an_action_ends_its_train_or_keepalive_there(actions, ended):
    # Sub-flow 2 runs a train on a saturated link, or idles as a backup in a
    # keepalive from the bootstrap on, as the 200 ms timeout outlasts its
    # 40 ms round trip. Closed, it dies at the action's µs, after its acks
    # and probes due before it are handled, and its successor opens a
    # second later.
    at_us = actions[-1][0] * 1000
    sim = run_both(links_run([(EVEN_BPS, 20), (EVEN_BPS, 20)], 8_000, actions=actions))
    assert sim.sender.subflow_by_id(2).died_us == at_us
    assert sim.sender.subflow_by_id(3).created_us == at_us + 1_000_000
    log = sim.trains if ended == "train" else sim.keepalives
    assert [entry.until for entry in log if entry.flow_id == 2] == [at_us]


def test_a_sub_flow_closed_at_0_ms_takes_no_keepalive_and_is_re_created():
    # The bootstrap runs after an action at 0 ms, so sub-flow 2 is dead
    # when the bootstrap times the idle flows' probes. It takes no
    # keepalive, whose timer would drop the re-establishment: its timer
    # re-opens the pair a second later, and the successor carries data.
    sim = run_both(links_run([(1_000_000, 10), (1_000_000, 10)], 5_000, actions=[(0, close(2))]))
    assert sim.keepalives == []
    assert sim.sender.subflow_by_id(2).died_us == 0
    assert sim.sender.subflow_by_id(3).created_us == 1_000_000
    assert len(logged(sim._flows[3].log)) * MSS == 496_400


@pytest.mark.parametrize("down_ms", [3_650, 3_900], ids=["mid-flight", "at-the-ack"])
def test_a_link_change_ends_a_keepalive_with_its_probe_in_flight(down_ms):
    # A backup on a 150 ms link idles in a keepalive from its first probe's
    # ack, at 1.3 s, with probes every 1.3 s from 2.3 s on. Its link goes
    # down after the probe of 3.6 s and no later than its ack's µs, 3.9 s,
    # which runs after the action: the probe is in flight, its ack is
    # dropped, and it times out at 1x, 2x and 4x the base of 2 * srtt =
    # 600 ms after it.
    actions = [(0, mark_backup(2)), (down_ms, lambda sim: sim.set_link_state(2, up=False))]
    sim = run_both(links_run([(EVEN_BPS, 20), (1_000_000, 150)], 8_000, actions=actions))
    assert sim.keepalives == [Keepalive(2, down_ms * 1000, False, 2_300_000)]
    assert sim.sender.subflow_by_id(2).died_us == 3_600_000 + 4 * 600_000


def test_a_successor_on_a_link_a_dead_window_keeps_busy_probes_from_its_timer():
    # At 10 kbps an MSS serializes for 1.168 s. Sub-flow 2's first window
    # holds its link busy to 32 * 1.168 s = 37.4 s, and it times out at
    # 200, 400 and 800 ms, before its first ack, and dies. Its successor,
    # sub-flow 3, opens at 1.8 s outside the primary-path tier and idles,
    # but not in a keepalive: its probe of 2.8 s waits behind the dead
    # window, times out at 1x, 2x and 4x the 200 ms base and kills it.
    sim = run_both(scenario_run(BUSY_SCENARIO, 1000))
    lives = [(sf.id, sf.created_us, sf.died_us) for sf in sim.sender.subflows[1:]]
    assert lives == [(2, 0, 800_000), (3, 1_800_000, 3_600_000), (4, 4_600_000, None)]
    assert sim.keepalives == []
    assert sim._newest_flow[2].link.tx_free_us == 32 * 1_168_000
