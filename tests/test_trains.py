"""Steady ack trains against the per-ack path.

``Simulation._train`` handles the acks of a saturated sub-flow up to the
horizon in one step. It must leave exactly the state that handling them one
by one through ``_on_ack_arrival`` leaves. Each test runs one input twice,
with trains and with ``_train`` patched to refuse every train, and compares
the CSV and the end state of every flow, every link and the heap. The
targeted cases also check that the trains they are about were taken, or, on
a link the window cannot saturate, that none was.
"""

import io
import random
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpflow import scenario as scenario_module
from mpflow.model import new_connection
from mpflow.scenario import PPOS_ENV_VAR, emit_csv, parse_scenario, run_scenario
from mpflow.simnet import MSS, WINDOW_SEGMENTS, LinkSpec, Simulation
from helpers import addr
from scenario_gen import random_scenario


class Train(NamedTuple):
    horizon: int
    first_ack: int
    acks: int
    serialization_us: int
    srtt_us: int  # at the start of the train


class TrainLog(Simulation):
    """A Simulation that logs the trains it takes and remembers its
    instances, for runs built inside ``run_scenario``."""

    instances = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trains = []
        TrainLog.instances.append(self)

    def _train(self, flow, horizon):
        first_ack, srtt, sent = flow.acks[0][0], flow.sf.srtt_us, flow.sf.bytes_sent_total
        if not super()._train(flow, horizon):
            return False
        s = MSS * 8 * 1_000_000 // flow.link.spec.bandwidth_bps
        acks = (flow.sf.bytes_sent_total - sent) // MSS  # each acks one segment and sends one
        self.trains.append(Train(horizon, first_ack, acks, s, srtt))
        return True


def end_state(sim, report):
    csv = io.StringIO()
    emit_csv(report, csv)
    flows = {
        flow_id: (
            flow.sf.bytes_sent_total,
            flow.sf.srtt_us,
            flow.sf.inflight_bytes,
            flow.sf.consecutive_timeouts,
            flow.armed_at_us,
            flow.timer,
            flow.timer_pending,
            flow.acked,
            list(flow.acks),
        )
        for flow_id, flow in sim._flows.items()
    }
    links = {link_id: link.tx_free_us for link_id, link in sim._links_by_id.items()}
    heap = sorted((at, rank) for at, rank, _, _ in sim._heap)
    return csv.getvalue(), flows, links, heap


def run_both(run):
    """Call ``run()``, which gives a TrainLog and its report, with trains and
    then with every train refused; assert that both runs end in the same
    state, and return the run with trains."""
    sim, report = run()
    with mock.patch.object(TrainLog, "_train", lambda sim, flow, horizon: False):
        per_ack, per_ack_report = run()
    assert per_ack.trains == []
    assert end_state(sim, report) == end_state(per_ack, per_ack_report)
    return sim


def one_link(bandwidth_bps, delay_ms, duration_ms, bucket_ms=1000, actions=()):
    def run():
        sender = new_connection([addr("10.0.0.1")], [addr("10.0.1.1")])
        spec = LinkSpec(1, sender.mesh_pairs()[0], bandwidth_bps, delay_ms)
        sim = TrainLog(sender, [spec], duration_ms, bucket_ms)
        for at_ms, action in actions:
            sim.schedule_action(at_ms, action)
        return sim, sim.run()

    return run


def acks_of(train):
    return [train.first_ack + i * train.serialization_us for i in range(train.acks)]


# At 5,840,000 bps an MSS serializes in exactly 2 ms. The bootstrap sends at
# t = 0, so with a 20 ms delay every ack is due at a multiple of 2 ms: every
# fifth at a 10 ms bucket edge, and one at each whole second.
EVEN_BPS = 5_840_000


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), bucket_ms=st.sampled_from((1000, 100, 10)))
def test_generated_scenarios_end_alike_with_and_without_trains(seed, bucket_ms):
    scenario = parse_scenario(random_scenario(random.Random(seed)))

    def run():
        with mock.patch.object(scenario_module, "Simulation", TrainLog):
            report = run_scenario(scenario, bucket_ms=bucket_ms)
        return TrainLog.instances.pop(), report

    with mock.patch.dict("os.environ", {PPOS_ENV_VAR: ""}):
        run_both(run)


def test_a_train_splits_its_acks_at_bucket_edges():
    # Some train spans five 10 ms buckets or more, with acks on their edges.
    trains = run_both(one_link(EVEN_BPS, 20, 2_000, bucket_ms=10)).trains
    edges = [train for train in trains if any(at % 10_000 == 0 for at in acks_of(train))]
    assert max(train.acks * train.serialization_us for train in edges) >= 5 * 10_000


@pytest.mark.parametrize("duration_ms", [2_000, 2_001])
def test_an_ack_at_the_horizon_waits(duration_ms):
    # An ack is due at exactly 2 s, the end of the first run: it is not
    # handled. 1 ms later it is.
    trains = run_both(one_link(EVEN_BPS, 20, duration_ms)).trains
    last = trains[-1]
    assert last.horizon == duration_ms * 1000
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


def test_a_train_starts_at_an_ewma_below_its_sample():
    # With 5 ms of delay the first window's samples pull srtt below the
    # steady 64 ms sample, and the integer EWMA stops short of it.
    trains = run_both(one_link(EVEN_BPS, 5, 3_000)).trains
    gaps = {WINDOW_SEGMENTS * train.serialization_us - train.srtt_us for train in trains}
    assert gaps and gaps <= set(range(1, 8))


def test_a_link_down_at_an_ack_stops_the_train_before_it():
    # The link goes down at 1 s, when an ack is due: the train stops at the
    # ack before, the one at 1 s is dropped, and the sub-flow dies at its
    # third timeout, 200 + 200 + 400 ms after that earlier ack. It is
    # re-created after the link comes back.
    actions = [
        (1_000, lambda sim: sim.set_link_state(1, up=False)),
        (2_500, lambda sim: sim.set_link_state(1, up=True)),
    ]
    sim = run_both(one_link(EVEN_BPS, 20, 4_000, actions=actions))
    (cut,) = [train for train in sim.trains if train.horizon == 1_000_000]
    assert cut.acks > 1 and acks_of(cut)[-1] == 998_000
    first, successor = sim.sender.subflows
    assert (first.died_us, successor.created_us) == (1_798_000, 2_798_000)
