"""Deterministic discrete-event simulator for a multipath connection.

One sender and one receiver exchange bulk data over a set of point-to-point
links, one link per (local, remote) interface pair. The engine models:

* serialization and propagation per link: a segment handed to a link starts
  serializing when the link is free, takes ``bytes * 8 / bandwidth``, and is
  delivered one one-way delay later; the ack returns after another one-way
  delay. Links are lossless while up; a down link drops every in-flight and
  future segment and ack. The ack is queued on its sub-flow when the
  segment is sent on a link that is up; a segment sent on a down link
  queues none. A death drops its sub-flow's queued acks, and a link change
  those of the link's newest sub-flow, the only one that may be alive, so
  every queued ack of a live sub-flow arrives.
* an infinite-backlog sender that keeps the windows of the scheduler's
  deciding tier, the lowest with an alive flow, filled with MSS-sized
  segments. Each alive flow keeps its tier, and the run counts alive flows
  by tier, so the deciding tier is a lookup; ``select`` names it once, at
  start. A tier changes only with its flow's flag or life or the primary
  pairs: at an action (a flag changes only through :mod:`mpflow.sockopt`,
  which queues an MP_PRIO per flip), a death or a new sub-flow. A pump
  there re-tiers the flows that may have changed and visits only them, or
  every alive flow if the deciding tier moved. Each alive flow of that
  tier (``clocked``) fills its window, and refills it at each of its acks;
  other flows send nothing. In between, an ack changes only its own flow's
  window and RTT, so no tier moves. A clocked flow is the only live flow
  on its link and a send changes only its own flow and link, so the fills
  commute, and the segments go exactly where a per-segment choice would
  send them.
* one timer per sub-flow, which acts on the sub-flow's state when it fires:
  - busy (data or a probe unacknowledged): count a retransmission timeout.
    The deadline is ``max(2 * srtt, 200 ms)`` after the send or ack that
    armed the timer (srtt changes only where it is armed or disarmed next)
    and doubles per consecutive timeout (base, 2*base, 4*base); the third
    declares the sub-flow dead and requeues its in-flight bytes.
  - idle: send a zero-length keepalive probe, one second after the
    sub-flow went idle, so a path without data is health-checked by the
    same timeouts. Probes are invisible in the throughput accounting.
  - dead: open a brand-new sub-flow on the pair, inheriting nothing, at
    the first whole second after the death at which the link is up. The
    timer runs only while the link is up; the link's coming up sets it.
    A sub-flow that an action closes dies at the action's µs.
  A deadline that moves later is only recorded: the timer's one pending
  heap entry, when it fires early, is pushed again for the deadline. A
  sub-flow in a train or a keepalive (below) has no live timer entry: its
  pending one is dropped when it pops, and their end pushes one again.
* MP_PRIO delivery: a priority signal applies to the sub-flow that carries
  it (RFC 8684 §3.3.8). One that an action queues travels alone on its
  sub-flow's link and sets the receiver's view one one-way delay later,
  unless the link is down or changes by then, or the sub-flow dies. It
  carries no ack, sets no timer, gives no RTT sample and does not occupy
  the link.

Timeouts are counters only; no retransmission segment is emitted, because
links are lossless while up, so a timeout implies the path is down and
recovery happens through death plus re-establishment. A consequence is that
any outage long enough to eat three timeouts replaces the sub-flow.

Everything runs on an integer microsecond clock. Within one µs, actions and
option arrivals run first, in the order they were queued; timers run next,
by sub-flow id; acks run last, by sub-flow id, then in send order. So
identical inputs give byte-identical reports on any platform.

Each kind of control event has a queue of its own. The actions form a
script in time order, which the run consumes by index, and an action that
sorts last is appended to it; the bootstrap follows the 0 ms actions
scheduled before the run, and an action scheduled during it may not be due
before its current µs. The heap holds only the timers, as
``(at, sub-flow id, seq, flow)``. An option queues on its link as
``(arrival, order, sub-flow id, option)``, in arrival order, as the link's
delay is fixed; actions and options take their order from one count. An
option writes only the receiver's view of its sub-flow, which during the
run only actions read, so the run applies the options where the view is
next read or they are lost:

- before each action, those that arrive before it, at its µs only if
  queued first: the action reads the view that arrival events would leave;
- none at a change of its link, which comes in an action, after those:
  the change drops the rest, as it loses them, and a down link queues none;
- before a timer records its sub-flow's death, those due by its µs, which
  arrive before its timers; the rest reach a receiver that has recorded
  the death, and it ignores them;
- at the run's end, those that arrive before it.

Acks are not on the timer heap. A link serializes in send order, so a
sub-flow's acks come back in send order and wait in a FIFO on the sub-flow,
as runs ``(a, n, g, nbytes, r, dr)``: ``n`` acks of ``nbytes``, ack ``j``
due at ``a + j * g`` and sent ``r + j * dr`` before. What one send queues
is a run, or extends the last run if it continues its progression. A link
change, which restarts the link's clock, drops them by emptying the FIFO of
its newest sub-flow. The run's ack calendar is a heap of ``(head arrival,
sub-flow id, flow)``, where an id names one flow, so heapq compares no
flows. A send into an empty FIFO pushes its flow's entry, unless it starts
a train, and a drain that leaves acks in a FIFO pushes it at the new head.
An entry whose key is not its FIFO's head is stale, as a link change, a
death or a train emptied the FIFO, and a drain skips it. So no queued ack
is due before the calendar's top. Before each action or timer, the run
drains the FIFOs, by head arrival, up to a horizon if the top is before it:
the next action or timer, the end of the run or ``RTO_MIN_US`` after the
top, whichever is first. An ack touches only its own sub-flow, that
sub-flow's link and its acked bytes, and any deadline it sets is
``RTO_MIN_US`` or more after it, so past the horizon: no timer falls due
inside it and the acks of different sub-flows commute. No option cuts a
drain, as no ack reads or writes the receiver's view; a receiver that read
its own view during the run, such as a peer that sends too, would have to
apply them before its acks as well. A recorded death empties its sub-flow's
FIFO for good and ends its train or keepalive, and only a link's newest
sub-flow may be alive, so the pumps and the run's end visit the newest flow
of each link, and a pump skips a recorded death.

The drain hands a flow's due acks to :meth:`Simulation._on_acks` in one
call. Each ack feeds its round trip into srtt's EWMA, clears the timeouts,
logs its bytes or clears the probe, and arms the timer
at ``at + max(2 * srtt, RTO_MIN_US)``. An unclocked flow sends nothing and
stops at an ack that leaves it idle. A clocked flow first tries a train
(below), then refills. Its pump filled its window and each ack since
refilled what it freed, so the window is full before each ack, and a data
ack's refill is the one MSS it freed, which the call sends itself as
:meth:`Simulation._fill` would, on a link that is up, as at every ack;
only pumps call ``_fill``. A push per deadline that beats the pending
entry would leave that entry at the earliest of them, so the call pushes
it there once. A clocked flow's refill keeps this: its timer is armed when
the ack comes, as it has data or a probe outstanding, and a send arms only
an idle timer. An ack that freed its last byte would disarm the timer only
for the refill to arm it in the same µs, at the same deadline.

The call handles the due acks of a run in one step, up to the one that
idles an unclocked flow or at which a clocked one tries a train, exactly as
one by one: one log entry holds their bytes, and srtt steps a gap ``x`` to
the next sample to ``(7 * x) // 8 - dr``. Deadlines are worked out until
samples do not fall and ``x <= 4 * g - 7``: an ack then lowers ``2 * srtt``
by ``2 * ceil(x / 8) <= g`` at most and keeps ``x`` so, and the last
deadline follows from srtt. A refill leaves at its ack or when the link
frees; acks come ``s`` or more apart, so the link, busy at the first, stays
free once an ack finds it free: the refills form a run spaced ``s``, round
trips stepping by ``s - g``, then one spaced ``g`` at ``s + 2 * d``.

Most acks belong to steady trains, which run in closed form. A train is a
state of the sub-flow, not a step of the drain: :meth:`Simulation._train`
starts one on a clocked flow at an ack of a full window, or at the send of
a whole window into an empty FIFO, from the FIFO's two ends alike, as its
first ack would find it: until then only the timer (below) or a change that
ends the train alters what the try reads. The window is full on a link that
stays busy past the first ack ``a0``; 32 acks of one MSS are queued, spaced
by the serialization time ``s`` of at least 1 µs, so the link is up and
unchanged since they were sent; and no probe or timeout is outstanding. The
spacing is read from the window's two ends alone: a link serializes one
segment at a time, so a flow's data acks come at least ``s`` apart, and a
probe's ack is queued only while the probe is outstanding. So with no probe
outstanding, 32 queued acks whose last comes ``31 * s`` after ``a0`` are
data acks exactly ``s`` apart. A try that finds a probe or a timeout
outstanding is made again at the next ack, which may clear it, and any
other once a window of acks has replaced the ones it saw. The acks'
round-trip samples may be anything, such as the ramp of a window sent in
one burst. Each ack frees one MSS and sends one, which finishes ``s`` after
the one before and is acked ``32 * s`` after it was sent. It leaves the
window full, so the next ack meets the same conditions. Only srtt moves, by
its EWMA, and nothing reads it meanwhile: a pump reads tiers, which read no
srtt, and the timer reads it at its next arming.

The timer never fires between two acks of a train. When the drain tries
the train, its horizon is past ``a0`` and, as no horizon passes the next
heap event, no later than the flow's pending timer entry; a try at the
send checks that this entry is past ``a0``, as one that pops by then would
time out or push itself again, which a train's pop does not. So with no
timeout outstanding, the deadline ``armed_at + max(2 * srtt, RTO_MIN_US)``
is past ``a0`` as well. The timer was armed at an earlier ack, or at a
send from idle no later than that of ``a0``'s segment; either was at
least ``s`` before ``a0``, since that segment serialized for ``s`` after
the segments of earlier acks. So the base exceeds ``s``, and since every
sample is at least ``s``, the EWMA keeps it above ``s``: each ack's
deadline falls after the next ack.

So the acks form the progression ``a0 + i * s``: the train takes the
FIFO's runs as its window, the drain skips the flow, and every pump reads
the state it would read per ack. It lasts until
:meth:`Simulation._end_train` runs (below), which may be before ``a0``,
and applies the ack rule above to the k acks due before then: k MSS
acked, logged and sent; srtt's EWMA carried over the window's first k
round trips, run by run, then over the steady ``32 * s`` to its fixed
point, which :func:`_srtt_after` gives in closed form once enough acks
surely reach it; the link busy ``k * s`` longer; the timer armed once,
from the last ack, if k > 0; and the FIFO refilled with the window's rest
and a run of the train's sends, each sent ``32 * s`` before it comes,
unless a link change drops them.

An idle flow's probes run in closed form too, in a keepalive that
:meth:`Simulation._idle` starts when the flow goes idle, alive and
unclocked, on a link that is up and free, with ``max(2 * srtt, RTO_MIN_US)``
above the round trip ``2 * d`` (:meth:`Simulation._keepalive`); a dead
flow's window can hold it busy long after. No other flow sends on it
meanwhile, so each probe's ack beats its timeout, and its sample moves
srtt toward ``2 * d``, which keeps it so for the next probe. The probes, at
``p0 + k * (PROBE_INTERVAL_US + 2 * d)``, hold no heap or FIFO entry until
:meth:`Simulation._end_keepalive` works them out where they can be read
(below; a tier reads no srtt). A probe due in that very µs has
been sent only if a pump in the timer of a sub-flow with a higher id ends
it: timers run by id. Both closed forms end in :meth:`Simulation._settle`
alone: at a change of the flow's link, which marks the link down first,
so that neither queues an ack that the change drops; at a pump
that changes its ``clocked`` flag (a train runs clocked, a keepalive
unclocked) or records its death; and at the end of the run.

A run ends in a :class:`~mpflow.report.TimelineReport`: one column per
sub-flow, with its pair, its lifetime, its delivery log and its flag
history, from which the report's rows, its genealogy and its CSV derive
(:mod:`mpflow.report`) at any bucket width. The run reads none: a flow logs
its data acks as runs ``(a, k, g)``, extending the last if they continue it.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from collections import deque
from heapq import heappop, heappush  # the ack calendar's, which profilers do not count
from typing import Callable, Deque, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import sockopt
from .model import (
    ConnectionState,
    EndpointAddress,
    InterfacePair,
    SubflowState,
    ValidationError,
    _add_subflow,
    open_subflow,  # not called here, but profilers rebind simnet.open_subflow
    subflow_port,
)
from .report import MSS, US_PER_MS, SubflowColumn, TimelineReport, check_ms
from .scheduler import select, tier

# Transmission constants. The window saturates a 1 Mbps / 200 ms-RTT path:
# 32 * 1460 B / 0.2 s is about 1.87 Mbps of window, above link rate.
WINDOW_SEGMENTS = 32
WINDOW_BYTES = WINDOW_SEGMENTS * MSS
RTO_MIN_US = 200_000
RTO_DEATH_TIMEOUTS = 3
PROBE_INTERVAL_US = 1_000_000
REESTABLISH_INTERVAL_US = 1_000_000
# A sub-flow without an RTT sample times out at RTO_MIN_US, twice that and
# so on, and dies at this many µs after its first segment unless acked.
FIRST_DEATH_US = RTO_MIN_US * 2 ** (RTO_DEATH_TIMEOUTS - 1)


class _LinkSpecFields(NamedTuple):
    link_id: int
    pair: InterfacePair
    bandwidth_bps: int
    one_way_delay_ms: int


class LinkSpec(_LinkSpecFields):
    """A point-to-point link bound to one interface pair, as a named tuple
    checked when built."""

    __slots__ = ()

    def __new__(
        cls, link_id: int, pair: InterfacePair, bandwidth_bps: int, one_way_delay_ms: int
    ) -> LinkSpec:
        spec = super().__new__(cls, link_id, pair, bandwidth_bps, one_way_delay_ms)
        if not isinstance(pair, InterfacePair):
            raise ValidationError(f"link {link_id}: pair must be an InterfacePair: {pair!r}")
        numbers = (("id", link_id), ("bandwidth", bandwidth_bps), ("delay", one_way_delay_ms))
        for what, value in numbers:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"link {link_id}: {what} must be a whole number: {value!r}")
        if bandwidth_bps <= 0:
            raise ValidationError(f"link {link_id}: bandwidth must be positive")
        if one_way_delay_ms < 0:
            raise ValidationError(f"link {link_id}: delay must be >= 0")
        if first_ack_us(spec) == 0:  # each ack would send the next in its own µs
            raise ValidationError(
                f"link {link_id}: at 0 ms delay, bandwidth must be <= {MSS * 8_000_000} bps"
            )
        return spec


def mss_us(bandwidth_bps: int) -> int:
    """How long an MSS serializes at ``bandwidth_bps``, in whole µs."""
    return MSS * 8 * 1_000_000 // bandwidth_bps


def first_ack_us(spec: LinkSpec) -> int:
    """How long after an MSS is sent on the idle link ``spec`` its ack comes
    back. From FIRST_DEATH_US on, every sub-flow on the link dies unacked."""
    return mss_us(spec.bandwidth_bps) + 2 * spec.one_way_delay_ms * US_PER_MS


class _Link:
    """Simulator state of one link. What the sends read of ``spec`` is
    worked out once: the one-way delay and an MSS's serialization time in
    µs. It queues the MP_PRIO options on their way (module docstring)."""

    __slots__ = ("spec", "delay_us", "mss_us", "up", "tx_free_us", "options")

    def __init__(self, spec: LinkSpec) -> None:
        self.spec = spec
        self.delay_us = spec.one_way_delay_ms * US_PER_MS
        self.mss_us = mss_us(spec.bandwidth_bps)
        self.up = True
        self.tx_free_us = 0
        self.options: Deque[tuple] = deque()


class _Flow:
    """Simulator state of one sub-flow: the sender's sub-flow, the receiver's
    mirror of it (``peer``), the link serving its pair, its timer, and what
    its report column takes (:class:`~mpflow.report.SubflowColumn`): its
    delivery ``log`` of data acks and the history of its priority flag."""

    __slots__ = (
        "sf", "peer", "link", "flag_times", "flag_values", "log", "armed_at_us", "timer",
        "timer_pending", "probe_outstanding", "clocked", "acks", "train_wait", "train",
        "keepalive", "tier",
    )

    def __init__(self, sf: SubflowState, peer: SubflowState, link: _Link) -> None:
        self.sf = sf
        self.peer = peer
        self.link = link
        self.flag_times = [sf.created_us]
        self.flag_values = [sf.low_prio]
        self.log: List[Tuple[int, int, int]] = []
        self.armed_at_us: Optional[int] = None  # None: idle, no retransmission timeout runs
        self.timer = 0  # deadline
        self.timer_pending: Optional[Tuple[int, int]] = None  # (at, seq) of its heap entry
        self.probe_outstanding = False
        self.clocked = False  # alive in the deciding tier: its acks refill it
        # acks that will arrive, in send order, as runs (module docstring)
        self.acks: Deque[tuple] = deque()
        self.train_wait = 0  # acks to handle before a train is tried
        self.train: Optional[List[tuple]] = None  # in a train: the runs of its window
        self.keepalive: Optional[int] = None  # in a keepalive: its next probe's send time
        self.tier: Optional[int] = None  # alive: its tier, as Simulation counts it; dead: None


class TopologyError(ValidationError):
    """Links that do not fit a connection; ``link_index`` is the position of
    the link at fault, or None if no link is."""

    def __init__(self, message: str, link_index: Optional[int]) -> None:
        super().__init__(message)
        self.link_index = link_index


def check_topology(
    local_addrs: Sequence[EndpointAddress],
    remote_addrs: Sequence[EndpointAddress],
    links: Sequence[LinkSpec],
) -> None:
    """Raise TopologyError unless ``links`` serve every (local, remote) pair
    with one link each, under distinct link ids, and serve no other pair. A
    pair that cannot be served is blamed on the later of the first link from
    its local and the first link to its remote address."""

    first_from: Dict[bytes, int] = {}  # the index of the first link from each address
    first_to: Dict[bytes, int] = {}  # and to each
    for k, spec in enumerate(links):
        first_from.setdefault(spec.pair.src, k)
        first_to.setdefault(spec.pair.dst, k)

    def blame(local: EndpointAddress, remote: EndpointAddress) -> Optional[int]:
        i, j = first_from.get(local.address), first_to.get(remote.address)
        return None if i is None or j is None else max(i, j)

    served = {spec.pair for spec in links}
    mesh = set()  # as plain tuples, which equal and hash as the pairs do
    for local in local_addrs:
        for remote in remote_addrs:
            if local.family is not remote.family:
                problem = f"mixed address families within one pair {local.host()}->{remote.host()}"
                raise TopologyError(problem, blame(local, remote))
            pair = (local.family, local.address, remote.address)
            if pair not in served:
                problem = f"no link serves interface pair {InterfacePair._make(pair)}"
                raise TopologyError(problem, blame(local, remote))
            mesh.add(pair)
    pairs, link_ids = set(), set()
    for i, spec in enumerate(links):
        if spec.pair in pairs:
            raise TopologyError(f"duplicate link for pair {spec.pair}", i)
        if spec.link_id in link_ids:
            raise TopologyError(f"duplicate link id {spec.link_id}", i)
        if spec.pair not in mesh:
            raise TopologyError(f"link {spec.link_id} pair {spec.pair} is not in the mesh", i)
        pairs.add(spec.pair)
        link_ids.add(spec.link_id)


class Simulation:
    """A single deterministic run. Build one, call :meth:`run` once. The
    receiver is the sender's mirror (:func:`mirror_connection`)."""

    def __init__(
        self,
        sender: ConnectionState,
        links: List[LinkSpec],
        duration_ms: int,
        bucket_ms: int = 1000,
    ) -> None:
        check_ms("duration", duration_ms)
        check_ms("bucket width", bucket_ms)
        check_topology(sender.local_addrs, sender.remote_addrs, links)
        # A dead sub-flow counts as None, the pair of no link. The links'
        # pairs are distinct, so equal sets of as many pairs are equal counts.
        pairs = {sf.pair() if sf.alive else None for sf in sender.subflows}
        if len(sender.subflows) != len(links) or pairs != {spec.pair for spec in links}:
            raise ValidationError("the sender must hold one live sub-flow per link pair")
        self.sender = sender
        self.receiver = mirror_connection(sender)
        self.duration_us = duration_ms * US_PER_MS
        self.bucket_ms = bucket_ms  # the report's: the run reads no bucket width
        self.now_us = 0

        links_by_pair = {spec.pair: _Link(spec) for spec in links}

        # The control events' queues (module docstring): the script of
        # actions, (at_us, order, action) in time order, and the heap of
        # timers, (at_us, sub-flow id, seq, flow). Actions and options take
        # their order from seq, which also keeps every timer entry unique. A
        # _Flow holds no reference to the simulation, so pending entries do
        # not either and a finished run is freed by reference counting.
        self._script: List[tuple] = []
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._flows: Dict[int, _Flow] = {
            sf.id: _Flow(sf, peer, links_by_pair[sf.pair()])
            for sf, peer in zip(sender.subflows, self.receiver.subflows)
        }
        # The newest flow on each link, by link id: the only one that may be alive.
        self._newest_flow = {flow.link.spec.link_id: flow for flow in self._flows.values()}
        self._calendar: List[tuple] = []  # the ack calendar (module docstring)
        self._option_links: Dict[_Link, None] = {}  # links that may hold options, a set in order
        # Alive flows counted by cached tier from here on, as actions at
        # 0 ms pump before the bootstrap; and the tier whose flows are
        # clocked, None before the first pump.
        self._tier_counts = [0, 0, 0]
        self._deciding: Optional[int] = None
        for flow in self._flows.values():
            self._retier(flow)
        self._finished = False

    # ------------------------------------------------------------------ #
    # event plumbing

    def schedule_action(self, at_ms: int, action: Callable[["Simulation"], None]) -> None:
        """Run ``action(self)`` at ``at_ms``: :meth:`schedule_actions` of one."""
        self.schedule_actions(((at_ms, action),))

    def schedule_actions(self, actions: Iterable[Tuple[int, Callable]]) -> None:
        """For each ``(at_ms, action)`` in turn, run ``action(self)`` at ``at_ms``,
        a whole number of ms before the run's end and not before its current
        µs, after the actions scheduled for it so far, or raise ValidationError.
        An action flips priorities through :mod:`mpflow.sockopt`, which queues
        an MP_PRIO per flip for the run to record, and opens no sub-flow."""
        script, seq, now, end = self._script, self._seq, self.now_us, self.duration_us
        for ms, action in actions:
            if not isinstance(ms, int) or isinstance(ms, bool) or ms < 0:
                raise ValidationError(f"an action's time must be a whole number of ms >= 0: {ms}")
            at_us = ms * US_PER_MS
            if at_us >= end:
                raise ValidationError(f"an action at {ms} ms would never run: the run ends first")
            if at_us < now:
                raise ValidationError(
                    f"an action at {ms} ms would run in the past: the run is at {now} µs"
                )
            last = not script or script[-1][0] <= at_us  # it sorts last, by its seq: append
            bisect.insort(script, (at_us, next(seq), action), len(script) if last else 0)

    # ------------------------------------------------------------------ #
    # link and flow helpers

    def set_link_state(self, link_id: int, up: bool) -> None:
        """Bring a link up or down, dropping everything in flight on it."""
        flow = self._newest_flow.get(link_id)
        if flow is None:
            raise ValidationError(f"no link with id {link_id}")
        now, sf, link = self.now_us, flow.sf, flow.link
        link.up = False  # so a closed form's end queues no ack that the change drops
        self._settle(flow, now)
        flow.acks.clear()
        link.options.clear()  # the ones due before the action that changes it are applied
        link.up = up
        link.tx_free_us = now
        if up and sf.died_us is not None:  # its next attempt, on the grid from its death
            attempts = max(1, -((sf.died_us - now) // REESTABLISH_INTERVAL_US))
            self._set_timer(flow, sf.died_us + attempts * REESTABLISH_INTERVAL_US)

    def _send_probe(self, flow: _Flow, at: int) -> None:
        """Send a keepalive probe, 0 bytes that take no time, at ``at``; time it out."""
        link, rtt = flow.link, 2 * flow.link.delay_us
        link.tx_free_us = start = max(at, link.tx_free_us)
        if link.up:  # on a down link, the probe and its ack are lost; else its FIFO was empty
            flow.acks.append((start + rtt, 1, 0, 0, start + rtt - at, 0))
            heappush(self._calendar, (start + rtt, flow.sf.id, flow))
        flow.probe_outstanding = True
        self._arm_rto(flow, at)

    def _arm_rto(self, flow: _Flow, at: int) -> None:
        """Arm the flow's retransmission timeout from ``at`` (RFC 6298)."""
        sf = flow.sf
        flow.armed_at_us = at
        self._set_timer(flow, at + max(2 * sf.srtt_us, RTO_MIN_US) * 2**sf.consecutive_timeouts)

    def _set_timer(self, flow: _Flow, fire_at: int) -> None:
        # Pushed only if it beats the flow's pending entry; a later deadline
        # is pushed when the pending entry fires.
        flow.timer = fire_at
        if flow.timer_pending is None or fire_at < flow.timer_pending[0]:
            flow.timer_pending = fire_at, seq = fire_at, next(self._seq)
            heapq.heappush(self._heap, (fire_at, flow.sf.id, seq, flow))

    def _retier(self, flow: _Flow) -> None:
        """Cache the tier of ``flow``, None once it is dead, and keep the
        counts of alive flows by tier."""
        sf, counts = flow.sf, self._tier_counts
        rank = tier(self.sender, sf) if sf.alive else None
        if rank != flow.tier:
            if flow.tier is not None:
                counts[flow.tier] -= 1
            if rank is not None:
                counts[rank] += 1
            flow.tier = rank

    def _pump(self, flows: Optional[List[_Flow]] = None, timer_id: int = 0) -> None:
        """Mark the alive flows of the deciding tier ``clocked`` and fill
        their windows, as an ack refills its own flow's. ``flows`` are the
        flows whose tier or life may have changed since the last pump and
        whose death is not recorded: it re-tiers them and visits only them,
        unless the deciding tier moved; then, and at the bootstrap (``flows``
        None, where ``select`` names the tier), it visits the newest flow of
        each link, unless its death is recorded. It records the death of a
        sub-flow killed by its timer, whose id is ``timer_id``, or closed by
        an action.

        A flow not visited keeps its tier and life, so its ``clocked``
        flag, and a clocked one its full window, as its acks refill it.
        Each clocked flow is the only live flow on its link, and a fill
        touches only its own flow and link, so the order of the fills moves
        no segment: they send what a choice per segment would, and leave
        the deciding tier with no schedulable member."""
        if flows == [] and self._deciding is not None:
            return  # no tier moved since the last pump, which had one to decide
        now = self.now_us
        if flows is None:
            deciding = select(self.sender, MSS, WINDOW_BYTES).tier
        else:
            for flow in flows:
                self._retier(flow)
            counts = self._tier_counts  # the lowest tier with an alive flow decides
            deciding = 0 if counts[0] else 1 if counts[1] else 2 if counts[2] else None
        if flows is None or deciding != self._deciding:
            flows = [flow for flow in self._newest_flow.values() if flow.sf.died_us is None]
        self._deciding = deciding
        for flow in flows:
            sf = flow.sf
            clocked = sf.alive and flow.tier == deciding
            if clocked != flow.clocked or not sf.alive:  # a closed form ends (module docstring)
                self._settle(flow, now, sf.id < timer_id)
            if not sf.alive:  # killed, or closed by an action
                sf.died_us = now
                sf.inflight_bytes = 0  # in-flight data goes back to the backlog
                flow.acks.clear()  # late acks, which would change nothing
                flow.peer.alive = False
                # Only this flow's timer, finding the link up, re-opens the pair.
                if flow.link.up:
                    self._set_timer(flow, now + REESTABLISH_INTERVAL_US)
            flow.clocked = clocked
            if clocked and sf.inflight_bytes < WINDOW_BYTES:  # an ack left most windows full
                self._fill(flow)

    def _fill(self, flow: _Flow) -> None:
        """Send the ``n`` MSS segments that fit the flow's window in one step:
        back to back on its link, each acked ``s`` after the one before. An
        ack's one-MSS refill is sent in :meth:`_on_acks` (module docstring)."""
        sf, link, now = flow.sf, flow.link, self.now_us
        n = (WINDOW_BYTES - sf.inflight_bytes) // MSS
        if n <= 0:
            return
        s, start = link.mss_us, max(now, link.tx_free_us)
        link.tx_free_us = start + n * s
        sf.inflight_bytes += n * MSS
        sf.bytes_sent_total += n * MSS
        if flow.armed_at_us is None:
            self._arm_rto(flow, now)
        if link.up:  # on a down link, the segments and their acks are lost
            first, empty = start + s + 2 * link.delay_us, not flow.acks
            _queue(flow.acks, first, n, s, first - now, s)
            if empty:  # a whole window may start a train at once (module docstring)
                if n == WINDOW_SEGMENTS and not flow.train_wait and self._train(flow):
                    return
                heappush(self._calendar, (first, sf.id, flow))

    # ------------------------------------------------------------------ #
    # event handlers

    def _deliver(self, links: Iterable[_Link], before: tuple) -> None:
        """Apply the MP_PRIO options queued on ``links`` that arrive before
        ``before``, an ``(at, order)`` key, each to the sub-flow it travels
        on, and forget each link that they leave with none."""
        for link in [*links]:
            options = link.options
            while options and options[0] < before:
                _, _, sf_id, opt = options.popleft()
                sockopt.apply_remote_mp_prio(self.receiver, opt, received_on=sf_id)
            if not options:
                self._option_links.pop(link, None)

    def _on_acks(self, flow: _Flow, horizon: int) -> None:
        """Handle ``flow``'s acks due before ``horizon``, a run's due part per
        step (module docstring), up to one that idles an unclocked flow or
        starts a clocked one's train; push the timer's entry once, at the soonest."""
        sf, link, acks, clocked = flow.sf, flow.link, flow.acks, flow.clocked
        s, rtt, rto_min = link.mss_us, 2 * link.delay_us, RTO_MIN_US
        srtt, inflight, probe = sf.srtt_us, sf.inflight_bytes, flow.probe_outstanding
        at, armed_at, soonest, deadline, sent = self.now_us, flow.armed_at_us, None, 0, 0
        while acks and acks[0][0] < horizon:
            a, n, g, nbytes, r, dr = acks[0]
            k = n if not g or a + (n - 1) * g < horizon else (horizon - a - 1) // g + 1
            idle = False
            if clocked:  # tried again at the next ack or a window later (module docstring)
                if not flow.train_wait:
                    if soonest is not None:  # what _train reads; the window stays full
                        flow.probe_outstanding, sf.consecutive_timeouts = probe, 0
                    if self._train(flow):
                        break
                    flow.train_wait = 1 if probe or sf.consecutive_timeouts else WINDOW_SEGMENTS
                k = min(k, flow.train_wait)
                flow.train_wait -= k
            elif inflight <= k * nbytes and not (probe and nbytes):  # the ack that idles it
                idle, k = True, max(-(-inflight // nbytes), 1) if nbytes else 1
            if k == n:
                acks.popleft()
            else:
                acks[0] = (a + k * g, n - k, g, nbytes, r + k * dr, dr)
            at = a + (k - 1) * g
            if not nbytes:
                probe = False
            elif clocked:  # the one-MSS refills, while the link is busy, then idle
                free = link.tx_free_us
                busy = 0 if free < a else k if g == s else min(k, (free - a) // (g - s) + 1)
                if busy:
                    _queue(acks, free + s + rtt, busy, s, free + s + rtt - a, s - g)
                if busy < k:
                    _queue(acks, a + busy * g + s + rtt, k - busy, g, s + rtt, 0)
                link.tx_free_us = at + s if busy < k else free + k * s
                sent += k * MSS
            else:
                inflight -= k * nbytes
            if nbytes:
                _log(flow.log, a, k, g)
            armed = k - idle
            for j in range(armed):  # _arm_rto's deadline: no timeout is outstanding
                sample = r + j * dr
                srtt = sample if srtt == 0 else (7 * srtt + sample) // 8
                rto = 2 * srtt
                deadline = a + j * g + (rto if rto > rto_min else rto_min)
                if soonest is None or deadline < soonest:
                    soonest = deadline
                if dr >= 0 and srtt - sample - dr <= 4 * g - 7:  # no later deadline is sooner
                    srtt = _srtt_after(srtt, sample + dr, armed - 1 - j, dr)
                    deadline = at - idle * g + max(2 * srtt, rto_min)
                    break
            if idle:  # its sample too
                sample = r + armed * dr
                srtt = sample if srtt == 0 else (7 * srtt + sample) // 8
                break
            armed_at = at
        self.now_us = at
        sf.srtt_us, sf.inflight_bytes, flow.probe_outstanding = srtt, inflight, probe
        sf.consecutive_timeouts, sf.bytes_sent_total = 0, sf.bytes_sent_total + sent
        if soonest is not None:
            self._set_timer(flow, soonest)
            flow.timer = deadline
        flow.armed_at_us = armed_at if inflight > 0 or probe else None
        self._idle(flow)

    def _idle(self, flow: _Flow) -> None:
        """If the unclocked ``flow`` is alive and idle, time its next probe: in
        a keepalive if :meth:`_keepalive` lets one run, else by its timer."""
        if flow.armed_at_us is not None or not flow.sf.alive:
            return
        if self._keepalive(flow):
            flow.keepalive = self.now_us + PROBE_INTERVAL_US
        else:
            self._set_timer(flow, self.now_us + PROBE_INTERVAL_US)

    def _keepalive(self, flow: _Flow) -> bool:
        """Whether the idle ``flow``'s probes can run in closed form (module docstring)."""
        link = flow.link
        free = link.up and link.tx_free_us <= self.now_us
        return free and max(2 * flow.sf.srtt_us, RTO_MIN_US) > 2 * link.delay_us

    def _on_timer(self, flow: _Flow, seq: int) -> None:
        if flow.timer_pending is None or flow.timer_pending[1] != seq:
            return  # superseded by an earlier deadline
        flow.timer_pending = None
        if flow.train is not None or flow.keepalive is not None:
            return  # not due: a train's or a keepalive's end pushes its timer again
        if flow.timer != self.now_us:
            self._set_timer(flow, flow.timer)  # the deadline moved later: wait for it
            return
        sf = flow.sf
        if not sf.alive:
            if flow.link.up:  # else its link's coming up sets the timer again
                self._open_on_pair(flow.link)
        elif flow.armed_at_us is None:
            self._send_probe(flow, self.now_us)
        else:
            sf.consecutive_timeouts += 1
            if sf.consecutive_timeouts >= RTO_DEATH_TIMEOUTS:
                self._kill(flow)
            else:
                self._arm_rto(flow, flow.armed_at_us)

    def _kill(self, flow: _Flow) -> None:
        self._deliver((flow.link,), (self.now_us + 1,))  # those of its µs arrive before a timer
        flow.sf.alive = False
        self._pump([flow], flow.sf.id)

    def _open_on_pair(self, link: _Link) -> None:
        """Open a sub-flow on the pair of ``link``, whose sub-flows are all
        dead. Its endpoints take the pair's addresses, checked when the link
        was built, and no live sub-flow holds the pair, so none is bound to
        their tuple: ``open_subflow``'s checks would find nothing."""
        sender, pair = self.sender, link.spec.pair
        port = subflow_port(sender.next_id)
        src = EndpointAddress._make((pair.family, pair.src, port))
        dst = EndpointAddress._make((pair.family, pair.dst, port))
        sf = _add_subflow(sender, src, dst)
        sf.created_us = self.now_us
        peer = _mirror(sf)
        self.receiver.subflows.append(peer)
        self.receiver.next_id = sender.next_id
        flow = _Flow(sf, peer, link)
        self._flows[sf.id] = self._newest_flow[link.spec.link_id] = flow
        # A new sub-flow can only lower the deciding tier, to its own, alone.
        self._pump([flow])
        self._idle(flow)

    def _on_action(self, action: Callable[["Simulation"], None]) -> None:
        """Run ``action``, then pump the flows whose tier it may have
        changed: each that it flipped or closed, by the ids in the outbox
        and ``closed_ids``; every alive flow if it changed the primary pairs."""
        sender, flows, visit = self.sender, self._flows, {}  # visit: the flows to pump, in order
        primary = [*sender.primary_pairs]
        action(self)
        if len(sender.subflows) != len(flows):
            raise ValidationError("an action may not open sub-flows; the simulator opens them")
        outbox, closed, now = sender.outbox, sender.closed_ids, self.now_us
        for sf_id, opt in outbox:  # each on its own sub-flow's link
            flow = flows[sf_id]
            visit[flow] = None
            if flow.sf.low_prio != flow.flag_values[-1]:
                flow.flag_times.append(now)
                flow.flag_values.append(flow.sf.low_prio)
            link = flow.link
            if link.up:  # else lost, as it would be at any change before it arrives
                link.options.append((now + link.delay_us, next(self._seq), sf_id, opt))
                self._option_links[link] = None
        for sf_id in closed:
            visit[flows[sf_id]] = None
        if sender.primary_pairs != primary:  # every flow may change tier
            visit = [flow for flow in self._newest_flow.values() if flow.sf.died_us is None]
        outbox.clear()
        closed.clear()
        self._pump([*visit])  # flags change and closes happen only on alive sub-flows

    # ------------------------------------------------------------------ #
    # main loop and report

    def _bootstrap(self) -> None:
        # Runs at t=0 after the t=0 actions scheduled before the run, so
        # e.g. enabling the primary-path-only scheduler "just after socket
        # creation" precedes the first segment. Its pump is the run's one
        # ``select``; later pumps read the counts.
        self._pump()
        for flow in self._flows.values():
            self._idle(flow)

    def run(self) -> TimelineReport:
        if self._finished:
            raise RuntimeError("a Simulation instance runs only once")
        self._finished = True
        script, heap, calendar = self._script, self._heap, self._calendar
        bisect.insort(script, (0, next(self._seq), None))  # None: the bootstrap
        duration_us, i, horizon = self.duration_us, 0, 0
        while horizon < duration_us:
            # No queued ack is due before the calendar's top, and any deadline
            # it sets is RTO_MIN_US later (module docstring).
            action_us = script[i][0] if i < len(script) else duration_us
            timer_us = heap[0][0] if heap else duration_us
            next_us = action_us if action_us <= timer_us else timer_us  # at most duration_us
            next_ack = calendar[0][0] if calendar else duration_us
            horizon = min(next_us, next_ack + RTO_MIN_US)
            if next_ack < horizon:
                self._drain_acks(horizon)
                if horizon < next_us:
                    continue
            if horizon == duration_us:
                continue
            self.now_us = next_us
            if next_us == action_us:  # actions run before the timers of their µs
                _, order, action = script[i]
                i += 1
                if self._option_links:
                    self._deliver(self._option_links, (next_us, order))
                if action is None:
                    self._bootstrap()
                else:
                    self._on_action(action)
            else:
                _, _, seq, flow = heapq.heappop(heap)
                self._on_timer(flow, seq)
        self._deliver(self._option_links, (duration_us,))
        for flow in self._newest_flow.values():
            self._settle(flow, duration_us)
        columns = [
            SubflowColumn(
                flow.sf.id, flow.link.spec.pair, flow.log, flow.flag_times, flow.flag_values,
                flow.sf.died_us,
            )
            for flow in self._flows.values()
        ]
        return TimelineReport(self.bucket_ms, duration_us // US_PER_MS, columns)

    def _drain_acks(self, horizon: int) -> None:
        """Handle the acks due before ``horizon``, by head arrival (module docstring)."""
        calendar = self._calendar
        while calendar and calendar[0][0] < horizon:
            head, _, flow = heappop(calendar)
            acks = flow.acks
            if acks and acks[0][0] == head:  # else stale
                self._on_acks(flow, horizon)
                if acks:
                    heappush(calendar, (acks[0][0], flow.sf.id, flow))

    def _train(self, flow: _Flow) -> bool:
        """Start a train on the clocked ``flow`` if the acks in its FIFO form
        one, checked from its two ends (module docstring), taking the FIFO's
        runs as its window, and return True; else return False, changing nothing."""
        sf, link, acks = flow.sf, flow.link, flow.acks
        s, free, rtt = link.mss_us, link.tx_free_us, 2 * link.delay_us
        a0, (a, n, g, *_) = acks[0][0], acks[-1]
        if not (
            s
            and sf.alive
            and sf.inflight_bytes == WINDOW_BYTES
            and not flow.probe_outstanding
            and sf.consecutive_timeouts == 0
            and flow.timer_pending[0] > a0  # a timer runs before an ack of its µs
            and free >= a0
            and a + (n - 1) * g == free + rtt  # the FIFO's last ack
            and free + rtt - a0 == (WINDOW_SEGMENTS - 1) * s
            and sum(run[1] for run in acks) == WINDOW_SEGMENTS
        ):
            return False
        flow.train = [*acks]
        acks.clear()
        return True

    def _settle(self, flow: _Flow, until: int, probe_at_until: bool = False) -> None:
        """End the train or the keepalive of ``flow``, if it runs one, at ``until``."""
        if flow.train is not None:
            self._end_train(flow, until)
        elif flow.keepalive is not None:
            self._end_keepalive(flow, until, probe_at_until)

    def _end_train(self, flow: _Flow, until: int) -> None:
        """End the train of ``flow``: handle its acks due before ``until``
        as :meth:`_on_acks` would, arm the timer from the last one, and
        queue the acks still to come on a link that is up, where a link
        change would not drop them. A train started at an ack ends past its
        first ack; one started at a send may end before it, handling none.
        srtt's steps grow with the log of its distance from ``32 * s``."""
        sf, link, window = flow.sf, flow.link, flow.train
        flow.train, acks = None, flow.acks
        a0, s, rtt = window[0][0], link.mss_us, WINDOW_SEGMENTS * link.mss_us
        k = max(-((a0 - until) // s), 0)  # the acks a0 + i * s before until
        head, srtt, left = a0 + k * s, sf.srtt_us, k
        for a, n, g, _, r, dr in window:  # its first acks' round trips; the rest still come
            done = min(n, left)
            left -= done
            srtt = _srtt_after(srtt or r, r, done, dr)  # from the first sample, if none yet
            if link.up:
                _queue(acks, a + done * g, n - done, g, r + done * dr, dr)
        if link.up:  # then those of the train's sends, each sent its round trip before it comes
            _queue(acks, max(head, a0 + rtt), min(k, WINDOW_SEGMENTS), s, rtt, 0)
            heappush(self._calendar, (acks[0][0], sf.id, flow))  # a train's FIFO was empty
        if not k:
            return
        _log(flow.log, a0, k, s)
        sf.srtt_us = _srtt_after(srtt, rtt, k - WINDOW_SEGMENTS)
        sf.bytes_sent_total += k * MSS
        link.tx_free_us += k * s
        self._arm_rto(flow, head - s)

    def _end_keepalive(self, flow: _Flow, until: int, probe_at_until: bool) -> None:
        """End the keepalive of ``flow``: send the probes due before ``until``,
        and the one due at it if ``probe_at_until``, and handle their acks
        due before ``until``, as the timer and :meth:`_on_acks` would."""
        sf, link = flow.sf, flow.link
        first, flow.keepalive = flow.keepalive, None
        rtt = 2 * link.delay_us
        period = PROBE_INTERVAL_US + rtt
        n = -((first - until - probe_at_until) // period)  # probes sent
        if n <= 0:
            self._set_timer(flow, first)
            return
        last = first + (n - 1) * period
        outstanding = last + rtt >= until
        if n > outstanding:  # their acks; the first sets srtt if it has no sample yet
            sf.srtt_us = _srtt_after(sf.srtt_us or rtt, rtt, n - outstanding)
        link.tx_free_us = last
        if outstanding:
            self._send_probe(flow, last)
        else:
            self._set_timer(flow, last + period)


def _srtt_after(srtt: int, sample: int, n: int, dr: int = 0) -> int:
    """srtt after ``n`` acks of round trips ``sample + j * dr``: its EWMA,
    in closed form once a constant round trip surely reaches its fixed point.

    A step maps the gap ``d = srtt - sample`` to ``(7 * d) // 8``, and the
    sample moves by ``dr``. Above a constant sample, the gap shrinks by at
    least an eighth a step, down to 0. Below it, the gap to -7 does, and a
    gap from -7 to -1 stays. So the fixed point is ``sample + max(min(d, 0),
    -7)``, reached within ``6 * abs(d).bit_length()`` steps: (7/8)**6 < 1/2."""
    d = srtt - sample
    if not dr and n >= 6 * abs(d).bit_length():
        return sample + max(min(d, 0), -7)
    for _ in range(n):
        d = (7 * d >> 3) - dr  # floors, as (7 * srtt + sample) // 8 does
    return sample + n * dr + d


def _queue(acks: Deque[tuple], a: int, n: int, g: int, r: int, dr: int) -> None:
    """Queue the run of ``n`` data acks ``(a, n, g, MSS, r, dr)``, or extend
    the FIFO's last run with it if it continues that run's progression."""
    if not n:
        return
    if acks:
        a1, n1, g1, nbytes, r1, dr1 = acks[-1]
        if g1 == g and dr1 == dr and nbytes and a1 + n1 * g == a and r1 + n1 * dr == r:
            acks[-1] = (a1, n1 + n, g, MSS, r1, dr)
            return
    acks.append((a, n, g, MSS, r, dr))


def _log(log: List[Tuple[int, int, int]], a: int, k: int, g: int) -> None:
    """Log ``k`` data acks due at ``a + i * g``, or extend the log's last run
    with them if they continue that run's progression."""
    if log:
        a1, n1, g1 = log[-1]
        if g1 == g and a1 + n1 * g == a:
            log[-1] = (a1, n1 + k, g)
            return
    log.append((a, k, g))


def _mirror(sf: SubflowState) -> SubflowState:
    """The receiver's view of ``sf``: same id, reversed tuple, and the birth
    priority, which travels with the join (stand-in for the handshake's
    backup bit)."""
    return SubflowState(sf.id, sf.dst, sf.src, sf.low_prio)


def mirror_connection(conn: ConnectionState) -> ConnectionState:
    """The receiver-side view: same sub-flow ids, reversed tuples."""
    return ConnectionState(
        local_addrs=list(conn.remote_addrs),
        remote_addrs=list(conn.local_addrs),
        subflows=[_mirror(sf) for sf in conn.subflows],
        next_id=conn.next_id,
    )
