"""Shared builders for the test suite."""

from mpflow.model import (
    EndpointAddress,
    InterfacePair,
    new_connection,
    subflow_port,
)
from mpflow.simnet import MSS

LOCAL = "10.0.0.1"
REMOTES = ("10.0.1.1", "10.0.2.1", "10.0.3.1")


def addr(text: str, port: int = 0) -> EndpointAddress:
    return EndpointAddress.from_string(text, port)


def pair(src: str, dst: str) -> InterfacePair:
    return InterfacePair.between(addr(src), addr(dst))


def three_paths():
    """Connection with 1 local and 3 remote interfaces, like the canned
    three-link topology."""
    return new_connection([addr(LOCAL)], [addr(r) for r in REMOTES])


def tuple_for_next(conn, mesh_pair):
    """The deterministic 4-tuple open_subflow would use for a pair."""
    port = subflow_port(conn.next_id)
    return (
        EndpointAddress(mesh_pair.family, mesh_pair.src, port),
        EndpointAddress(mesh_pair.family, mesh_pair.dst, port),
    )


def logged(log):
    """The arrivals of the acks in a delivery log, one by one: a run
    ``(a, k, g)`` holds ``k`` acks of an MSS, the ``i``-th due at
    ``a + i * g``."""
    return [a + i * g for a, k, g in log for i in range(k)]


def acked_by_bucket(flow, bucket_us):
    """A simulated sub-flow's acked bytes as {bucket: bytes} at buckets of
    ``bucket_us``, for the buckets that hold any, ack by ack from its log."""
    acked = {}
    for at in logged(flow.log):
        acked[at // bucket_us] = acked.get(at // bucket_us, 0) + MSS
    return acked


def expand(runs):
    """The acks of a FIFO of runs, or of a train's window, one by one as
    ``(arrival, nbytes, sent at)``: a run ``(a, n, g, nbytes, r, dr)`` holds
    ``n`` acks of ``nbytes``, ack ``j`` due at ``a + j * g`` and sent its
    round trip ``r + j * dr`` before."""
    return [
        (a + j * g, nbytes, a + j * g - (r + j * dr))
        for a, n, g, nbytes, r, dr in runs or ()
        for j in range(n)
    ]


def pop_ack(acks):
    """Take the first ack off the FIFO of runs ``acks``, as ``(arrival,
    nbytes, sent at)``."""
    a, n, g, nbytes, r, dr = acks.popleft()
    if n > 1:
        acks.appendleft((a + g, n - 1, g, nbytes, r + dr, dr))
    return a, nbytes, a - r


def acks_handled(flow, queued, sent):
    """How many acks a call of ``Simulation._on_acks`` handled on ``flow``,
    which held ``queued`` acks and had sent ``sent`` bytes before it. The
    FIFO gains the ack of each segment the call sends, all on a link that
    is up, and a train that starts in it takes the FIFO's acks unhandled."""
    gained = (flow.sf.bytes_sent_total - sent) // MSS
    return queued + gained - len(expand(flow.acks)) - len(expand(flow.train))


def on_ack_arrival(sim, flow, nbytes, sent_us):
    """The one-ack reference for ``Simulation._on_acks``: ``flow`` receives
    at ``sim.now_us`` the ack of ``nbytes`` sent at ``sent_us``. It takes an
    RTT sample, clears the timeouts, frees the bytes or the probe, and arms
    the timer from the ack or disarms it if the flow is left idle, as its
    own call of ``_arm_rto``, and logs a data ack as a run of its own; then a
    clocked flow refills and an idle one times its next probe."""
    sf = flow.sf
    sample = sim.now_us - sent_us
    sf.srtt_us = sample if sf.srtt_us == 0 else (7 * sf.srtt_us + sample) // 8
    sf.consecutive_timeouts = 0
    if nbytes:
        sf.inflight_bytes -= nbytes
        flow.log.append((sim.now_us, 1, 0))
    else:
        flow.probe_outstanding = False
    if sf.inflight_bytes > 0 or flow.probe_outstanding:
        sim._arm_rto(flow, sim.now_us)
    else:
        flow.armed_at_us = None
    if flow.clocked:
        sim._fill(flow)
    sim._idle(flow)
