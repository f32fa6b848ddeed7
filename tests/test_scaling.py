"""Cost laws: how the work of a run grows with the size of its mesh.

Wall-clock times on a shared host move by more than a small gain, but the
lines that a run executes are exact: two runs agree. So these tests count
executed lines with ``sys.settrace`` and assert ratios between meshes of
different sizes, which drift across interpreters by far less than the laws
they check.

The churn mesh is ``n`` local by ``n`` remote addresses, a 10 Mbps link for
each of their ``n * n`` pairs with a one-way delay of 2-17 ms, and one-link
outages of 3 s, each of which kills the link's sub-flow, which is re-opened
once the link is back.
"""

import sys

from mpflow.model import new_connection
from mpflow.simnet import LinkSpec, Simulation
from helpers import addr

DURATION_MS = 20_000
OUTAGE_MS = 3_000


def churn_mesh(n, outages):
    """The churn mesh of ``n * n`` links with ``outages`` outages, spread
    evenly over the run and over the links, so that no two on one link
    overlap."""
    sender = new_connection(
        [addr(f"10.0.0.{i}") for i in range(1, n + 1)],
        [addr(f"10.1.{j}.1") for j in range(1, n + 1)],
    )
    links = [
        LinkSpec(k + 1, pair, 10_000_000, 2 + k % 16) for k, pair in enumerate(sender.mesh_pairs())
    ]
    sim = Simulation(sender, links, DURATION_MS)
    for k in range(outages):
        start_ms = 1_000 + k * (DURATION_MS - OUTAGE_MS - 2_000) // outages
        link_id = k % len(links) + 1
        sim.schedule_action(start_ms, lambda s, i=link_id: s.set_link_state(i, up=False))
        sim.schedule_action(start_ms + OUTAGE_MS, lambda s, i=link_id: s.set_link_state(i, up=True))
    return sim


def lines_in(code, run):
    """The lines that ``run()`` executes in the function whose code is ``code``."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return count


def deliver_lines_per_outage(n):
    """The lines executed in ``Simulation._deliver`` per outage of the
    ``n * n`` churn mesh: the difference between runs with 80 and with 40
    outages, over 40, so that the count of the run's start and end drops
    out."""
    code = Simulation._deliver.__code__
    few, many = (lines_in(code, churn_mesh(n, outages).run) for outages in (40, 80))
    return (many - few) / 40


def test_options_are_delivered_from_the_links_that_hold_them():
    """The run delivers MP_PRIO options before each action, and before a
    timer records a death, from the links that hold queued ones, so the
    lines of ``_deliver`` per outage, two link actions and a death, stay
    flat from 64 to 1,024 links. A scan of every link before each action
    made them grow with the links, about 16 times over."""
    small, large = deliver_lines_per_outage(8), deliver_lines_per_outage(32)
    assert small > 0
    assert large / small <= 1.5, (small, large)
