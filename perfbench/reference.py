"""A speedometer for a shared host: a fixed workload co-running on our core.

On a shared host the speed of one core changes by a third or more from one
second to the next, and from one minute to the next, as neighbours come and
go. A scenario run alone cannot tell a slower program from a slower host.

So while the benchmark measures, a second process runs a fixed reference
workload in a loop, pinned to the same core as the benchmark. The kernel
interleaves the two every few milliseconds, so whatever slows the core slows
both alike. The benchmark reads how much CPU time the reference needed per
iteration over the interval of a scenario run, and rescales the run's own
CPU time to the speed at which one iteration takes ``NOMINAL_S``:

    rescaled = run_cpu_seconds * NOMINAL_S / reference_cpu_seconds_per_iteration

The reference is a small segment-level simulation of its own: dataclass
sub-flows on a 4x4 mesh, a third of them dead, a heap of in-flight segments,
a scan for the lowest-RTT sub-flow on every send and a frozen pair object
built per lookup. It does the same kinds of work as the simulator under
test, so contention slows both by about the same factor. It shares no code
with ``mpflow``, so a change to ``mpflow`` leaves it alone.

``NOMINAL_S`` is a fixed constant, about one iteration's time on an unloaded
core of the machine that took the baseline (see baseline.json). This file is
part of the benchmark's definition; changing it changes every rescaled
figure.
"""

from __future__ import annotations

import heapq
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Tuple

NOMINAL_S = 0.0045
EVENTS = 500
EXPECTED = 730_000  # bytes acked by one iteration; anything else means other work
MSS = 1460
WINDOW = 32 * MSS


@dataclass(frozen=True)
class _Pair:
    src: bytes
    dst: bytes


@dataclass
class _Flow:
    id: int
    src: bytes
    dst: bytes
    alive: bool = True
    low_prio: bool = False
    srtt_us: int = 0
    inflight: int = 0

    def pair(self) -> _Pair:
        return _Pair(self.src, self.dst)


@dataclass
class _Link:
    delay_us: int
    tx_free_us: int = 0


def iteration() -> int:
    """One reference iteration; returns the bytes it acknowledged."""
    links = {}
    flows = []
    for i in range(16):
        src, dst = bytes((10, 1, i // 4, 1)), bytes((10, 2, i % 4, 1))
        links[_Pair(src, dst)] = _Link(2000 + 1000 * i)
        for k in range(3):
            flows.append(_Flow(len(flows) + 1, src, dst, alive=k == 2, srtt_us=30_000 + i))
    by_id = {f.id: f for f in flows}
    heap = []
    seq = 0
    acked = {}

    def pump(now: int) -> None:
        nonlocal seq
        while True:
            ready = [f for f in flows if f.alive and not f.low_prio and f.inflight + MSS <= WINDOW]
            if not ready:
                return
            flow = min(ready, key=lambda f: (f.srtt_us, f.id))
            link = links[flow.pair()]
            done = max(now, link.tx_free_us) + 1168
            link.tx_free_us = done
            flow.inflight += MSS
            heapq.heappush(heap, (done + 2 * link.delay_us, seq, flow.id, now))
            seq += 1

    pump(0)
    for _ in range(EVENTS):
        now, _, flow_id, sent = heapq.heappop(heap)
        flow = by_id[flow_id]
        flow.srtt_us = (7 * flow.srtt_us + now - sent) // 8
        flow.inflight -= MSS
        key = (now // 1_000_000, flow_id)
        acked[key] = acked.get(key, 0) + MSS
        pump(now)
    return sum(acked.values())


def _corun(cpu: int) -> None:
    """Run iterations until stdin closes; answer each request line on stdin
    with the iterations finished and the CPU seconds they took."""
    os.sched_setaffinity(0, {cpu})
    iterations, cpu_s = 0, 0.0
    while True:
        t0 = time.process_time()
        result = iteration()
        cpu_s += time.process_time() - t0
        iterations += 1
        if result != EXPECTED:
            raise SystemExit(f"reference iteration returned {result}, not {EXPECTED}")
        if select.select([sys.stdin], [], [], 0)[0]:
            if not sys.stdin.readline():
                return
            print(iterations, repr(cpu_s), flush=True)


class Speedometer:
    """Pins this process to one core and co-runs the reference there.

    Use as a context manager; the co-running process is stopped and waited
    for on exit.
    """

    def __enter__(self) -> "Speedometer":
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(cpu)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc_info) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def read(self) -> Tuple[int, float]:
        """(iterations finished, CPU seconds they took) so far."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("reference process ended")
        iterations, cpu_s = line.split()
        return int(iterations), float(cpu_s)

    def rescale(self, cpu_s: float, before: Tuple[int, float]) -> float:
        """Rescale ``cpu_s``, spent since ``before`` was read, to nominal speed."""
        after = self.read()
        while after[0] - before[0] < 2:
            after = self.read()
        per_iteration = (after[1] - before[1]) / (after[0] - before[0])
        return cpu_s * NOMINAL_S / per_iteration


if __name__ == "__main__":
    _corun(int(sys.argv[1]))
