"""Layer microbenchmarks on fixed connections built with the public API.

* ``scheduler.select_ns.<mesh>_<scheduler>[_dead]``: ns per ``select`` call
  on a 1x3 (mesh3) or 4x4 (mesh16) connection, under the default or the
  primary-path-only scheduler, with every sub-flow alive or after
  ``DEAD_SUBFLOWS`` close-and-reopen cycles have left that many dead
  sub-flows in the connection.
* ``wire.roundtrip_ns.len3`` / ``.len4``: ns per ``encode_mp_prio`` plus
  ``decode_mp_prio`` of the 3-byte and 4-byte MP_PRIO forms.

Each figure is the median over ``BATCHES`` timed batches.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List

MSS = 1460
WINDOW = 32 * 1460
DEAD_SUBFLOWS = 48
BATCHES = 5
BATCH_S = 0.02


def _per_call_ns(call: Callable[[], object]) -> float:
    """Median ns per call over timed batches sized to about BATCH_S each."""
    n = 1
    while True:
        t0 = time.perf_counter_ns()
        for _ in range(n):
            call()
        if time.perf_counter_ns() - t0 >= BATCH_S * 1e9 / 4:
            break
        n *= 2
    samples = []
    for _ in range(BATCHES):
        t0 = time.perf_counter_ns()
        for _ in range(n):
            call()
        samples.append((time.perf_counter_ns() - t0) / n)
    return statistics.median(samples)


def _mesh(mp, n_local: int, n_remote: int, ppos: bool, dead: int):
    locals_ = [mp.EndpointAddress.from_string(f"10.1.{i}.1") for i in range(n_local)]
    remotes = [mp.EndpointAddress.from_string(f"10.2.{j}.1") for j in range(n_remote)]
    conn = mp.new_connection(locals_, remotes)
    pairs = conn.mesh_pairs()
    for k in range(dead):
        victim = conn.alive_subflow_on(pairs[k % len(pairs)])
        mp.close_subflow(conn, victim.id)
        mp.open_subflow(conn, (victim.src, victim.dst))
    if ppos:
        mp.enable_primary_path_only(conn, [conn.mesh_pairs()[0]])
        conn.outbox.clear()
    for rank, sf in enumerate(conn.subflows):
        sf.srtt_us = 20_000 + 1_000 * rank
    return conn


def select_ns(mp) -> Dict[str, float]:
    out = {}
    for mesh, (n_local, n_remote) in (("mesh3", (1, 3)), ("mesh16", (4, 4))):
        for sched in ("default", "ppos"):
            for dead in (0, DEAD_SUBFLOWS):
                conn = _mesh(mp, n_local, n_remote, sched == "ppos", dead)
                name = f"scheduler.select_ns.{mesh}_{sched}" + ("_dead" if dead else "")
                out[name] = _per_call_ns(lambda: mp.select(conn, MSS, WINDOW))
    return out


def wire_roundtrip_ns(mp, options: List) -> float:
    """ns per encode+decode over ``options``; raises if one does not survive."""
    for opt in options:
        if mp.decode_mp_prio(mp.encode_mp_prio(opt)) != opt:
            raise AssertionError(f"MP_PRIO round trip changed {opt}")
    encode, decode = mp.encode_mp_prio, mp.decode_mp_prio

    def batch():
        for opt in options:
            decode(encode(opt))

    return _per_call_ns(batch) / len(options)


def wire_forms_ns(mp) -> Dict[str, float]:
    return {
        "wire.roundtrip_ns.len3": wire_roundtrip_ns(mp, [mp.MpPrioOption(backup_flag=True)]),
        "wire.roundtrip_ns.len4": wire_roundtrip_ns(
            mp, [mp.MpPrioOption(backup_flag=False, addr_id=7)]
        ),
    }
