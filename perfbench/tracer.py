"""In-memory tracing of one pass over a workload, installed from outside.

The tracer rebinds module attributes of ``mpflow`` for the length of a
``with`` block and restores them on exit:

* spans at the ``parse_scenario``, ``Simulation.run`` and ``emit_csv``
  boundaries (the benchmark opens the parse and emit spans around its own
  calls; ``Simulation.run`` is wrapped on the class);
* counters and busy time at the per-segment boundaries: ``simnet.select``,
  ``simnet.open_subflow``, the ``sockopt`` control calls,
  ``ConnectionState.subflow_by_id``, ``SubflowState.pair`` and the
  ``heapq`` module as ``simnet`` sees it.

Per-segment calls are far too many to keep one span each, so they are
aggregated: a ``Simulation.run`` span's self time is its length minus the
busy time of the timed calls made inside it (``select``, ``open_subflow``
and the ``sockopt`` calls). Counted-only calls stay in self time.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from types import SimpleNamespace
from typing import Dict, List

now_ns = time.perf_counter_ns

LOCAL_SOCKOPTS = (
    "set_subflow_priority",
    "set_active_interface_list",
    "set_backup_interface_list",
    "enable_primary_path_only",
)


class Tracer:
    """Counters, busy times and spans for one traced pass."""

    def __init__(self, mpflow) -> None:
        self.mp = mpflow
        self.counts: Counter = Counter()
        self.busy_ns: Counter = Counter()
        self.spans: List[Dict] = []
        self.delivered_options: list = []
        self._saved: list = []
        self._run_id = 0

    # ------------------------------------------------------------------ #
    # spans

    def span(self, name: str, run_id: int, start_ns: int, end_ns: int, **extra) -> None:
        self.spans.append(
            {"name": name, "run": run_id, "start_ns": start_ns, "end_ns": end_ns, **extra}
        )

    def begin_run(self, run_id: int) -> None:
        """Spans recorded from here on belong to scenario run ``run_id``."""
        self._run_id = run_id

    # ------------------------------------------------------------------ #
    # rebinding

    def _rebind(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def __enter__(self) -> "Tracer":
        mp = self.mp
        simnet, sockopt = mp.simnet, mp.sockopt
        counts, busy = self.counts, self.busy_ns
        reasons = {reason: f"scheduler.decisions.{reason.name.lower()}" for reason in mp.ChoiceReason}

        select = simnet.select

        def traced_select(conn, mss, window):
            t0 = now_ns()
            decision = select(conn, mss, window)
            busy["select"] += now_ns() - t0
            counts["scheduler.select_calls"] += 1
            counts[reasons[decision.reason]] += 1
            if decision.chosen is not None:
                counts["scheduler.chosen"] += 1
            return decision

        open_subflow = simnet.open_subflow

        def traced_open_subflow(conn, endpoints):
            t0 = now_ns()
            new_id = open_subflow(conn, endpoints)
            busy["open_subflow"] += now_ns() - t0
            counts["model.open_subflow_calls"] += 1
            return new_id

        apply_remote = sockopt.apply_remote_mp_prio
        delivered = self.delivered_options

        def traced_apply_remote(conn, opt, received_on=None):
            t0 = now_ns()
            result = apply_remote(conn, opt, received_on=received_on)
            busy["sockopt"] += now_ns() - t0
            counts["sockopt.remote_prio_applied"] += 1
            delivered.append(opt)
            return result

        def timed_local(fn):
            def traced(*args, **kwargs):
                t0 = now_ns()
                result = fn(*args, **kwargs)
                busy["sockopt"] += now_ns() - t0
                counts["sockopt.local_prio_calls"] += 1
                return result

            return traced

        subflow_by_id = mp.ConnectionState.subflow_by_id

        def traced_subflow_by_id(conn, subflow_id):
            counts["model.subflow_by_id_calls"] += 1
            return subflow_by_id(conn, subflow_id)

        pair = mp.SubflowState.pair

        def traced_pair(sf):
            counts["model.pair_calls"] += 1
            return pair(sf)

        heappush, heappop = heapq.heappush, heapq.heappop

        def traced_heappush(heap, item):
            counts["simnet.heap_pushes"] += 1
            heappush(heap, item)

        def traced_heappop(heap):
            counts["simnet.events"] += 1
            return heappop(heap)

        run = mp.Simulation.run
        tracer = self

        def traced_run(sim):
            timed_before = busy["select"] + busy["open_subflow"] + busy["sockopt"]
            t0 = now_ns()
            report = run(sim)
            t1 = now_ns()
            timed_inside = busy["select"] + busy["open_subflow"] + busy["sockopt"] - timed_before
            counts["model.subflows_total"] += len(sim.sender.subflows)
            tracer.span("Simulation.run", tracer._run_id, t0, t1, child_busy_ns=timed_inside)
            return report

        self._rebind(simnet, "select", traced_select)
        self._rebind(simnet, "open_subflow", traced_open_subflow)
        self._rebind(sockopt, "apply_remote_mp_prio", traced_apply_remote)
        for name in LOCAL_SOCKOPTS:
            self._rebind(sockopt, name, timed_local(getattr(sockopt, name)))
        self._rebind(mp.ConnectionState, "subflow_by_id", traced_subflow_by_id)
        self._rebind(mp.SubflowState, "pair", traced_pair)
        self._rebind(
            simnet, "heapq", SimpleNamespace(heappush=traced_heappush, heappop=traced_heappop)
        )
        self._rebind(mp.Simulation, "run", traced_run)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    # ------------------------------------------------------------------ #
    # results

    def span_ms(self, name: str) -> float:
        return sum(s["end_ns"] - s["start_ns"] for s in self.spans if s["name"] == name) / 1e6

    def run_self_ms(self) -> float:
        return sum(
            s["end_ns"] - s["start_ns"] - s["child_busy_ns"]
            for s in self.spans
            if s["name"] == "Simulation.run"
        ) / 1e6

    def exact_counts(self) -> Dict[str, int]:
        """Every count the pass made; these must repeat exactly."""
        keys = [
            "scheduler.select_calls",
            "scheduler.chosen",
            *(f"scheduler.decisions.{r.name.lower()}" for r in self.mp.ChoiceReason),
            "model.subflow_by_id_calls",
            "model.pair_calls",
            "model.subflows_total",
            "model.open_subflow_calls",
            "simnet.events",
            "simnet.heap_pushes",
            "sockopt.local_prio_calls",
            "sockopt.remote_prio_applied",
            "scenario.csv_rows",
        ]
        return {key: self.counts[key] for key in keys}
