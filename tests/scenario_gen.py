"""Seeded generator of random scenario documents, and the pinned corpus.

``random_scenario(rng)`` writes the text of one scenario: a 1-3 x 1-3 mesh
of links of 100 kbps-10 Mbps (log-uniform) and 0-150 ms one-way delay, and
0-25 actions drawn over all six verbs, at random times inside the duration.
Link outages last long enough, often enough, that many runs kill sub-flows
and re-create them. ``set_sub_prio`` names ids up to a few past the initial
mesh, so both future and dead ids occur.

``tests/golden_corpus.json`` pins the SHA-256 of the CSV of each corpus
scenario at each bucket width in ``CORPUS_BUCKETS_MS``. A change meant to
alter timelines re-pins it on purpose with::

    PYTHONPATH=src python tests/scenario_gen.py > tests/golden_corpus.json

``--diff N`` prints, in the same form, the digests of the corpus, of the
``N`` scenarios drawn from ``random.Random(f"diff/{k}")`` for ``k < N``,
which no test pins, and of the benchmark's scenarios at their workload's
bucket width: the built-ins, and seeds 0-3 of ``mesh16_flaps`` and
``prio_churn_fine`` from ``perfbench/workloads.py``; ``mesh16_flaps`` also
at ``MESH_FINE_BUCKET_MS``, where its sub-flows die and are re-opened both
on and off bucket edges. It also digests the
``edge_*`` scenarios of ``edge_scenarios()``, on links that the generator
never draws, at a same-µs tie between a probe and a death, or with events
between a window's send and its first ack. Each scenario runs once, and
its report gives the CSV at each width (``TimelineReport.at``). Beside each
CSV digest, under the key ``<bucket>/state``, it prints a digest of the
run's end state (``state_digest``), which moves when a change shifts ack
timing by less than a bucket edge, and under ``<bucket>/timer`` one of its
timers and queued acks (``timer_digest``), which moves when a change
arms a timer or queues an ack elsewhere; the run reads no width, so both
are the same at every width. Running it in two checkouts and
comparing the outputs with ``cmp`` shows whether a change keeps all those
timelines and end states byte-identical.

``--compare BASE.json HEAD.json`` sorts the (scenario, bucket) keys of two
such outputs into moved (a different digest), removed (only in the base)
and added (only in the head), writes the count and the first 20 keys of
each kind to stderr as Markdown, and prints the count of moved and removed
keys, which is a timeline change unless the corpus is re-pinned with it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import importlib.util
import json
import logging
import random
import sys
from pathlib import Path
from unittest import mock

from mpflow import scenario as scenario_module
from mpflow.scenario import BUILTIN_DOCS, emit_csv, parse_scenario, run_scenario
from mpflow.simnet import Simulation
from helpers import expand

# Spelled out, not imported, so that a new verb does not move the corpus.
ACTION_VERBS = (
    "set_sub_prio",
    "set_active_list",
    "set_backup_list",
    "enable_ppos",
    "link_down",
    "link_up",
)

CORPUS_SIZE = 60
CORPUS_BUCKETS_MS = (1000, 100)
WORKLOAD_SEEDS = range(4)
MESH_FINE_BUCKET_MS = 100
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def random_scenario(rng: random.Random, name: str = "random") -> str:
    """The text of one random scenario drawn from ``rng``."""
    n_local, n_remote = rng.randint(1, 3), rng.randint(1, 3)
    n_links = n_local * n_remote
    duration_ms = rng.randrange(2_000, 12_001, 500)
    lines = [f"scenario {name}", f"duration {duration_ms}ms", ""]
    for i in range(n_local):
        for j in range(n_remote):
            kbps = round(100 * 100 ** rng.random())
            delay_ms = rng.randint(0, 150)
            link_id = i * n_remote + j + 1
            lines.append(f"link {link_id} {kbps}kbps {delay_ms}ms 10.1.{i}.1 10.2.{j}.1")
    lines.append("")
    for _ in range(rng.randint(0, 25)):
        at_ms = rng.randrange(0, duration_ms, 10)
        verb = rng.choice(ACTION_VERBS)
        if verb == "set_sub_prio":
            ids = rng.sample(range(1, n_links + 4), rng.randint(1, min(3, n_links + 3)))
            flag = rng.choice(("backup", "active"))
            lines.append(f"at {at_ms}ms {verb} {' '.join(map(str, sorted(ids)))} {flag}")
            continue
        low = 1 if verb in ("link_down", "link_up") else 0
        ids = rng.sample(range(1, n_links + 1), rng.randint(low, n_links))
        lines.append(f"at {at_ms}ms {verb} {' '.join(map(str, ids))}".rstrip())
    return "\n".join(lines) + "\n"


def corpus():
    """The pinned corpus: (name, scenario text) pairs."""
    return [
        (f"corpus_{k:02d}", random_scenario(random.Random(f"corpus/{k}"), f"corpus_{k:02d}"))
        for k in range(CORPUS_SIZE)
    ]


class _KeptSimulation(Simulation):
    """A Simulation that keeps its last instance, for the run's end state,
    and counts the changes of each link, by link id."""

    last = None

    def set_link_state(self, link_id, up):
        super().set_link_state(link_id, up)
        self.link_changes[link_id] = self.link_changes.get(link_id, 0) + 1

    def run(self):
        _KeptSimulation.last = self
        self.link_changes = {}
        return super().run()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def state_digest(sim: _KeptSimulation) -> str:
    """SHA-256 of the end state of the finished run ``sim``: per sub-flow,
    its srtt, bytes sent and in flight, consecutive timeouts, death time and
    the flag at both ends; per link, when it is free, whether it is up and
    how many times it changed. The run ends every train first, so this is
    the state that a run handling every ack one by one would leave."""
    flows, links = [], {}
    for flow in sim._flows.values():
        sf, link = flow.sf, flow.link
        flows.append(
            (sf.id, sf.srtt_us, sf.bytes_sent_total, sf.inflight_bytes, sf.consecutive_timeouts,
             sf.died_us, sf.low_prio, flow.peer.low_prio)
        )
        link_id = link.spec.link_id
        links[link_id] = (link.tx_free_us, link.up, sim.link_changes.get(link_id, 0))
    return _sha256(repr((flows, sorted(links.items()))))


def timer_digest(sim: Simulation) -> str:
    """SHA-256 of the timers of the finished run ``sim``: per sub-flow, when
    its retransmission timer was armed, its deadline, whether a probe is
    outstanding, the deadline of its pending heap entry and its queued
    acks, one by one."""
    flows = []
    for flow in sim._flows.values():
        pending = flow.timer_pending[0] if flow.timer_pending is not None else None
        flows.append(
            (flow.sf.id, flow.armed_at_us, flow.timer, flow.probe_outstanding, pending,
             expand(flow.acks))
        )
    return _sha256(repr(flows))


def run_digests(doc: str):
    """(report, end-state digest, timer digest) of one run of ``doc``. The
    run reads no bucket width, so its report gives the CSV at any width
    (``TimelineReport.at``)."""
    with mock.patch.object(scenario_module, "Simulation", _KeptSimulation):
        report = run_scenario(parse_scenario(doc))
    sim = _KeptSimulation.last
    return report, state_digest(sim), timer_digest(sim)


def report_digest(report) -> str:
    """SHA-256 of the CSV of ``report``."""
    buf = io.StringIO()
    emit_csv(report, buf)
    return _sha256(buf.getvalue())


def csv_digest(doc: str, bucket_ms: int) -> str:
    """SHA-256 of the CSV that ``doc`` gives at ``bucket_ms``."""
    return report_digest(run_scenario(parse_scenario(doc), bucket_ms=bucket_ms))


def digests(scenarios, buckets_ms=CORPUS_BUCKETS_MS, state=False):
    """{name: {bucket width: digest}} over (name, scenario text) pairs, from
    one run of each scenario; with ``state``, also {"<bucket width>/state":
    end-state digest} and {"<bucket width>/timer": timer digest}, the same
    at every width."""
    out = {}
    for name, doc in scenarios:
        out[name] = cells = {}
        report, end_state, timers = run_digests(doc)
        for bucket_ms in buckets_ms:
            cells[str(bucket_ms)] = report_digest(report.at(bucket_ms))
            if state:
                cells[f"{bucket_ms}/state"] = end_state
                cells[f"{bucket_ms}/timer"] = timers
    return out


def perfbench_module(name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded as a module of
    its own, ``perfbench_<name>``, that no other module imports."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perfbench_workloads():
    """The benchmark's workload generators, ``perfbench/workloads.py``."""
    return perfbench_module("workloads")


def workload_digests():
    """CSV, end-state and timer digests of the benchmark's scenarios at their
    workload's bucket width, and ``mesh16_flaps`` also at
    ``MESH_FINE_BUCKET_MS``, named ``workload/seed/scenario``."""
    workloads = perfbench_workloads()
    runs = [("paper_figs", 0, workloads.paper_figs(0, BUILTIN_DOCS))]
    for name in ("mesh16_flaps", "prio_churn_fine"):
        runs += [(name, seed, getattr(workloads, name)(seed)) for seed in WORKLOAD_SEEDS]
    out = {}
    for name, seed, workload in runs:
        docs = [(f"{name}/{seed}/{doc_name}", doc) for doc_name, doc in workload.docs]
        buckets_ms = (workload.bucket_ms,)
        if name == "mesh16_flaps":
            buckets_ms += (MESH_FINE_BUCKET_MS,)
        out.update(digests(docs, buckets_ms, state=True))
    return out


# Links at the edges of the simulator's closed forms, with the MSS's
# serialization time s: s == 0 with a delay, s equal to the 100 ms bucket,
# and 31 * s == 2 * delay, where a window sent from idle keeps the link busy
# up to its first ack exactly.
EDGE_LINKS = {
    "s_zero": "20000mbps 1ms",
    "s_bucket": "116800bps 10ms",
    "saturation": "1168kbps 155ms",
}


# A slow link, whose MSS serializes in 100 ms, and a fast one. The fast
# link's sub-flow is the primary until its link goes down at 20,801 ms; it
# dies at 21,600 ms, the µs of a keepalive probe of the slow link's
# sub-flow, whose pump then clocks that sub-flow. The timers run by id, so
# the probe has been sent when the slow link is link 1 (``lo``) and not
# yet when it is link 2 (``hi``).
def tie_scenario(name: str) -> str:
    """The text of the ``edge_tie_lo`` or ``edge_tie_hi`` scenario."""
    slow_id = 1 if name == "lo" else 2
    fast_id = 3 - slow_id
    links = {slow_id: "116800bps 50ms", fast_id: "11680kbps 5ms"}
    return (
        f"scenario edge_tie_{name}\nduration 30s\n"
        f"link 1 {links[1]} 10.0.0.1 10.0.1.1\nlink 2 {links[2]} 10.0.0.1 10.0.2.1\n"
        f"at 1000ms enable_ppos {fast_id}\nat 20801ms link_down {fast_id}\n"
    )


# At 10 kbps an MSS serializes for 1.168 s, and the first window holds the
# link busy to 37.4 s, long after its sub-flow dies unacked at 800 ms. The
# successor idles outside the primary-path tier, and its first probe waits
# behind the dead window and times out.
BUSY_SCENARIO = (
    "scenario edge_busy\nduration 6s\nlink 1 1mbps 5ms 10.0.0.1 10.0.1.1\n"
    "link 2 10kbps 5ms 10.0.0.1 10.0.2.1\nat 1000ms enable_ppos 1\n"
)


# An action at 0 ms runs before the bootstrap, so its pump is the run's
# first: sub-flow 1 starts as a backup, beside the active sub-flow 2, which
# alone fills its window. The flip of sub-flow 2 moves the deciding tier to
# the backups, the death of sub-flow 1 on its down link keeps it there, and
# its successor is born active and moves it back.
AT_ZERO_SCENARIO = (
    "scenario edge_at_zero\nduration 6s\nlink 1 10mbps 5ms 10.0.0.1 10.0.1.1\n"
    "link 2 2mbps 10ms 10.0.0.1 10.0.2.1\nat 0ms set_sub_prio 1 backup\n"
    "at 1500ms set_sub_prio 2 backup\nat 2000ms link_down 1\nat 4000ms link_up 1\n"
)


# Events between a window's send in one burst and its first ack. Link 1's
# first ack comes 311.68 ms after a send, after the 200 ms timeout of a
# sub-flow without an RTT sample, so no train starts at its sends. Link 2's
# comes 51.68 ms after, before it, so its sub-flows start trains at their
# sends; the flip at 20 ms takes sub-flow 2 out of the deciding tier before
# its first ack. Link 1 goes down at 250 ms, after its first timeout and
# before its first ack, and sub-flow 1 dies at 800 ms, where sub-flow 2
# sends a window again; link 2 goes down 30 ms later, before that window's
# first ack. Link 2's next sub-flow opens at 4,466.384 ms, and the run ends
# before its first window's first ack.
BURST_SCENARIO = (
    "scenario edge_burst\nduration 4500ms\nlink 1 1mbps 150ms 10.1.0.1 10.2.0.1\n"
    "link 2 1mbps 20ms 10.1.0.1 10.2.1.1\nat 20ms set_sub_prio 2 backup\n"
    "at 250ms link_down 1\nat 830ms link_down 2\nat 1500ms link_up 1\nat 2000ms link_up 2\n"
)


def edge_scenarios():
    """Scenarios with one ``EDGE_LINKS`` link beside a plain one, flipped
    and flapped, the two ``tie_scenario`` ones, ``BUSY_SCENARIO``,
    ``AT_ZERO_SCENARIO`` and ``BURST_SCENARIO``: (name, scenario text)
    pairs."""
    return [
        (
            f"edge_{name}",
            f"scenario edge_{name}\nduration 6s\n"
            f"link 1 {link} 10.1.0.1 10.2.0.1\nlink 2 1mbps 20ms 10.1.0.1 10.2.1.1\n"
            "at 1500ms set_sub_prio 1 backup\nat 2500ms set_sub_prio 1 active\n"
            "at 3000ms link_down 1\nat 4200ms link_up 1\n",
        )
        for name, link in EDGE_LINKS.items()
    ] + [(f"edge_tie_{name}", tie_scenario(name)) for name in ("lo", "hi")] + [
        ("edge_busy", BUSY_SCENARIO), ("edge_at_zero", AT_ZERO_SCENARIO),
        ("edge_burst", BURST_SCENARIO),
    ]


def diff_scenarios(n: int):
    """The first ``n`` differential scenarios: (name, scenario text) pairs."""
    return [(f"diff_{k:03d}", random_scenario(random.Random(f"diff/{k}"))) for k in range(n)]


def compare_digests(base, head):
    """{"moved": keys, "removed": keys, "added": keys} between two ``--diff``
    outputs, each kind a sorted list of (scenario, bucket) keys."""
    base, head = (
        {(name, bucket): digest for name, cells in out.items() for bucket, digest in cells.items()}
        for out in (base, head)
    )
    return {
        "moved": sorted(key for key in base.keys() & head.keys() if base[key] != head[key]),
        "removed": sorted(base.keys() - head.keys()),
        "added": sorted(head.keys() - base.keys()),
    }


def write_comparison(kinds, out, shown=20):
    """Write each kind's count and first ``shown`` keys to ``out`` as Markdown."""
    for kind, keys in kinds.items():
        out.write(f"\nTimeline digests {kind}: {len(keys)}\n\n")
        out.writelines(f"- `{name}` at {bucket} ms\n" for name, bucket in keys[:shown])
        if len(keys) > shown:
            out.write(f"- and {len(keys) - shown} more\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print CSV digests of generated scenarios.")
    parser.add_argument(
        "--diff",
        type=int,
        metavar="N",
        help="digest the CSVs, end states and timers of the corpus, the first N differential"
        " scenarios, the edge scenarios and the benchmark's scenarios, instead of the"
        " corpus's CSVs alone",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("BASE.json", "HEAD.json"),
        help="compare two --diff outputs: list the moved, removed and added digests on"
        " stderr and print the count of moved and removed ones",
    )
    args = parser.parse_args()
    if args.compare:
        base, head = (json.loads(Path(path).read_text()) for path in args.compare)
        kinds = compare_digests(base, head)
        write_comparison(kinds, sys.stderr)
        print(len(kinds["moved"]) + len(kinds["removed"]))
        sys.exit()
    # Skipped actions are part of the scenarios; only the digests are output.
    logging.getLogger("mpflow").setLevel(logging.ERROR)
    if args.diff is None:
        out = digests(corpus())
    else:
        scenarios = corpus() + diff_scenarios(args.diff) + edge_scenarios()
        out = {**digests(scenarios, state=True), **workload_digests()}
    print(json.dumps(out, indent=1, sort_keys=True))
