"""Differential corpus: generated scenarios must keep their pinned CSVs.

The corpus (``scenario_gen.corpus``) reaches what the built-ins do not:
random meshes, slow and fast links, dead and future ``set_sub_prio`` ids,
empty interface lists and sub-flows that die and are re-created many times.
Every digest was taken before the simulator's timers were merged into one
per sub-flow, so a timeline change anywhere shows up here.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scenario_gen import CORPUS_BUCKETS_MS, compare_digests, corpus, csv_digest, write_comparison
from mpflow.scenario import PPOS_ENV_VAR, parse_scenario, run_scenario
from mpflow.simnet import Simulation

PINNED = json.loads((Path(__file__).resolve().parent / "golden_corpus.json").read_text())
DOCS = dict(corpus())


def test_corpus_and_pins_cover_the_same_scenarios():
    assert sorted(PINNED) == sorted(DOCS)
    assert all(sorted(widths) == sorted(map(str, CORPUS_BUCKETS_MS)) for widths in PINNED.values())


@pytest.mark.parametrize("name", sorted(DOCS))
def test_corpus_csv_matches_pinned_digest(name, monkeypatch):
    monkeypatch.delenv(PPOS_ENV_VAR, raising=False)
    digests = {str(width): csv_digest(DOCS[name], width) for width in CORPUS_BUCKETS_MS}
    assert digests == PINNED[name]


# Sub-flow 1 dies unacked with a window queued on its 10 kbps link, its
# successor opens beside it, and the link goes down while the dead
# sub-flow's acks are still on the way.
DEAD_ACKS_DOC = (
    "scenario dead_acks\nduration 20s\n"
    "link 1 10kbps 150ms 10.0.0.1 10.0.1.1\nlink 2 1mbps 10ms 10.0.0.1 10.0.2.1\n"
    "at 5s link_down 1\n"
)


def test_every_ack_handled_one_by_one_finds_its_link_up(monkeypatch):
    # A segment sent on a down link queues no ack, a death drops its
    # sub-flow's queued acks and a link change those of the sub-flow on it,
    # so no ack reaches _on_acks on a link that is down. A link changes only
    # in an action, so the link a call finds holds for each of its acks.
    handled, on_down_link = [], []
    on_acks = Simulation._on_acks

    def check(sim, flow, horizon):
        (handled if flow.link.up else on_down_link).append((flow.sf.id, sim.now_us))
        on_acks(sim, flow, horizon)

    monkeypatch.setattr(Simulation, "_on_acks", check)
    monkeypatch.delenv(PPOS_ENV_VAR, raising=False)
    for doc in [*DOCS.values(), DEAD_ACKS_DOC]:
        run_scenario(parse_scenario(doc), bucket_ms=1000)
    assert len(handled) > 1000
    assert on_down_link == []


def test_compare_sorts_digests_into_moved_removed_and_added(tmp_path):
    """``scenario_gen.py --compare``, which the CI timelines job gates on,
    counts a digest that changed or went as a timeline change, and lists a
    new one without counting it."""
    base = {"a": {"100": "1", "100/state": "2"}, "b": {"100": "3"}}
    head = {"a": {"100": "1", "100/state": "9"}, "c": {"100": "4"}}
    kinds = compare_digests(base, head)
    assert kinds == {
        "moved": [("a", "100/state")], "removed": [("b", "100")], "added": [("c", "100")]
    }
    out = io.StringIO()
    write_comparison(kinds, out, shown=0)
    assert out.getvalue().count("- and 1 more\n") == 3
    paths = []
    for name, digests in (("base", base), ("head", head)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(digests))
    script = Path(__file__).resolve().parent / "scenario_gen.py"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, str(script), "--compare", *map(str, paths)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout == "2\n"
    assert "Timeline digests moved: 1\n\n- `a` at 100/state ms\n" in done.stderr
