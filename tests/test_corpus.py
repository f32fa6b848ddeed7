"""Differential corpus: generated scenarios must keep their pinned CSVs.

The corpus (``scenario_gen.corpus``) reaches what the built-ins do not:
random meshes, slow and fast links, dead and future ``set_sub_prio`` ids,
empty interface lists and sub-flows that die and are re-created many times.
Every digest was taken before the simulator's timers were merged into one
per sub-flow, so a timeline change anywhere shows up here.
"""

import json
from pathlib import Path

import pytest

from scenario_gen import CORPUS_BUCKETS_MS, corpus, csv_digest
from mpflow.scenario import PPOS_ENV_VAR

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
