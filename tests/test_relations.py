"""Relations between two runs of one scenario, or two widths of one run's
report, on generated scenarios, the ``edge_*`` scenarios of
``scenario_gen`` and the built-ins.

* One run at any width. A run at buckets of ``w`` ms gives the report that
  a run at 1 s buckets gives at ``w`` ms (``TimelineReport.at``): the run
  reads no bucket width.
* Bucket refinement. One run's report at buckets of ``C`` ms and at buckets
  of ``F = C / 10`` ms tell the same story. A sub-flow has a coarse row in
  each coarse bucket that holds one of its fine rows, and in no other. The
  coarse row's bytes are the sum of those fine rows', and its ``low_prio``
  is the last one's. It is ``alive`` only if the sub-flow has a fine row in
  the bucket's last fine slot, the one that ends at the coarse bucket's end
  or at the run's end, and that row is alive. So a sub-flow that dies
  exactly on a fine edge inside a coarse bucket has every fine row alive,
  but a dead coarse row.
* Run prefix. A run for ``d + 3000`` ms has the same rows as one for ``d``
  ms in every whole 1,000 ms bucket before ``d``: nothing that happens
  before ``d`` depends on when the run ends.
"""

import random
from collections import defaultdict
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mpflow.scenario import BUILTIN_DOCS, PPOS_ENV_VAR, parse_scenario, run_scenario
from scenario_gen import edge_scenarios, random_scenario

REFINEMENTS = ((1000, 100), (100, 10))  # (coarse, fine) bucket widths in ms
CANNED = {**BUILTIN_DOCS, **dict(edge_scenarios())}


@pytest.mark.parametrize("bucket_ms", [1000, 100, 10, 7])
@pytest.mark.parametrize("name", sorted(CANNED))
def test_a_run_at_a_bucket_width_is_one_run_at_that_width(name, bucket_ms):
    scenario = parse_scenario(CANNED[name])
    with mock.patch.dict("os.environ", {PPOS_ENV_VAR: ""}):
        report = run_scenario(scenario, bucket_ms=bucket_ms)
        assert report == run_scenario(scenario).at(bucket_ms)
    assert report.bucket_ms == bucket_ms


def check_refinement(doc, coarse_ms, fine_ms):
    scenario = parse_scenario(doc)
    with mock.patch.dict("os.environ", {PPOS_ENV_VAR: ""}):
        report = run_scenario(scenario)
    coarse, fine = report.at(coarse_ms).rows, report.at(fine_ms).rows
    inside = defaultdict(list)  # (coarse bucket start, id): its fine rows in time order
    for row in fine:
        inside[row.bucket_start_ms // coarse_ms * coarse_ms, row.subflow_id].append(row)
    assert [(row.bucket_start_ms, row.subflow_id) for row in coarse] == sorted(inside)
    for row in coarse:
        rows = inside[row.bucket_start_ms, row.subflow_id]
        end_ms = min(row.bucket_start_ms + coarse_ms, scenario.duration_ms)
        last_slot = (end_ms - 1) // fine_ms * fine_ms
        assert row.bytes_acked == sum(r.bytes_acked for r in rows), row
        assert row.low_prio == rows[-1].low_prio, row
        assert row.alive == (rows[-1].bucket_start_ms == last_slot and rows[-1].alive), row


def check_prefix(doc):
    scenario = parse_scenario(doc)
    duration_ms = scenario.duration_ms
    with mock.patch.dict("os.environ", {PPOS_ENV_VAR: ""}):
        short = run_scenario(scenario).rows
        longer = run_scenario(scenario, duration_ms=duration_ms + 3000).rows
    whole = duration_ms // 1000 * 1000  # the whole buckets before the end start before this
    kept = [row for row in short if row.bucket_start_ms < whole]
    assert kept == [row for row in longer if row.bucket_start_ms < whole]


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), widths=st.sampled_from(REFINEMENTS))
def test_generated_scenarios_refine_from_coarse_to_fine_buckets(seed, widths):
    check_refinement(random_scenario(random.Random(seed)), *widths)


@pytest.mark.parametrize("widths", REFINEMENTS, ids=lambda w: f"{w[0]}-{w[1]}")
@pytest.mark.parametrize("name", sorted(CANNED))
def test_canned_scenarios_refine_from_coarse_to_fine_buckets(name, widths):
    check_refinement(CANNED[name], *widths)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_a_longer_generated_run_keeps_the_rows_before_the_shorter_one_ends(seed):
    check_prefix(random_scenario(random.Random(seed)))


@pytest.mark.parametrize("name", sorted(CANNED))
def test_a_longer_canned_run_keeps_the_rows_before_the_shorter_one_ends(name):
    check_prefix(CANNED[name])
