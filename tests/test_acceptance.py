"""Acceptance suite: end-to-end checks of the canned experiments and the
library-level contracts, each printed as one PASS/FAIL line.

Phase assertions on the canned link-failure timelines are made per
interface pair (path identity): a path may be served by a re-created
sub-flow after a failure, and the genealogy assertions pin down exactly
when that happens. Buckets within two seconds of a scripted event are
excluded, covering timeout-driven failover transitions.
"""

import io
import itertools
import random
import time
from contextlib import contextmanager

import pytest

from mpflow.model import new_connection
from mpflow.model import PriorityLists, classify_subflow_priority
from mpflow.scenario import builtin_scenario, emit_csv, parse_scenario, run_scenario
from mpflow.scheduler import select, tier
from mpflow.wire import (
    MpPrioOption,
    OptionError,
    decode_mp_prio,
    encode_mp_prio,
)
from helpers import addr, pair

P1 = pair("10.0.0.1", "10.0.1.1")
P2 = pair("10.0.0.1", "10.0.2.1")
P3 = pair("10.0.0.1", "10.0.3.1")

MSS = 1460
WINDOW = 32 * MSS

STEADY_DOC = """\
scenario steady
duration 12s
link 1 1mbps 100ms 10.0.0.1 10.0.1.1
link 2 1mbps 100ms 10.0.0.1 10.0.2.1
link 3 1mbps 100ms 10.0.0.1 10.0.3.1
"""

STEADY_PPOS_DOC = STEADY_DOC.replace("steady", "steady_ppos") + "at 0s enable_ppos 1\n"


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


@pytest.fixture(scope="module")
def timed_runs():
    """One timed run per built-in scenario, reused across criteria."""
    runs = {}
    for name in ("fig4", "fig5", "fig6_default", "fig6_ppos"):
        start = time.monotonic()
        report = run_scenario(builtin_scenario(name))
        runs[name] = (report, time.monotonic() - start)
    return runs


def nonzero_pairs_per_bucket(report):
    pair_of = {rec.subflow_id: rec.pair for rec in report.columns}
    out = {}
    for row in report.rows:
        if row.bytes_acked > 0:
            out.setdefault(row.bucket_start_ms // 1000, set()).add(
                pair_of[row.subflow_id]
            )
    return out


def assertion_buckets(lo, hi, events):
    """Seconds in [lo, hi] at least 2 s away from every scripted event."""
    return [
        b
        for b in range(lo, hi + 1)
        if all(abs(b - ev) > 2 for ev in events)
    ]


def check_phases(report, phases, events):
    observed = nonzero_pairs_per_bucket(report)
    for lo, hi, expected in phases:
        for bucket in assertion_buckets(lo, hi, events):
            got = observed.get(bucket, set())
            assert got == expected, (
                f"bucket {bucket}: nonzero pairs {sorted(map(str, got))} != "
                f"expected {sorted(map(str, expected))}"
            )


def test_criterion_1_priority_flip_and_failover_phases(timed_runs):
    report, elapsed = timed_runs["fig4"]
    with criterion(1, "fig4 phase membership and re-creation, runtime < 5 s"):
        events = (15, 35, 55, 75, 95)
        check_phases(
            report,
            [
                (0, 14, {P1, P2, P3}),  # all paths active
                (16, 34, {P1}),         # others marked backup
                (37, 54, {P2, P3}),     # path 1 cut: backups take over
                (56, 74, {P1}),         # path 1 restored
                (76, 94, {P1}),         # idle backups cut: nothing changes
                (97, 99, {P1, P2, P3}), # backups restored: new sub-flows active
            ],
            events,
        )
        # the final-phase carriers on paths 2 and 3 are re-created sub-flows
        gen = {rec.subflow_id: rec for rec in report.columns}
        late = [rec for rec in gen.values() if rec.created_ms > 95_000 and rec.died_ms is None]
        assert {rec.pair for rec in late} == {P2, P3}
        assert all(rec.subflow_id not in (1, 2, 3) for rec in late)
        # path 1's own outage replaced its sub-flow within one attempt period
        successor = [rec for rec in gen.values() if rec.pair == P1 and rec.created_ms > 0]
        assert len(successor) == 1 and 55_000 < successor[0].created_ms <= 56_000
        assert elapsed < 5.0, f"fig4 took {elapsed:.2f} s"


def test_criterion_2_backup_list_keeps_recreated_subflows_backup(timed_runs):
    report, elapsed = timed_runs["fig5"]
    with criterion(2, "fig5 re-created sub-flows stay backup, runtime < 5 s"):
        events = (15, 35, 55, 75, 95)
        check_phases(
            report,
            [
                (0, 14, {P1, P2, P3}),
                (16, 34, {P1}),
                (37, 54, {P2, P3}),
                (56, 74, {P1}),
                (76, 94, {P1}),
                (97, 99, {P1}),  # re-created sub-flows remember backup state
            ],
            events,
        )
        # the re-created sub-flows exist but are backup and silent
        recreated = [
            rec
            for rec in report.columns
            if rec.pair in (P2, P3) and rec.created_ms > 95_000
        ]
        assert len(recreated) == 2
        final_rows = [row for row in report.rows if row.bucket_start_ms >= 98_000]
        for row in final_rows:
            if row.subflow_id in {rec.subflow_id for rec in recreated}:
                assert row.low_prio and row.bytes_acked == 0
        assert elapsed < 5.0, f"fig5 took {elapsed:.2f} s"


def test_criterion_3_default_vs_primary_path_only(timed_runs):
    default_report, _ = timed_runs["fig6_default"]
    ppos_report, _ = timed_runs["fig6_ppos"]
    with criterion(3, "fig6 default uses all paths; ppos isolates the primary"):
        # default scheduler: every sub-flow alive for a whole bucket carries
        # data in at least 95% of those buckets
        gen = {rec.subflow_id: rec for rec in default_report.columns}
        total = good = 0
        for row in default_report.rows:
            rec = gen[row.subflow_id]
            start, end = row.bucket_start_ms, row.bucket_start_ms + 1000
            alive_throughout = rec.created_ms <= start and (
                rec.died_ms is None or rec.died_ms >= end
            )
            if alive_throughout:
                total += 1
                good += row.bytes_acked > 0
        assert good / total >= 0.95, f"only {good}/{total} alive buckets carried data"

        # ppos: nothing off the primary pair outside the outage window
        pair_of = {rec.subflow_id: rec.pair for rec in ppos_report.columns}
        for row in ppos_report.rows:
            bucket = row.bucket_start_ms // 1000
            if pair_of[row.subflow_id] != P1 and (bucket < 30 or bucket > 72):
                assert row.bytes_acked == 0, f"off-primary bytes in bucket {bucket}"
            if pair_of[row.subflow_id] == P1 and 32 < bucket < 70:
                assert row.bytes_acked == 0, f"primary bytes in bucket {bucket}"
        # primary-pair traffic resumed by t=72 s
        resumed = [
            row.bucket_start_ms // 1000
            for row in ppos_report.rows
            if pair_of[row.subflow_id] == P1
            and row.bytes_acked > 0
            and row.bucket_start_ms >= 70_000
        ]
        assert resumed and min(resumed) <= 71, f"primary resumed at {resumed[:1]}"


def test_criterion_4_throughput_sanity():
    with criterion(4, "steady state: 3 Mbps aggregate default, 1 Mbps ppos, +-10%"):
        report = run_scenario(parse_scenario(STEADY_DOC))
        for bucket in range(2, 12):
            aggregate_bps = 8 * sum(
                row.bytes_acked
                for row in report.rows
                if row.bucket_start_ms == bucket * 1000
            )
            assert abs(aggregate_bps - 3_000_000) <= 300_000, (
                f"bucket {bucket}: {aggregate_bps} bps"
            )
        report = run_scenario(parse_scenario(STEADY_PPOS_DOC))
        for bucket in range(2, 12):
            aggregate_bps = 8 * sum(
                row.bytes_acked
                for row in report.rows
                if row.bucket_start_ms == bucket * 1000
            )
            assert abs(aggregate_bps - 1_000_000) <= 100_000, (
                f"bucket {bucket}: {aggregate_bps} bps"
            )


def test_criterion_5_classification_truth_table():
    with criterion(5, "priority classification matches the 8-case truth table"):
        table = [
            ((), (), False),
            ((), (P1,), True),
            ((), (P2,), False),
            ((P1,), (), False),
            ((P2,), (), True),
            ((P1,), (P1,), False),  # active list precedence
            ((P1,), (P2,), False),
            ((P2,), (P1,), True),
        ]
        for active, backup, expected in table:
            got = classify_subflow_priority(P1, PriorityLists(active, backup))
            assert got is expected, (active, backup, got)


def _lowest_rtt(subflows, mss, window):
    """Id of the member that fits one more MSS in its window with the lowest
    (srtt, id), or None if no member fits."""
    fits = [sf for sf in subflows if sf.inflight_bytes + mss <= window]
    return min(fits, key=lambda sf: (sf.srtt_us, sf.id)).id if fits else None


def _oracle_default(subflows, mss, window):
    """Brute-force restatement of the default selection rules: the actives
    decide while any of them is alive, even if none has room in its window;
    the backups decide only when no active is alive. Returns (chosen id,
    reason, deciding ids)."""
    alive = [sf for sf in subflows if sf.alive]
    actives = [sf for sf in alive if not sf.low_prio]
    if actives:
        chosen, reason = _lowest_rtt(actives, mss, window), "active-path"
    else:
        chosen, reason = _lowest_rtt(alive, mss, window), "backup-fallback"
    ids = {sf.id for sf in actives or alive}
    return (chosen, reason, ids) if chosen is not None else (None, "no-path", ids)


def _oracle_ppos(conn, mss, window):
    """Brute-force restatement of the primary-path-only rules: the sub-flows
    on a primary pair decide while any of them is alive; otherwise the rest
    decide by the default rules, reported as backup fallback."""
    alive = [sf for sf in conn.subflows if sf.alive]
    primaries = [sf for sf in alive if sf.pair() in conn.primary_pairs]
    if primaries:
        chosen, reason = _lowest_rtt(primaries, mss, window), "primary-path"
        ids = {sf.id for sf in primaries}
    else:
        chosen, _, ids = _oracle_default(alive, mss, window)
        reason = "backup-fallback"
    return (chosen, reason, ids) if chosen is not None else (None, "no-path", ids)


def _tier_ids(conn, decision):
    """Ids of the alive sub-flows in the decision's deciding tier."""
    return {sf.id for sf in conn.subflows if sf.alive and tier(conn, sf) == decision.tier}


def _grid_states():
    flags = (False, True)
    srtts = (50_000, 100_000, 150_000)
    inflights = (0, WINDOW)
    per_flow = list(itertools.product(flags, flags, srtts, inflights))
    return itertools.product(per_flow, per_flow, per_flow)


def test_criterion_6_scheduler_matches_bruteforce_oracle():
    with criterion(6, "selector equals brute-force oracle over all 13824 states"):
        cases = 0
        for state in _grid_states():
            conn = new_connection(
                [addr("10.0.0.1")], [addr(r) for r in ("10.0.1.1", "10.0.2.1", "10.0.3.1")]
            )
            for sf, (low, alive, srtt, inflight) in zip(conn.subflows, state):
                sf.low_prio = low
                sf.alive = alive
                sf.srtt_us = srtt
                sf.inflight_bytes = inflight
            got = select(conn, MSS, WINDOW)
            want_id, want_reason, want_ids = _oracle_default(conn.subflows, MSS, WINDOW)
            assert (got.chosen, got.reason.value) == (want_id, want_reason), state
            assert _tier_ids(conn, got) == want_ids, state
            conn.primary_pairs = [P1]
            got = select(conn, MSS, WINDOW)
            want_id, want_reason, want_ids = _oracle_ppos(conn, MSS, WINDOW)
            assert (got.chosen, got.reason.value) == (want_id, want_reason), state
            assert _tier_ids(conn, got) == want_ids, state
            cases += 1
        assert cases == 13824


def test_criterion_7_wire_roundtrip_and_fuzz():
    with criterion(7, "MP_PRIO roundtrip, mutation rejection and decode fuzz"):
        every_option = [MpPrioOption(flag) for flag in (False, True)] + [
            MpPrioOption(flag, addr_id)
            for flag in (False, True)
            for addr_id in range(256)
        ]
        assert len(every_option) == 514
        for opt in every_option:
            encoded = encode_mp_prio(opt)
            assert decode_mp_prio(encoded) == opt
            for bad_kind in (0, 29, 31, 255):
                with pytest.raises(OptionError):
                    decode_mp_prio(bytes([bad_kind]) + encoded[1:])
            for bad_length in (0, 1, 2, 5, 255):
                if bad_length == len(encoded):
                    continue
                with pytest.raises(OptionError):
                    decode_mp_prio(bytes([encoded[0], bad_length]) + encoded[2:])
        rng = random.Random(0)
        for _ in range(100_000):
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(9)))
            try:
                decode_mp_prio(blob)
            except OptionError:
                pass


def test_criterion_8_builtin_runs_are_byte_identical(timed_runs):
    with criterion(8, "every built-in scenario yields byte-identical CSV twice"):
        for name in ("fig4", "fig5", "fig6_default", "fig6_ppos"):
            first, _ = timed_runs[name]
            second = run_scenario(builtin_scenario(name))
            buffers = []
            for report in (first, second):
                buf = io.StringIO()
                emit_csv(report, buf)
                buffers.append(buf.getvalue())
            assert buffers[0] == buffers[1], name
