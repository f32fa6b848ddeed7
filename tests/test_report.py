"""The row rule of ``mpflow.report`` against a plain per-bucket statement of it.

Columns are drawn at random, as a run can leave them: births mid-run,
deaths on a bucket edge and mid-bucket, priority flips several to a bucket,
exactly on bucket ends and in a sub-flow's last bucket, durations off the
bucket grid, and delivery logs of runs of acks spaced under a bucket, one to
two buckets apart and further, in the same µs, and past the run's 32-ack
window. Both the CSV's data lines and ``TimelineReport.rows`` must hold
exactly the rows that the reference below derives bucket by bucket, with
the bytes of each ack in its bucket, and the CSV's footer one genealogy
line per sub-flow, in id order.
"""

import io
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpflow.model import AddrFamily, InterfacePair, ValidationError
from mpflow.report import SubflowColumn, ThroughputBucket, TimelineReport, emit_csv
from helpers import acked_by_bucket


def reference_rows(bucket_ms, duration_ms, flows):
    """Each bucket of the run, each sub-flow in id order: a row if the
    sub-flow was born before the bucket's end and is alive past its start,
    holding the bytes acked in it, the flag set last at or before its end,
    and whether the sub-flow is still alive at its end."""
    bucket_us = bucket_ms * 1000
    n_buckets = -(-duration_ms // bucket_ms)
    rows = []
    acked = {flow.sf.id: acked_by_bucket(flow, bucket_us) for flow in flows}
    for bucket in range(n_buckets):
        start, end = bucket * bucket_us, (bucket + 1) * bucket_us
        for flow in flows:
            sf = flow.sf
            if sf.created_us >= end or (sf.died_us is not None and sf.died_us <= start):
                continue
            low_prio = flow.flag_values[0]
            for at, value in zip(flow.flag_times, flow.flag_values):
                if at <= end:
                    low_prio = value
            alive = sf.died_us is None or sf.died_us >= end
            nbytes = acked[sf.id].get(bucket, 0)
            rows.append(ThroughputBucket(bucket * bucket_ms, sf.id, nbytes, low_prio, alive))
    return rows


def reference_footer(flows):
    """One comment line per sub-flow, in id order: its pair, and its birth
    and death in whole ms, ``-`` if it never died."""
    lines = []
    for flow in flows:
        sf = flow.sf
        died = "-" if sf.died_us is None else sf.died_us // 1000
        lines.append(
            f"# subflow {sf.id} pair={flow.link.spec.pair} "
            f"created_ms={sf.created_us // 1000} died_ms={died}"
        )
    return lines


@st.composite
def runs(draw):
    """``(bucket_ms, duration_ms, flows)``: flows with what a report's column
    holds of a simulated sub-flow, in id and creation order."""
    bucket_ms = draw(st.sampled_from((1, 7, 10, 100)))
    duration_ms = draw(st.integers(1, 40 * bucket_ms))
    duration_us, bucket_us = duration_ms * 1000, bucket_ms * 1000
    # Any µs of the run, often a bucket edge or 1 µs off one, from ``lo`` on.
    near_edge = st.builds(
        lambda bucket, offset: bucket * bucket_us + offset,
        st.integers(0, duration_ms // bucket_ms),
        st.sampled_from((-1, 0, 1)),
    )

    def moment(lo=0):
        anywhere = st.one_of(st.integers(0, duration_us - 1), near_edge)
        return anywhere.map(lambda t: min(max(t, lo), duration_us - 1))

    births = sorted(draw(st.lists(moment(), min_size=1, max_size=5)))
    births = [0] * draw(st.integers(0, 3)) + births
    rng = draw(st.randoms(use_true_random=False))
    flows = []
    for subflow_id, created_us in enumerate(births, start=1):
        died_us = None
        if created_us < duration_us - 1 and draw(st.booleans()):
            died_us = draw(moment(created_us))  # at its birth too, as a close at 0 ms does
        # Flips may come after a death; a flag changes only while the run does.
        flips = sorted(draw(st.lists(moment(created_us), max_size=8)))
        if died_us is not None and draw(st.booleans()):
            flips = sorted(flips + [died_us - 1])  # in its last bucket
        flips += [flips[-1]] * draw(st.integers(0, 2)) if flips else []  # same µs
        values = [draw(st.booleans())]
        for _ in flips:
            values.append(not values[-1])  # the simulator records changes only
        # Runs of acks in time order, each after the last ack of the one
        # before it or in its µs, and before the sub-flow dies or the run ends.
        end, log, at = duration_us if died_us is None else died_us, [], created_us
        for _ in range(rng.randint(0, 12)):
            at += rng.choice((0, rng.randrange(bucket_us), rng.randrange(3 * bucket_us)))
            g = rng.choice((0, 1, rng.randrange(1, bucket_us), rng.randrange(1, 3 * bucket_us)))
            k = rng.choice((1, 2, rng.randint(1, 40)))
            k = min(k, (end - 1 - at) // g + 1) if g else k
            if at >= end:
                break
            log.append((at, k, g))
            at += (k - 1) * g
        flows.append(
            SimpleNamespace(
                sf=SimpleNamespace(id=subflow_id, created_us=created_us, died_us=died_us),
                link=SimpleNamespace(spec=SimpleNamespace(pair=InterfacePair(
                    AddrFamily.V4, bytes([10, 0, 0, 1]), bytes([10, 0, subflow_id, 1])
                ))),
                log=log,
                flag_times=[created_us] + flips,
                flag_values=values,
            )
        )
    return bucket_ms, duration_ms, flows


def report_of(bucket_ms, duration_ms, flows):
    """The report the simulator builds from its flows at the end of a run."""
    columns = [
        SubflowColumn(
            flow.sf.id, flow.link.spec.pair, flow.log, flow.flag_times, flow.flag_values,
            flow.sf.died_us,
        )
        for flow in flows
    ]
    return TimelineReport(bucket_ms, duration_ms, columns)


def csv_line(row, bucket_ms, pair):
    throughput_bps = row.bytes_acked * 8 * 1000 // bucket_ms
    return (
        f"{row.bucket_start_ms},{row.subflow_id},{pair},{row.bytes_acked},"
        f"{throughput_bps},{int(row.low_prio)},{int(row.alive)}"
    )


@settings(max_examples=200, deadline=None)
@given(run=runs())
def test_csv_and_rows_follow_the_row_rule_bucket_by_bucket(run):
    bucket_ms, duration_ms, flows = run
    expected = reference_rows(bucket_ms, duration_ms, flows)
    report = report_of(bucket_ms, duration_ms, flows)
    assert report.rows == expected
    out = io.StringIO()
    emit_csv(report, out)
    header, *lines = out.getvalue().splitlines()
    pairs = {flow.sf.id: str(flow.link.spec.pair) for flow in flows}
    data = [csv_line(row, bucket_ms, pairs[row.subflow_id]) for row in expected]
    assert lines == data + reference_footer(flows)


def csv_text(report):
    out = io.StringIO()
    emit_csv(report, out)
    return out.getvalue()


def test_a_same_value_flag_entry_changes_no_row():
    # A column whose flag never changed takes per_row's one-interval path.
    # A second flag entry of the same value sends it through the path of
    # several intervals, which must give the same rows and CSV bytes.
    def pair(k):
        return InterfacePair(AddrFamily.V4, bytes([10, 0, 0, 1]), bytes([10, 0, k, 1]))

    columns = [  # 1 s buckets over 5.5 s: buckets 0-5
        SubflowColumn(1, pair(1), [(b * 10**6, b + 1, 1) for b in range(6)], [0], [False], None),
        SubflowColumn(2, pair(2), [(1_300_000, 5, 1)], [1_200_000], [True], 3_000_000),
        SubflowColumn(3, pair(3), [(2_600_000, 3, 700_000)], [2_500_000], [False], 4_700_000),
    ]
    report = TimelineReport(1000, 5500, columns)
    rows, text = report.rows, csv_text(report)
    # Alive at the run's end, dead on a bucket edge, and dead off one.
    assert [(r.subflow_id, r.alive) for r in rows if r.bucket_start_ms == 5000] == [(1, True)]
    assert [r.alive for r in rows if r.subflow_id == 2] == [True, True]
    assert [r.alive for r in rows if r.subflow_id == 3] == [True, True, False]
    for column in columns:
        column.flag_times.append(column.flag_times[0] + 300_000)
        column.flag_values.append(column.flag_values[0])
    assert report.rows == rows
    assert csv_text(report) == text


def test_each_pair_s_text_is_formatted_once_across_reports():
    # A pair's text never changes, so the pair keeps it: two reports over
    # the same two pairs, each emitted twice, format each pair once. A
    # plain tuple equal to a pair still prints as a tuple.
    InterfacePair.__str__.cache_clear()
    src = bytes([10, 0, 0, 1])
    pairs = [InterfacePair(AddrFamily.V4, src, bytes([10, 0, k, 1])) for k in (1, 2)]
    columns = [
        SubflowColumn(k + 1, p, [(0, 1, 0)], [0], [False], None) for k, p in enumerate(pairs)
    ]
    texts = []
    for report in (TimelineReport(1000, 2000, columns), TimelineReport(500, 1000, columns)):
        for _ in range(2):
            buf = io.StringIO()
            emit_csv(report, buf)
            texts.append(buf.getvalue())
    assert InterfacePair.__str__.cache_info().misses == 2
    assert texts[0] == texts[1] and texts[2] == texts[3]
    assert "0,1,10.0.0.1->10.0.1.1,1460,11680,0,1\n" in texts[0]
    assert str(tuple(pairs[0])) != str(pairs[0])


def test_a_sub_flow_dead_at_its_birth_on_an_edge_has_no_row():
    # Sub-flow 2 is closed at 0 ms, the µs of its birth, so it has no row,
    # and it takes none from sub-flow 1 in bucket 0.
    def pair(k):
        return InterfacePair(AddrFamily.V4, bytes([10, 0, 0, 1]), bytes([10, 0, k, 1]))

    columns = [
        SubflowColumn(1, pair(1), [(0, 1, 0)], [0], [False], None),
        SubflowColumn(2, pair(2), [], [0], [False], 0),
        SubflowColumn(3, pair(2), [], [1_000_000], [False], None),
    ]
    report = TimelineReport(1000, 2000, columns)
    assert [(r.bucket_start_ms, r.subflow_id) for r in report.rows] == [(0, 1), (1000, 1), (1000, 3)]
    assert csv_text(report).splitlines()[1] == "0,1,10.0.0.1->10.0.1.1,1460,11680,0,1"


@pytest.mark.parametrize(
    "bucket_ms, message",
    [
        (0, "bucket width must be positive"),
        (2.5, "bucket width must be a whole number of ms: 2.5"),
        (True, "bucket width must be a whole number of ms: True"),
    ],
)
def test_a_report_is_bucketed_at_a_positive_whole_number_of_ms(bucket_ms, message):
    report = TimelineReport(1000, 2000, [])
    assert report.at(500) == (500, 2000, [])
    with pytest.raises(ValidationError, match=message):
        report.at(bucket_ms)
