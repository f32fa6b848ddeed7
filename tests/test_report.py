"""The row rule of ``mpflow.report`` against a plain per-bucket statement of it.

Columns are drawn at random, as a run can leave them: births mid-run,
deaths on a bucket edge and mid-bucket, priority flips several to a bucket,
exactly on bucket ends and in a sub-flow's last bucket, and durations off
the bucket grid. Both the CSV's data lines and ``TimelineReport.rows`` must
hold exactly the rows that the reference below derives bucket by bucket,
and the CSV's footer one genealogy line per sub-flow, in id order.
"""

import io
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from mpflow.model import AddrFamily, InterfacePair
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
    acked = {flow.sf.id: acked_by_bucket(flow) for flow in flows}
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
    """``(bucket_ms, duration_ms, flows)``: flows with what ``SubflowColumn.of``
    reads of a simulated sub-flow, in id and creation order."""
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
            died_us = draw(moment(created_us + 1))
        # Flips may come after a death; a flag changes only while the run does.
        flips = sorted(draw(st.lists(moment(created_us), max_size=8)))
        if died_us is not None and draw(st.booleans()):
            flips = sorted(flips + [died_us - 1])  # in its last bucket
        flips += [flips[-1]] * draw(st.integers(0, 2)) if flips else []  # same µs
        values = [draw(st.booleans())]
        for _ in flips:
            values.append(not values[-1])  # the simulator records changes only
        last = (duration_us if died_us is None else died_us) - 1
        buckets = range(created_us // bucket_us, last // bucket_us + 1)
        # Bytes from the first bucket on, 0 in an empty one. As in the
        # simulator, the list grows on demand: it may end before the last
        # bucket, or run on past it, up to twice the rows, with 0s.
        acked = [
            rng.randint(1, 10**6) if i < len(buckets) and rng.random() < 0.8 else 0
            for i in range(rng.randint(0, 2 * len(buckets)))
        ]
        flows.append(
            SimpleNamespace(
                sf=SimpleNamespace(id=subflow_id, created_us=created_us, died_us=died_us),
                link=SimpleNamespace(spec=SimpleNamespace(pair=InterfacePair(
                    AddrFamily.V4, bytes([10, 0, 0, 1]), bytes([10, 0, subflow_id, 1])
                ))),
                first_bucket=created_us // bucket_us,
                acked=acked,
                flag_times=[created_us] + flips,
                flag_values=values,
            )
        )
    return bucket_ms, duration_ms, flows


def report_of(bucket_ms, duration_ms, flows):
    """The report the simulator builds from its flows at the end of a run."""
    bucket_us = bucket_ms * 1000
    n_buckets = -(-duration_ms * 1000 // bucket_us)
    columns = [SubflowColumn.of(flow, bucket_us, n_buckets) for flow in flows]
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
        SubflowColumn(1, pair(1), 0, 5, [5, 6, 7, 8, 9, 10], [0], [False], None),
        SubflowColumn(2, pair(2), 1, 2, [11, 12], [1_200_000], [True], 3_000_000),
        SubflowColumn(3, pair(3), 2, 4, [13, 14, 15], [2_500_000], [False], 4_700_000),
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
        SubflowColumn(k + 1, p, 0, 1, [1460, 0], [0], [False], None) for k, p in enumerate(pairs)
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
