"""A run's report: one column per sub-flow, the rows derived from the
columns, and the CSV writer.

The report is its columns. A :class:`SubflowColumn` is the one record of
a sub-flow: its id, pair, birth and death (the genealogy), its delivery
log and its flag history, and it states the row rule. A log holds the
sub-flow's acks and no bucket width, so :meth:`TimelineReport.at` gives
the same run at any width. At the report's width,
:meth:`TimelineReport.acked` is the one place that turns a log into bytes
per bucket, and :attr:`TimelineReport.rows` and :func:`emit_csv` both
derive their rows from those bytes through :meth:`TimelineReport.per_row`,
which finds the rows of each flag interval in closed form from the flag
times and maps that interval's slice of the bytes. :func:`emit_csv` maps
them through a cache of row ends keyed by byte count, one per pair of
flags and shared by all sub-flows, so no per-row object is built unless
``rows`` is read.
"""

from __future__ import annotations

import operator
import os
from collections import deque
from itertools import chain, repeat
from typing import IO, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from .model import InterfacePair, ValidationError

US_PER_MS = 1000  # the simulator's clock ticks in µs; reports count in ms
MSS = 1460  # the bytes of a data segment, which its ack frees and the report counts

CSV_HEADER = "bucket_start_ms,subflow_id,pair,bytes_acked,throughput_bps,low_prio,alive"

_FLAGS = ((False, False), (False, True), (True, False), (True, True))  # (low_prio, alive)
_FLAG_TEXT = {flags: "{:d},{:d}\n".format(*flags) for flags in _FLAGS}  # each row's last two cells


def check_ms(what: str, ms: int) -> None:
    """Raise ValidationError unless ``ms``, a run's ``what``, is a positive
    whole number of ms."""
    if not isinstance(ms, int) or isinstance(ms, bool):
        raise ValidationError(f"{what} must be a whole number of ms: {ms}")
    if ms <= 0:
        raise ValidationError(f"{what} must be positive")


class ThroughputBucket(NamedTuple):
    """One row of a report: the acked bytes of one sub-flow in one bucket,
    with the flags the sub-flow had when the bucket closed."""

    bucket_start_ms: int
    subflow_id: int
    bytes_acked: int
    low_prio: bool
    alive: bool


class SubflowColumn(NamedTuple):
    """One sub-flow's part of a report, from which its rows derive.

    This is the row rule, for :attr:`TimelineReport.rows` and the CSV
    alike. A sub-flow has a row in each bucket that it was born before the
    end of and alive past the start of. The row holds the bytes acked in
    the bucket (0 if none), the flag in force at the bucket's end, a flag
    set at the end included, and whether the sub-flow died at or after the
    end (``alive``). ``log`` holds the sub-flow's acks, of an MSS each, as
    runs ``(a, k, g)`` in time order: ``k`` acks, the ``i``-th at
    ``a + i * g`` µs. ``flag_values[i]`` holds from ``flag_times[i]`` on,
    and ``flag_times[0]`` is the sub-flow's birth. The column is also the
    sub-flow's genealogy entry: its id, pair, birth (:attr:`created_ms`)
    and death (:attr:`died_ms`)."""

    subflow_id: int
    pair: InterfacePair
    log: List[Tuple[int, int, int]]
    flag_times: List[int]
    flag_values: List[bool]
    died_us: Optional[int]

    @property
    def created_ms(self) -> int:
        return self.flag_times[0] // US_PER_MS

    @property
    def died_ms(self) -> Optional[int]:
        return None if self.died_us is None else self.died_us // US_PER_MS


class TimelineReport(NamedTuple):
    """Per-bucket, per-sub-flow throughput and the sub-flow genealogy, both
    held in the columns, at buckets of ``bucket_ms``.

    ``columns`` are in id order, which is also the order of their first
    buckets, since ids are given out in creation order."""

    bucket_ms: int
    duration_ms: int
    columns: List[SubflowColumn]

    def at(self, bucket_ms: int) -> TimelineReport:
        """The same run's report at buckets of ``bucket_ms``."""
        check_ms("bucket width", bucket_ms)
        return self._replace(bucket_ms=bucket_ms)

    def acked(self, column: SubflowColumn) -> Tuple[int, List[int]]:
        """``(first, acked)``: the bucket of ``column``'s first row, and the
        bytes acked in the bucket of each of its rows, up to the run's last
        bucket or the last that the sub-flow was alive past the start of:
        ``acked[i]`` those of bucket ``first + i``, from its log."""
        bucket_us, died = self.bucket_ms * US_PER_MS, column.died_us
        first = column.flag_times[0] // bucket_us
        last = (self.duration_ms - 1) // self.bucket_ms if died is None else (died - 1) // bucket_us
        acked = [0] * (last + 1 - first)
        for a, k, g in column.log:
            _store(acked, a - first * bucket_us, k, g, bucket_us)
        return first, acked

    def per_row(
        self, column: SubflowColumn, convert: Dict[Tuple[bool, bool], Callable[[int], object]]
    ) -> Tuple[int, list]:
        """``(first, cells)``: the bucket of ``column``'s first row, and
        ``convert[low_prio, alive](bytes_acked)`` of each of its rows, from
        :meth:`acked`, mapped over one flag interval at a time.
        ``flag_values[i]`` is in force from the first bucket that ends at or
        after ``flag_times[i]`` to the next flag's, and only the last row of
        a sub-flow that died off a bucket edge is not alive, so a column
        whose flag never changed takes one ``map``, and its last row apart
        if it died off a bucket edge. A run's last bucket may end early, but
        no flag time and no death is at or after the run's end, so its row
        is the same."""
        (first, acked), flag_times = self.acked(column), column.flag_times
        bucket_us, n, died = self.bucket_ms * US_PER_MS, len(acked), column.died_us
        cut = n - 1 if died is not None and died % bucket_us else n
        if len(flag_times) == 1:
            low_prio = column.flag_values[0]
            if cut == n:
                return first, [*map(convert[low_prio, True], acked)]
            last = convert[low_prio, False](acked[-1])
            return first, [*map(convert[low_prio, True], acked[:cut]), last]
        starts = [min(max(-(-t // bucket_us) - 1 - first, 0), n) for t in flag_times[1:]]
        cells: list = []
        for low_prio, lo, hi in zip(column.flag_values, [0] + starts, starts + [n]):
            for i, j, alive in ((lo, min(hi, cut), True), (max(lo, cut), hi, False)):
                cells += map(convert[low_prio, alive], acked[i:j])
        return first, cells

    @staticmethod
    def _stretches(columns: List[tuple]) -> Iterator[Tuple[int, int, List[tuple]]]:
        """``(lo, hi, active)`` for each stretch of buckets ``lo`` to
        ``hi - 1`` in which the same sub-flows have rows: the entries of
        ``columns``, ``(column, *per_row)``, with a row in each, in id order."""
        edges = sorted({first for _, first, _ in columns} | {f + len(r) for _, f, r in columns})
        upcoming = deque(columns)
        active: List[tuple] = []
        for lo, hi in zip(edges, edges[1:]):
            while upcoming and upcoming[0][1] == lo:
                active.append(upcoming.popleft())
            active = [entry for entry in active if entry[1] + len(entry[2]) > lo]
            if active:
                yield lo, hi, active

    @property
    def rows(self) -> List[ThroughputBucket]:
        """The rows, sorted by (bucket, sub-flow id), built on each access."""
        cell = {flags: (lambda n, flags=flags: (n, *flags)) for flags in _FLAGS}
        columns = [(c, *self.per_row(c, cell)) for c in self.columns]
        return [
            ThroughputBucket(bucket * self.bucket_ms, c.subflow_id, *cells[bucket - first])
            for lo, hi, active in self._stretches(columns)
            for bucket in range(lo, hi)
            for c, first, cells in active
        ]


def _store(acked: List[int], a: int, k: int, g: int, bucket_us: int) -> None:
    """Add the MSS of each of ``k`` acks at ``a + i * g`` µs from the start
    of ``acked[0]``'s bucket, after the column's others, to its bucket. When
    a bucket holds one at most: one store per ack, or, past a window of 32
    with no two empty buckets in a row, per empty bucket. Else one slice
    store, with no Python step per bucket."""
    first, last = a // bucket_us, (a + (k - 1) * g) // bucket_us
    if g >= bucket_us:  # only the first bucket may hold earlier acks
        acked[first] += MSS
        if g < 2 * bucket_us and k > 32:  # fill, then clear the empty ones
            acked[first + 1 : last + 1] = [MSS] * (last - first)
            d, off = g - bucket_us, a - first * bucket_us
            for j in range(1, (off + (k - 1) * d) // bucket_us + 1):
                acked[first + j - 1 - (off - j * bucket_us) // d] = 0
        else:
            for at in range(a + g, a + k * g, g):
                acked[at // bucket_us] = MSS
    else:  # each bucket from first to last holds an ack; only the first, earlier ones
        ceils = range((first + 1) * bucket_us - a + g - 1, last * bucket_us - a + g, bucket_us)
        before = [*map(operator.floordiv, ceils, repeat(g)), k]
        acked[first] += before[0] * MSS
        nbytes = map(operator.mul, map(operator.sub, before[1:], before), repeat(MSS))
        acked[first + 1 : last + 1] = nbytes


class _RowEnds(dict):
    """The ends of CSV rows with one pair of flags, after the sub-flow's
    pair, by acked bytes, each formatted once."""

    def __init__(self, bucket_ms: int, flags: str) -> None:
        super().__init__()
        self.bucket_ms, self.flags = bucket_ms, flags

    def __missing__(self, nbytes: int) -> str:
        throughput_bps = nbytes * 8 * 1000 // self.bucket_ms
        end = self[nbytes] = f"{nbytes},{throughput_bps},{self.flags}"
        return end


def emit_csv(report: TimelineReport, out: Union[str, os.PathLike, IO[str]]) -> None:
    """Write a report as CSV: one row per (bucket, sub-flow alive in it),
    sorted by (bucket_start_ms, subflow_id), plus a genealogy footer in
    comment lines. The ends of each sub-flow's rows, after its pair, are
    formatted one flag interval at a time (:meth:`TimelineReport.per_row`),
    and the rows are written a stretch of buckets with the same sub-flows
    at a time."""
    if isinstance(out, (str, os.PathLike)):
        with open(out, "w", encoding="utf-8", newline="") as handle:
            emit_csv(report, handle)
        return
    bucket_ms = report.bucket_ms
    end_of = {flags: _RowEnds(bucket_ms, text).__getitem__ for flags, text in _FLAG_TEXT.items()}
    columns = [(c, *report.per_row(c, end_of)) for c in report.columns]
    # Each sub-flow's row middles and ends, as iterators: a stretch's zip
    # stops at the end of its first iterable, its bucket starts, so each
    # takes up its sub-flow's rows where the stretch before left off.
    rest = {
        c.subflow_id: (repeat(f",{c.subflow_id},{c.pair},"), iter(ends)) for c, _, ends in columns
    }
    parts = [CSV_HEADER + "\n"]
    for lo, hi, active in report._stretches(columns):
        starts = list(map(str, range(lo * bucket_ms, hi * bucket_ms, bucket_ms)))
        pieces = []  # zipped, each bucket's (start, middle, end) per sub-flow
        for c, _, _ in active:
            pieces += (starts, *rest[c.subflow_id])
        parts += chain.from_iterable(zip(*pieces))
    for c in report.columns:  # created_ms and died_ms, read off the fields
        died = "-" if c.died_us is None else c.died_us // US_PER_MS
        parts.append(
            f"# subflow {c.subflow_id} pair={c.pair} "
            f"created_ms={c.flag_times[0] // US_PER_MS} died_ms={died}\n"
        )
    out.write("".join(parts))
