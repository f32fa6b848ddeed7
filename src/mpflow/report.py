"""A run's report: one column per sub-flow, the rows derived from the
columns, and the CSV writer.

The report is its columns. A :class:`SubflowColumn` is the one record of
a sub-flow: its id, pair, birth and death (the genealogy), its bucket
range, its acked bytes as a list with one entry per bucket of that range,
and its flag history, and it states the row rule.
:attr:`TimelineReport.rows` and :func:`emit_csv` both derive their rows
through :meth:`SubflowColumn.per_row`, which finds the rows of each flag
interval in closed form from the flag times and maps that interval's slice
of the list. :func:`emit_csv` maps them through a cache of row ends keyed
by byte count, one per pair of flags and shared by all sub-flows, so no
per-row object is built unless ``rows`` is read.
"""

from __future__ import annotations

import os
from collections import deque
from itertools import chain, repeat
from typing import (
    IO, TYPE_CHECKING, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union
)

from .model import InterfacePair

if TYPE_CHECKING:
    from .simnet import _Flow

US_PER_MS = 1000  # the simulator's clock ticks in µs; reports count in ms

CSV_HEADER = "bucket_start_ms,subflow_id,pair,bytes_acked,throughput_bps,low_prio,alive"

_FLAGS = ((False, False), (False, True), (True, False), (True, True))  # (low_prio, alive)
_FLAG_TEXT = {flags: "{:d},{:d}\n".format(*flags) for flags in _FLAGS}  # each row's last two cells


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
    end of and alive past the start of: buckets ``first`` to ``last``. The
    row holds the bytes acked in the bucket (``acked[bucket - first]``, 0 if
    none), the flag in force at the bucket's end, a flag set at the end
    included, and whether the sub-flow died at or after the end
    (``alive``). ``flag_values[i]`` holds from
    ``flag_times[i]`` on, and ``flag_times[0]`` is the sub-flow's birth.
    The column is also the sub-flow's genealogy entry: its id, pair, birth
    (:attr:`created_ms`) and death (:attr:`died_ms`)."""

    subflow_id: int
    pair: InterfacePair
    first: int
    last: int
    acked: List[int]  # bytes by bucket: acked[i] those of bucket first + i
    flag_times: List[int]
    flag_values: List[bool]
    died_us: Optional[int]

    @property
    def created_ms(self) -> int:
        return self.flag_times[0] // US_PER_MS

    @property
    def died_ms(self) -> Optional[int]:
        return None if self.died_us is None else self.died_us // US_PER_MS

    @classmethod
    def of(cls, flow: _Flow, bucket_us: int, n_buckets: int) -> SubflowColumn:
        """The column of a simulated sub-flow at the end of a run. It takes
        the flow's list of acked bytes, which grows on demand, and cuts or
        pads it in place to one entry per row."""
        sf = flow.sf
        died = sf.died_us
        first = flow.first_bucket
        last = n_buckets - 1 if died is None else (died - 1) // bucket_us
        acked = flow.acked
        del acked[last + 1 - first :]
        acked += [0] * (last + 1 - first - len(acked))
        return cls(
            sf.id, flow.link.spec.pair, first, last, acked, flow.flag_times, flow.flag_values, died
        )

    def per_row(
        self, bucket_us: int, convert: Dict[Tuple[bool, bool], Callable[[int], object]]
    ) -> list:
        """``convert[low_prio, alive](bytes_acked)`` of each row, ``first`` to
        ``last``, mapped over one flag interval at a time. ``flag_values[i]``
        is in force from the first bucket that ends at or after
        ``flag_times[i]`` to the next flag's, and only the last row of a
        sub-flow that died off a bucket edge is not alive. A column whose
        flag never changed is one interval: one ``map`` over its bytes, and
        its last row apart if it died off a bucket edge. The last bucket
        of a run may end before ``(bucket + 1) * bucket_us``, but no flag
        time and no death is at or after the end of the run, so its row is
        the same."""
        acked, first, n = self.acked, self.first, self.last + 1 - self.first
        died = self.died_us
        cut = n - 1 if died is not None and died % bucket_us else n
        if len(self.flag_times) == 1:
            low_prio = self.flag_values[0]
            if cut == n:
                return [*map(convert[low_prio, True], acked)]
            return [*map(convert[low_prio, True], acked[:cut]), convert[low_prio, False](acked[-1])]
        starts = [min(max(-(-t // bucket_us) - 1 - first, 0), n) for t in self.flag_times[1:]]
        cells: list = []
        for low_prio, lo, hi in zip(self.flag_values, [0] + starts, starts + [n]):
            for i, j, alive in ((lo, min(hi, cut), True), (max(lo, cut), hi, False)):
                cells += map(convert[low_prio, alive], acked[i:j])
        return cells


class TimelineReport(NamedTuple):
    """Per-bucket, per-sub-flow throughput and the sub-flow genealogy, both
    held in the columns.

    ``columns`` are in id order, which is also the order of their first
    buckets, since ids are given out in creation order."""

    bucket_ms: int
    duration_ms: int
    columns: List[SubflowColumn]

    def _stretches(self) -> Iterator[Tuple[int, int, List[SubflowColumn]]]:
        """``(lo, hi, columns)`` for each stretch of buckets ``lo`` to
        ``hi - 1`` in which the same sub-flows have rows, those in id order."""
        edges = sorted({c.first for c in self.columns} | {c.last + 1 for c in self.columns})
        upcoming = deque(self.columns)
        active: List[SubflowColumn] = []
        for lo, hi in zip(edges, edges[1:]):
            active = [c for c in active if c.last >= lo]
            while upcoming and upcoming[0].first == lo:
                active.append(upcoming.popleft())
            if active:
                yield lo, hi, active

    @property
    def rows(self) -> List[ThroughputBucket]:
        """The rows, sorted by (bucket, sub-flow id), built on each access."""
        bucket_us = self.bucket_ms * US_PER_MS
        cell = {flags: (lambda n, flags=flags: (n, *flags)) for flags in _FLAGS}
        cells = {c.subflow_id: c.per_row(bucket_us, cell) for c in self.columns}
        return [
            ThroughputBucket(
                bucket * self.bucket_ms, c.subflow_id, *cells[c.subflow_id][bucket - c.first]
            )
            for lo, hi, active in self._stretches()
            for bucket in range(lo, hi)
            for c in active
        ]


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
    formatted one flag interval at a time (:meth:`SubflowColumn.per_row`),
    and the rows are written a stretch of buckets with the same sub-flows
    at a time."""
    if isinstance(out, (str, os.PathLike)):
        with open(out, "w", encoding="utf-8", newline="") as handle:
            emit_csv(report, handle)
        return
    bucket_ms = report.bucket_ms
    bucket_us = bucket_ms * US_PER_MS
    columns = report.columns
    end_of = {flags: _RowEnds(bucket_ms, text).__getitem__ for flags, text in _FLAG_TEXT.items()}
    # Each sub-flow's row middles and ends, as iterators: a stretch's zip
    # stops at the end of its first iterable, its bucket starts, so each
    # takes up its sub-flow's rows where the stretch before left off.
    rest = {
        c.subflow_id: (
            repeat(f",{c.subflow_id},{c.pair},"), iter(c.per_row(bucket_us, end_of))
        )
        for c in columns
    }
    parts = [CSV_HEADER + "\n"]
    for lo, hi, active in report._stretches():
        starts = list(map(str, range(lo * bucket_ms, hi * bucket_ms, bucket_ms)))
        pieces = []  # zipped, each bucket's (start, middle, end) per sub-flow
        for c in active:
            pieces += (starts, *rest[c.subflow_id])
        parts += chain.from_iterable(zip(*pieces))
    for c in columns:  # created_ms and died_ms, read off the fields
        died = "-" if c.died_us is None else c.died_us // US_PER_MS
        parts.append(
            f"# subflow {c.subflow_id} pair={c.pair} "
            f"created_ms={c.flag_times[0] // US_PER_MS} died_ms={died}\n"
        )
    out.write("".join(parts))
