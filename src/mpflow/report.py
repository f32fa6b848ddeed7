"""A run's report: one column per sub-flow, the rows derived from the
columns, and the CSV writer.

The report is columnar. A :class:`SubflowColumn` holds one sub-flow's
bucket range, its acked bytes by bucket and its flag history, and states
the row rule. :attr:`TimelineReport.rows` and :func:`emit_csv` both derive
their rows through it, so no per-row object is built unless ``rows`` is
read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import IO, TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Tuple, Union

from .model import InterfacePair

if TYPE_CHECKING:
    from .simnet import _Flow

US_PER_MS = 1000  # the simulator's clock ticks in µs; reports count in ms

CSV_HEADER = "bucket_start_ms,subflow_id,pair,bytes_acked,throughput_bps,low_prio,alive"


class ThroughputBucket(NamedTuple):
    """One row of a report: the acked bytes of one sub-flow in one bucket,
    with the flags the sub-flow had when the bucket closed."""

    bucket_start_ms: int
    subflow_id: int
    bytes_acked: int
    low_prio: bool
    alive: bool


class SubflowRecord(NamedTuple):
    """Genealogy entry: one sub-flow's pair and lifetime."""

    subflow_id: int
    pair: InterfacePair
    created_ms: int
    died_ms: Optional[int]


class SubflowColumn(NamedTuple):
    """One sub-flow's part of a report, from which its rows derive.

    This is the row rule, for :attr:`TimelineReport.rows` and the CSV
    alike. A sub-flow has a row in each bucket that it was born before the
    end of and alive past the start of: buckets ``first`` to ``last``. The
    row holds the bytes acked in the bucket, the flag in force at the
    bucket's end, a flag set at the end included, and whether the sub-flow
    died at or after the end (``alive``). ``flag_values[i]`` holds from
    ``flag_times[i]`` on."""

    subflow_id: int
    pair: str
    first: int
    last: int
    acked: Dict[int, int]  # bytes by bucket
    flag_times: List[int]
    flag_values: List[bool]
    died_us: Optional[int]

    @classmethod
    def of(cls, flow: _Flow, bucket_us: int, n_buckets: int) -> SubflowColumn:
        """The column of a simulated sub-flow at the end of a run."""
        sf = flow.sf
        died = sf.died_us
        return cls(
            subflow_id=sf.id,
            pair=str(flow.link.spec.pair),
            first=sf.created_us // bucket_us,
            last=n_buckets - 1 if died is None else (died - 1) // bucket_us,
            acked=flow.acked,
            flag_times=flow.flag_times,
            flag_values=flow.flag_values,
            died_us=died,
        )

    def cells(self, bucket_us: int) -> Iterator[Tuple[int, bool, bool]]:
        """``(bytes_acked, low_prio, alive)`` of each row, ``first`` to
        ``last``. The last bucket of a run may end before ``(bucket + 1) *
        bucket_us``, but no flag time and no death is at or after the end of
        the run, so the cell is the same."""
        acked, times, values, died = self.acked, self.flag_times, self.flag_values, self.died_us
        k, n = 0, len(times)
        for bucket in range(self.first, self.last + 1):
            end_us = (bucket + 1) * bucket_us
            while k + 1 < n and times[k + 1] <= end_us:  # ends only grow: k never goes back
                k += 1
            yield acked.get(bucket, 0), values[k], died is None or died >= end_us


@dataclass
class TimelineReport:
    """Per-bucket, per-sub-flow throughput plus the sub-flow genealogy.

    ``columns`` are in id order, which is also the order of their first
    buckets, since ids are given out in creation order."""

    bucket_ms: int
    duration_ms: int
    columns: List[SubflowColumn]
    subflow_genealogy: List[SubflowRecord]

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

    @cached_property
    def rows(self) -> List[ThroughputBucket]:
        """The rows, sorted by (bucket, sub-flow id), built on first use."""
        bucket_us = self.bucket_ms * US_PER_MS
        cells = {c.subflow_id: list(c.cells(bucket_us)) for c in self.columns}
        return [
            ThroughputBucket(
                bucket * self.bucket_ms, c.subflow_id, *cells[c.subflow_id][bucket - c.first]
            )
            for lo, hi, active in self._stretches()
            for bucket in range(lo, hi)
            for c in active
        ]


class _RowBodies(dict):
    """A sub-flow's CSV rows after their bucket start, by cell
    (``SubflowColumn.cells``), each formatted once."""

    def __init__(self, column: SubflowColumn, bucket_ms: int) -> None:
        super().__init__()
        self.middle = f",{column.subflow_id},{column.pair},"
        self.bucket_ms = bucket_ms

    def __missing__(self, cell: Tuple[int, bool, bool]) -> str:
        nbytes, low_prio, alive = cell
        throughput_bps = nbytes * 8 * 1000 // self.bucket_ms
        body = self[cell] = (
            f"{self.middle}{nbytes},{throughput_bps},{int(low_prio)},{int(alive)}\n"
        )
        return body


def emit_csv(report: TimelineReport, out: Union[str, Path, IO[str]]) -> None:
    """Write a report as CSV: one row per (bucket, sub-flow alive in it),
    sorted by (bucket_start_ms, subflow_id), plus a genealogy footer in
    comment lines. The rows are written straight from the report's columns,
    a stretch of buckets with the same sub-flows at a time."""
    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8", newline="") as handle:
            emit_csv(report, handle)
        return
    bucket_ms = report.bucket_ms
    bucket_us = bucket_ms * US_PER_MS
    bodies = {}
    for column in report.columns:
        body_of = _RowBodies(column, bucket_ms).__getitem__
        bodies[column.subflow_id] = list(map(body_of, column.cells(bucket_us)))
    parts = [CSV_HEADER + "\n"]
    for lo, hi, active in report._stretches():
        starts = list(map(str, range(lo * bucket_ms, hi * bucket_ms, bucket_ms)))
        pieces = []  # zipped, each bucket's (start, body) per sub-flow
        for column in active:
            pieces += (starts, bodies[column.subflow_id][lo - column.first : hi - column.first])
        parts += chain.from_iterable(zip(*pieces))
    for rec in report.subflow_genealogy:
        died = "-" if rec.died_ms is None else str(rec.died_ms)
        parts.append(
            f"# subflow {rec.subflow_id} pair={rec.pair} "
            f"created_ms={rec.created_ms} died_ms={died}\n"
        )
    out.write("".join(parts))
