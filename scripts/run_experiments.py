#!/usr/bin/env python3
"""Run every built-in scenario and write one CSV timeline per scenario.

Usage:
    python3 scripts/run_experiments.py [output-dir]

Also prints a compact per-phase summary (which sub-flows carried data in
each second) and each sub-flow's pair, birth and death, read from the
report's columns, so a run can be eyeballed without plotting. Feed the
CSVs to your plotting tool of choice for the throughput-vs-time figures.
"""

import sys
from pathlib import Path

from mpflow.scenario import (
    BUILTIN_DOCS,
    BUILTIN_SUMMARIES,
    builtin_scenario,
    emit_csv,
    run_scenario,
)


def carrier_phases(report):
    """Collapse the timeline into (start_s, end_s, carrying sub-flow ids):
    the starts of the first and the last bucket of each phase, in seconds,
    from each column's bytes per bucket (``TimelineReport.acked``)."""
    carriers = {}
    for column in report.columns:
        first, acked = report.acked(column)
        for bucket, nbytes in enumerate(acked, first):
            ids = carriers.setdefault(bucket, set())
            if nbytes > 0:
                ids.add(column.subflow_id)
    phases = []
    for bucket in sorted(carriers):
        ids = tuple(sorted(carriers[bucket]))
        start_s = bucket * report.bucket_ms / 1000
        if phases and phases[-1][2] == ids:
            phases[-1] = (phases[-1][0], start_s, ids)
        else:
            phases.append((start_s, start_s, ids))
    return phases


def main() -> int:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted(BUILTIN_DOCS):
        report = run_scenario(builtin_scenario(name))
        target = out_dir / f"{name}.csv"
        emit_csv(report, target)
        print(f"{name}: {BUILTIN_SUMMARIES[name]}")
        print(f"  wrote {target}")
        for start, end, carriers in carrier_phases(report):
            label = ",".join(map(str, carriers)) if carriers else "-"
            print(f"  [{start:3g}s..{end:3g}s] carrying: {label}")
        for column in report.columns:
            died = "-" if column.died_ms is None else f"{column.died_ms / 1000:.1f}s"
            print(
                f"  subflow {column.subflow_id} on {column.pair}: "
                f"created {column.created_ms / 1000:.1f}s, died {died}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
