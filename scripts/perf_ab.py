#!/usr/bin/env python3
"""Compare the benchmark's end-to-end metrics of two checkouts, run in
alternating pairs.

Usage, from the root of this checkout:

    python3 scripts/perf_ab.py BASE_DIR [--workload W|all] [--pairs N]
                               [--seed S] [--seconds T]

BASE_DIR is another checkout of the repository, for example a
``git worktree`` or a ``git archive`` of the parent commit. Each pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in
BASE_DIR and once in this checkout, the base first in even pairs and last
in odd ones, so that a drift of the host's speed falls on both sides. T
defaults to the benchmark's own run length, ``run_seconds`` in
``BENCHMARK.json``. Per metric, it prints the median of each side, their
ratio (this checkout over the base), the spread between the quartiles of
the base's runs, the pairs that this checkout won, by the direction that
``BENCHMARK.json`` gives the metric, and those it won by more than that
spread. ``--workload all`` runs the pairs of each workload that
``BENCHMARK.json`` declares in turn, and prints a block of rows for each as
it is done, so one command shows both a claimed gain and that no other
workload lost. After the tables, it prints the lines of ``src/mpflow``
that one pass of each workload executes at seed S in BASE_DIR and in this
checkout, counted with ``sys.settrace`` over each scenario's
``run_scenario`` and ``emit_csv``, which the benchmark times: an exact
count, which two runs repeat, though it sees no work done in C. Last, it
prints the line count of ``src/mpflow/*.py`` in both and the net change.
A run that exits non-zero or reports a failed scenario run stops the
script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Sequence, Tuple

HERE = Path(__file__).resolve().parent.parent


class Row(NamedTuple):
    """One metric over the pairs."""

    name: str
    base: float  # median
    head: float  # median
    spread: float  # between the quartiles of the base's runs
    wins: int
    pairs: int
    clear_wins: int  # by more than the spread

    @property
    def ratio(self) -> float:
        return self.head / self.base if self.base else float("nan")


def result_of(stdout: str) -> Dict:
    """The JSON result that ``perfbench/run.py`` prints as its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("perfbench printed nothing")
    return json.loads(lines[-1])


BENCHMARK = HERE / "BENCHMARK.json"


def directions(benchmark: Path = BENCHMARK) -> Dict[str, str]:
    """``"higher"`` or ``"lower"`` by end-to-end metric name."""
    spec = json.loads(benchmark.read_text())
    return {metric["name"]: metric["better"] for metric in spec["end_to_end"]}


def workloads(benchmark: Path = BENCHMARK) -> List[str]:
    """The names of the declared workloads, in their order."""
    return [workload["name"] for workload in json.loads(benchmark.read_text())["workloads"]]


def run_seconds(benchmark: Path = BENCHMARK) -> float:
    """How long the benchmark runs each workload, in seconds."""
    return float(json.loads(benchmark.read_text())["run_seconds"])


def src_lines(checkout: Path) -> int:
    """The lines of ``src/mpflow/*.py`` in ``checkout``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in checkout.glob("src/mpflow/*.py"))


# Run in a checkout: one pass of a workload, counting each line executed in
# its src/mpflow over what perfbench times, run_scenario and emit_csv.
LINES_PROBE = r"""
import io, sys
from pathlib import Path
sys.path.insert(0, "perfbench")
import workloads
mp = workloads.import_mpflow()
spec = workloads.make(sys.argv[1], int(sys.argv[2]), mp)
scenarios = [mp.parse_scenario(doc) for _, doc in spec.docs]
package, count = str(Path(mp.__file__).parent) + "/", 0

def local(frame, event, arg):
    global count
    count += event == "line"
    return local

def on_call(frame, event, arg):
    return local if frame.f_code.co_filename.startswith(package) else None

sys.settrace(on_call)
for scenario in scenarios:
    mp.emit_csv(mp.run_scenario(scenario, bucket_ms=spec.bucket_ms), io.StringIO())
sys.settrace(None)
print(count)
"""


def executed_lines(checkout: Path, workload: str, seed: int) -> int:
    """The lines of ``src/mpflow`` that one pass of ``workload`` at ``seed``
    executes in ``checkout``."""
    cmd = [sys.executable, "-c", LINES_PROBE, workload, str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"perf_ab: counting executed lines failed in {checkout}:\n{proc.stderr}")
    return int(proc.stdout.split()[-1])


def format_lines(counts: Dict[str, Tuple[int, int]], seed: int) -> str:
    """A table of the executed lines by workload, from (base, head) counts."""
    lines = [f"executed src/mpflow lines, one pass at seed {seed}",
             f"{'workload':<16} {'base':>12} {'head':>12} {'change':>10} {'ratio':>7}"]
    for workload, (base, head) in counts.items():
        ratio = head / base if base else float("nan")
        lines.append(f"{workload:<16} {base:>12} {head:>12} {head - base:>+10} {ratio:>7.4f}")
    return "\n".join(lines)


def quartile_spread(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(pairs: Sequence[Tuple[Dict, Dict]], better: Dict[str, str]) -> List[Row]:
    """A row per metric of ``better`` that every result reports, from
    (base result, head result) pairs."""
    rows = []
    for name, direction in better.items():
        if not all(name in r["metrics"] for pair in pairs for r in pair):
            continue
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        head = [h["metrics"][name]["value"] for _, h in pairs]
        sign = 1 if direction == "higher" else -1
        gains = [sign * (h - b) for b, h in zip(base, head)]
        spread = quartile_spread(base)
        rows.append(
            Row(
                name, statistics.median(base), statistics.median(head), spread,
                sum(g > 0 for g in gains), len(pairs), sum(g > spread for g in gains),
            )
        )
    return rows


def format_rows(workload: str, rows: Sequence[Row]) -> str:
    lines = [f"{'workload':<16} {'metric':<12} {'base':>12} {'head':>12} {'ratio':>7} "
             f"{'base IQR':>10} wins by>IQR"]
    for row in rows:
        lines.append(
            f"{workload:<16} {row.name:<12} {row.base:>12.6g} {row.head:>12.6g} "
            f"{row.ratio:>7.3f} {row.spread:>10.4g} {row.wins}/{row.pairs} "
            f"{row.clear_wins}/{row.pairs}"
        )
    return "\n".join(lines)


def run_bench(checkout: Path, workload: str, args: argparse.Namespace) -> Dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
        str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"perf_ab: {' '.join(cmd)} failed in {checkout}:\n{proc.stderr}")
    result = result_of(proc.stdout)
    if result["failed"]:
        raise SystemExit(f"perf_ab: {result['failed']} runs failed in {checkout}")
    return result


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_dir", type=Path)
    parser.add_argument("--workload", default="mesh16_flaps")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    args = parser.parse_args(argv)
    checkouts = (args.base_dir, HERE)
    names = workloads() if args.workload == "all" else [args.workload]
    for n, workload in enumerate(names):
        if n:
            print()
        pairs = []
        for k in range(args.pairs):
            results = [{}, {}]
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                results[side] = run_bench(checkouts[side], workload, args)
            pairs.append((results[0], results[1]))
            print(f"{workload}: pair {k + 1}/{args.pairs} done", file=sys.stderr, flush=True)
        print(format_rows(workload, summarize(pairs, directions())), flush=True)
    counts = {
        workload: tuple(executed_lines(checkout, workload, args.seed) for checkout in checkouts)
        for workload in names
    }
    print(f"\n{format_lines(counts, args.seed)}")
    base, head = map(src_lines, checkouts)
    print(f"\nsrc/mpflow/*.py lines: {base} -> {head} ({head - base:+d})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
