#!/usr/bin/env python3
"""mpflow benchmark: closed-loop scenario runs, golden-checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed <n>] [--seconds <s>]

One process with one thread is the only client: it starts each scenario
run only after the previous one has finished and its CSV has been written
(to memory). Workloads: paper_figs, mesh16_flaps, prio_churn_fine (see
perfbench/README.md for why each exists and what it should move).

--trace 0 measures the end-to-end metrics with tracing off, as CPU seconds
rescaled by a co-running reference workload to nominal host speed (see
reference.py). --trace 1 runs alternating untraced and traced passes over
the workload and reports the per-layer metrics, not rescaled, plus the
layer microbenchmarks. Either way every CSV is checked: against its pinned
SHA-256 where one exists, otherwise against its own first run, and every row
against its link's capacity. The last line of standard output is one JSON
object; the exit code is non-zero if any run failed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import micro
import reference
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
OUT_DIR = workloads.ROOT / ".perfbench"
GOLDEN = json.loads((HERE / "golden.json").read_text())
SETUP_PROBES = 5
MIN_PASSES = 2
MSS = 1460


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- #
# output checks


def capacity_error(scenario, bucket_ms: int, csv_text: str) -> Optional[str]:
    """A row carrying more than its link can serialize in one bucket.

    Acks come back spaced by the segment serialization time, so a bucket
    holds at most ``bucket // serialization + 1`` segments of one sub-flow.
    """
    segments_by_pair = {}
    for link in scenario.links:
        serialization_us = MSS * 8 * 1_000_000 // link.bandwidth_bps
        segments_by_pair[str(link.pair)] = bucket_ms * 1000 // serialization_us + 1
    for line in io.StringIO(csv_text):
        if line.startswith(("#", "bucket_start_ms")):
            continue
        start, subflow, pair, acked, throughput_bps = line.split(",")[:5]
        if int(acked) > segments_by_pair[pair] * MSS:
            return (
                f"bucket {start} sub-flow {subflow}: {throughput_bps} bps is more than "
                f"link {pair} can carry"
            )
    return None


class Checker:
    """Compares every CSV with its pinned digest, or with its first run."""

    def __init__(self, workload: str, seed: int, bucket_ms: int, scenarios: Dict) -> None:
        pinned = GOLDEN[workload]
        self.pinned = pinned.get(str(seed)) or pinned.get("any") or {}
        self.bucket_ms = bucket_ms
        self.scenarios = scenarios
        self.first: Dict[str, str] = {}

    def error(self, name: str, csv_text: str) -> Optional[str]:
        digest = hashlib.sha256(csv_text.encode()).hexdigest()
        if name in self.pinned and digest != self.pinned[name]:
            return f"{name}: CSV sha256 {digest[:12]} differs from pinned {self.pinned[name][:12]}"
        if name not in self.first:
            self.first[name] = digest
            return capacity_error(self.scenarios[name], self.bucket_ms, csv_text)
        if digest != self.first[name]:
            return f"{name}: CSV differs from the first run of the same input"
        return None


def run_once(mp, scenario, bucket_ms: int) -> Tuple[float, str]:
    """One scenario run; returns the CPU seconds from run_scenario until its
    CSV is written, and the CSV. Checks stay outside that interval."""
    t0 = time.process_time()
    report = mp.run_scenario(scenario, bucket_ms=bucket_ms)
    buf = io.StringIO()
    mp.emit_csv(report, buf)
    return time.process_time() - t0, buf.getvalue()


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, error: Optional[str]) -> None:
        self.attempted += 1
        if error:
            self.failures.append(error)
            print(f"FAILED: {error}", file=sys.stderr)


def checked_run(mp, checker: Checker, tally: Tally, name: str, scenario):
    """Run and check one scenario; returns its CPU seconds from run_once, or
    None if it failed."""
    try:
        seconds, csv_text = run_once(mp, scenario, checker.bucket_ms)
    except Exception:
        tally.record(f"{name}: raised\n{traceback.format_exc()}")
        return None
    error = checker.error(name, csv_text)
    tally.record(error)
    return None if error else seconds


def more_passes(passes: int, start: float, seconds: float) -> bool:
    """Whole passes only, so every scenario is equally represented: start
    another while it should still end within ``seconds``, and always run at
    least MIN_PASSES."""
    elapsed = time.perf_counter() - start
    return passes < MIN_PASSES or elapsed + elapsed / passes <= seconds


# ---------------------------------------------------------------------- #
# end-to-end metrics (--trace 0)


def probe_setup(workload: str, seed: int) -> float:
    """CPU seconds of one set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=workloads.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_cpu_s"]


def end_to_end(args, mp, spec) -> Dict:
    """Closed loop under the speedometer; times are CPU seconds rescaled to
    nominal host speed (see reference.py)."""
    scenarios = {name: mp.parse_scenario(doc) for name, doc in spec.docs}
    checker = Checker(args.workload, args.seed, spec.bucket_ms, scenarios)
    tally = Tally()
    cpu_s: List[float] = []
    rescaled_s: Dict[str, List[float]] = {name: [] for name in scenarios}
    setups: List[Tuple[float, float]] = []
    sim_s = 0.0
    passes = 0
    with reference.Speedometer() as speed:

        def rescaled_setup() -> Tuple[float, float]:
            before = speed.read()
            setup = probe_setup(args.workload, args.seed)
            return setup, speed.rescale(setup, before)

        probe_setup(args.workload, args.seed)  # warm-up: fills the bytecode cache
        start = time.perf_counter()
        while more_passes(passes, start, args.seconds):
            for name, scenario in scenarios.items():
                before = speed.read()
                spent = checked_run(mp, checker, tally, name, scenario)
                if spent is not None:
                    cpu_s.append(spent)
                    rescaled_s[name].append(speed.rescale(spent, before))
                    sim_s += scenario.duration_ms / 1000
            setups.append(rescaled_setup())
            passes += 1
        while len(setups) < SETUP_PROBES:
            setups.append(rescaled_setup())
    if len(cpu_s) < 2:
        raise SystemExit(f"perfbench: {len(tally.failures)} of {tally.attempted} runs failed")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    medians = [statistics.median(runs) for runs in rescaled_s.values() if runs]
    total_rescaled = sum(sum(runs) for runs in rescaled_s.values())
    metrics = {
        "run_s.p50": (statistics.geometric_mean(medians), "s", len(cpu_s)),
        "sim_s_per_s": (sim_s / total_rescaled, "s/s", len(cpu_s)),
        "setup_s": (statistics.median(rescaled for _, rescaled in setups), "s", len(setups)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    print(
        f"{args.workload} CPU seconds before rescaling: run p50 = {statistics.median(cpu_s):.6g} s, "
        f"run p90 = {statistics.quantiles(cpu_s, n=10)[8]:.6g} s (n={len(cpu_s)}), "
        f"setup p50 = {statistics.median(setup for setup, _ in setups):.6g} s (n={len(setups)}), "
        f"host speed = {total_rescaled / sum(cpu_s):.3f} of nominal"
    )
    return finish(args, tally, metrics)


# ---------------------------------------------------------------------- #
# per-layer metrics (--trace 1)


def traced_pass(mp, checker: Checker, tally: Tally, spec):
    """One traced pass over the workload; returns the tracer and the CPU
    seconds of its runs, timed as in run_once."""
    cpu_s = 0.0
    with Tracer(mp) as tracer:
        for run_id, (name, doc) in enumerate(spec.docs):
            tracer.begin_run(run_id)
            t0 = time.perf_counter_ns()
            scenario = mp.parse_scenario(doc)
            tracer.span("parse_scenario", run_id, t0, time.perf_counter_ns())
            try:
                cpu0 = time.process_time()
                t0 = time.perf_counter_ns()
                report = mp.run_scenario(scenario, bucket_ms=spec.bucket_ms)
                t1 = time.perf_counter_ns()
                buf = io.StringIO()
                mp.emit_csv(report, buf)
                t2 = time.perf_counter_ns()
                cpu_s += time.process_time() - cpu0
            except Exception:
                tally.record(f"{name}: raised\n{traceback.format_exc()}")
                continue
            tracer.span("emit_csv", run_id, t1, t2)
            tracer.span("scenario_run", run_id, t0, t2, scenario=name)
            tracer.counts["scenario.csv_rows"] += len(report.rows)
            tally.record(checker.error(name, buf.getvalue()))
    return tracer, cpu_s


def per_layer(args, mp, spec) -> Dict:
    scenarios = {name: mp.parse_scenario(doc) for name, doc in spec.docs}
    checker = Checker(args.workload, args.seed, spec.bucket_ms, scenarios)
    tally = Tally()
    untraced_cpu_s: List[float] = []
    traced_cpu_s: List[float] = []
    tracers = []
    start = time.perf_counter()
    while more_passes(len(tracers), start, args.seconds):
        cpu_s = 0.0
        for name, scenario in scenarios.items():
            cpu_s += checked_run(mp, checker, tally, name, scenario) or 0.0
        untraced_cpu_s.append(cpu_s)
        tracer, cpu_s = traced_pass(mp, checker, tally, spec)
        tracers.append(tracer)
        traced_cpu_s.append(cpu_s)

    counts = tracers[0].exact_counts()
    for n, tracer in enumerate(tracers[1:], start=2):
        if tracer.exact_counts() != counts:
            tally.record(f"traced pass {n} counts differ from pass 1: {tracer.exact_counts()} vs {counts}")

    def med(fn):
        return statistics.median(fn(t) for t in tracers)

    untraced = statistics.median(untraced_cpu_s)
    if not untraced:
        raise SystemExit(f"perfbench: {len(tally.failures)} of {tally.attempted} runs failed")
    traced = statistics.median(traced_cpu_s)
    options = tracers[0].delivered_options or [
        mp.MpPrioOption(backup_flag=True),
        mp.MpPrioOption(backup_flag=False, addr_id=7),
    ]
    selects = counts["scheduler.select_calls"]
    if not selects or not counts["simnet.events"]:
        raise SystemExit(f"perfbench: the traced pass made no select calls or no events: {counts}")

    def plus_one(key: str):
        """A count that some workload leaves at 0, reported as count + 1 so
        that no metric is 0."""
        return (counts[key] + 1, "count_plus_1")

    metrics = {
        "scheduler.select_calls": (selects, "count"),
        "scheduler.select_ms": (med(lambda t: t.busy_ns["select"] / 1e6), "ms"),
        "scheduler.chosen_ratio": (counts["scheduler.chosen"] / selects, "ratio"),
    }
    for reason in mp.ChoiceReason:
        key = f"scheduler.decisions.{reason.name.lower()}"
        metrics[key] = plus_one(key)
    metrics.update(
        {
            "model.subflow_by_id_calls": (counts["model.subflow_by_id_calls"], "count"),
            "model.pair_calls": (counts["model.pair_calls"], "count"),
            "model.subflows_total": (counts["model.subflows_total"], "count"),
            "model.open_subflow_calls": plus_one("model.open_subflow_calls"),
            "simnet.events": (counts["simnet.events"], "count"),
            "simnet.heap_pushes": (counts["simnet.heap_pushes"], "count"),
            "simnet.us_per_event": (untraced * 1e6 / counts["simnet.events"], "us"),
            "simnet.events_per_s": (counts["simnet.events"] / untraced, "1/s"),
            "simnet.run_self_ms": (med(lambda t: t.run_self_ms()), "ms"),
            "scenario.parse_ms": (med(lambda t: t.span_ms("parse_scenario")), "ms"),
            "scenario.emit_csv_ms": (med(lambda t: t.span_ms("emit_csv")), "ms"),
            "scenario.csv_rows": (counts["scenario.csv_rows"], "count"),
            "sockopt.local_prio_calls": plus_one("sockopt.local_prio_calls"),
            "sockopt.remote_prio_applied": plus_one("sockopt.remote_prio_applied"),
            "sockopt.us": (med(lambda t: t.busy_ns["sockopt"] / 1e3) + 1, "us_plus_1"),
            "wire.options": (len(tracers[0].delivered_options) + 1, "count_plus_1"),
            "wire.roundtrip_ns": (micro.wire_roundtrip_ns(mp, options), "ns"),
            "trace.overhead_ratio": (traced / untraced - 1, "ratio"),
        }
    )
    metrics.update({name: (value, "ns") for name, value in micro.select_ns(mp).items()})
    metrics.update({name: (value, "ns") for name, value in micro.wire_forms_ns(mp).items()})

    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "untraced_pass_cpu_s": untraced_cpu_s,
                "traced_pass_cpu_s": traced_cpu_s,
                "passes": [
                    {"counts": dict(t.counts), "busy_ns": dict(t.busy_ns), "spans": t.spans}
                    for t in tracers
                ],
            }
        )
    )
    print(f"trace written to {trace_file.relative_to(workloads.ROOT)}")
    samples = len(tracers)
    return finish(args, tally, {k: (v, unit, samples) for k, (v, unit) in metrics.items()})


# ---------------------------------------------------------------------- #


def finish(args, tally: Tally, metrics: Dict) -> Dict:
    for name, (value, unit, samples) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit} (n={samples})")
    failed = len(tally.failures)
    print(f"{args.workload} error_rate = {failed / max(tally.attempted, 1):.6g} ({failed}/{tally.attempted})")
    return {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            print(f"== {workload} trace={trace}", flush=True)
            proc = subprocess.run(cmd, cwd=workloads.ROOT, timeout=900)
            status = status or proc.returncode
    return status


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    mp = workloads.import_mpflow()
    spec = workloads.make(args.workload, args.seed, mp)
    result = (per_layer if args.trace else end_to_end)(args, mp, spec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
