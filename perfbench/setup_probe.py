"""Time one set-up in a fresh interpreter and print it as JSON.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Set-up is everything before the first simulated event: importing
``mpflow``, generating and parsing the workload's scenario documents, and
``run_scenario`` up to the point where it starts the event loop (building
the connections and the ``Simulation``, and scheduling every action). The
probe calls the program's own ``run_scenario`` with ``Simulation.run``
replaced by a stub that returns at once, so the event loop never starts. It
reports the CPU seconds it took, which the caller rescales with its
speedometer.
"""

import json
import sys
import time

import workloads


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    built = []

    def first_event(sim) -> None:
        built.append(sim)

    t0 = time.process_time()
    mpflow = workloads.import_mpflow()
    mpflow.Simulation.run = first_event
    spec = workloads.make(workload, seed, mpflow)
    for _, doc in spec.docs:
        mpflow.run_scenario(mpflow.parse_scenario(doc), bucket_ms=spec.bucket_ms)
    elapsed = time.process_time() - t0
    if len(built) != len(spec.docs):
        raise SystemExit(f"set-up built {len(built)} simulations for {len(spec.docs)} scenarios")
    print(json.dumps({"setup_cpu_s": elapsed}))


if __name__ == "__main__":
    main()
