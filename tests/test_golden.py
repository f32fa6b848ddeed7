"""Pinned outputs of the built-in and the benchmark's generated scenarios.

Each built-in's CSV at the default 1 s buckets must hash to the SHA-256
recorded here (the same digests ``perfbench/golden.json`` pins for the
benchmark). The seed-0 scenarios of the benchmark's generated workloads,
built by ``perfbench/workloads.py`` and run at their workload's bucket width,
must hash to the digests ``perfbench/golden.json`` pins for them. A change to
any timeline, however small, fails this test; a change meant to alter a
timeline has to update the digest on purpose.
"""

import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mpflow.scenario import (
    PPOS_ENV_VAR,
    builtin_scenario,
    emit_csv,
    parse_scenario,
    run_scenario,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"

GOLDEN_SHA256 = {
    "fig4": "2aeb31311b97c52c79f8e8487b04630b3cdd703b379743f9dc945702f60a264c",
    "fig5": "d3027cfd8a6b8516ed2e6c6bd14a486965bf9fe7345944df30afb29f4e57b6fb",
    "fig6_default": "1a5caec747161f6e12b4710b4571abc2b9c2da9789880e271e4ce5c92fcce420",
    "fig6_ppos": "b92c2c5c075d484ff84191eed64efa11ac9d9b4d843656c95dbe5f8c42c774d8",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_builtin_csv_matches_pinned_digest(name, monkeypatch):
    monkeypatch.delenv(PPOS_ENV_VAR, raising=False)
    buf = io.StringIO()
    emit_csv(run_scenario(builtin_scenario(name)), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == GOLDEN_SHA256[name]


def test_a_generated_mesh_writes_the_same_csv_under_any_hash_seed():
    # Pairs, addresses and their address family are dict and set keys, and
    # their hashes vary with PYTHONHASHSEED; no byte of a CSV may.
    doc = _load_workloads().mesh16_flaps(0).docs[0][1]
    program = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "from mpflow.scenario import emit_csv, parse_scenario, run_scenario\n"
        "emit_csv(run_scenario(parse_scenario(sys.stdin.read())), sys.stdout)\n"
    )
    outputs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        env.pop(PPOS_ENV_VAR, None)
        done = subprocess.run(
            [sys.executable, "-c", program], input=doc, capture_output=True, text=True,
            env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] and outputs[0].count("\n") > 100


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["mesh16_flaps", "prio_churn_fine"])
def test_generated_seed0_csvs_match_the_benchmark_digests(workload, monkeypatch):
    monkeypatch.delenv(PPOS_ENV_VAR, raising=False)
    pinned = json.loads((PERFBENCH / "golden.json").read_text())[workload]["0"]
    spec = getattr(_load_workloads(), workload)(0)
    digests = {}
    for name, doc in spec.docs:
        buf = io.StringIO()
        emit_csv(run_scenario(parse_scenario(doc), bucket_ms=spec.bucket_ms), buf)
        digests[name] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digests == pinned
