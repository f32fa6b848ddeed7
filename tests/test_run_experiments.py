"""``scripts/run_experiments.py`` end to end: the CSVs it writes and the
per-phase summary it prints."""

import importlib.util
import io
import sys
from pathlib import Path

from mpflow.scenario import BUILTIN_DOCS, builtin_scenario, emit_csv, run_scenario

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_experiments_writes_every_builtin_and_its_phases(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MPFLOW_PRIMARY_PATH_ONLY", raising=False)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), str(tmp_path)])
    assert load_script().main() == 0
    printed = capsys.readouterr().out

    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        f"{name}.csv" for name in BUILTIN_DOCS
    )
    for name in BUILTIN_DOCS:
        buf = io.StringIO()
        emit_csv(run_scenario(builtin_scenario(name)), buf)
        assert (tmp_path / f"{name}.csv").read_text() == buf.getvalue(), name

    sections = {}
    for line in printed.splitlines():
        if not line.startswith(" "):
            name = line.split(":")[0]
        sections.setdefault(name, []).append(line)
    assert sorted(sections) == sorted(BUILTIN_DOCS)
    for name, lines in sections.items():
        assert any("] carrying: " in line for line in lines), name
    # fig4: once sub-flows 2 and 3 turn backup at 15 s, only 1 carries
    # until link 1 goes down at 35 s.
    assert "  [ 16s.. 34s] carrying: 1" in sections["fig4"]
    # fig4's genealogy, from the report's columns: link 1's sub-flow dies
    # in its outage and sub-flow 4 replaces it on the same pair.
    assert [line for line in sections["fig4"] if line.startswith("  subflow ")] == [
        "  subflow 1 on 10.0.0.1->10.0.1.1: created 0.0s, died 38.0s",
        "  subflow 2 on 10.0.0.1->10.0.2.1: created 0.0s, died 77.1s",
        "  subflow 3 on 10.0.0.1->10.0.3.1: created 0.0s, died 77.1s",
        "  subflow 4 on 10.0.0.1->10.0.1.1: created 56.0s, died -",
        "  subflow 5 on 10.0.0.1->10.0.2.1: created 95.1s, died -",
        "  subflow 6 on 10.0.0.1->10.0.3.1: created 95.1s, died -",
    ]
