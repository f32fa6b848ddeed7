"""``scripts/perf_ab.py`` on canned benchmark output: it reads each run's
last line and summarizes the pairs by the metrics' directions, running no
benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "perf_ab.py"


def load_script():
    spec = importlib.util.spec_from_file_location("perf_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stdout(sim_s_per_s, run_s):
    """What ``perfbench/run.py --trace 0`` prints: lines of text, then its
    result as one JSON line."""
    result = {
        "correct": True,
        "attempted": 40,
        "failed": 0,
        "metrics": {
            "sim_s_per_s": {"value": sim_s_per_s, "unit": "s/s"},
            "run_s.p50": {"value": run_s, "unit": "s"},
        },
    }
    return f"mesh16_flaps run_s.p50 = {run_s} s (n=40)\n{json.dumps(result)}\n"


def test_a_result_is_the_last_line_of_the_output():
    perf_ab = load_script()
    assert perf_ab.result_of(stdout(7000.0, 0.0014))["metrics"]["sim_s_per_s"]["value"] == 7000.0
    with pytest.raises(ValueError):
        perf_ab.result_of("\n")


def test_pairs_are_summarized_by_each_metric_s_direction():
    perf_ab = load_script()
    runs = [((6600, 0.00150), (7800, 0.00125)), ((6900, 0.00145), (7700, 0.00126)),
            ((6600, 0.00148), (8000, 0.00150)), ((6500, 0.00151), (6400, 0.00124))]
    pairs = [(perf_ab.result_of(stdout(*b)), perf_ab.result_of(stdout(*h))) for b, h in runs]
    better = {"run_s.p50": "lower", "sim_s_per_s": "higher", "setup_s": "lower"}
    rows = {row.name: row for row in perf_ab.summarize(pairs, better)}
    assert sorted(rows) == ["run_s.p50", "sim_s_per_s"]  # setup_s is in no result
    speed = rows["sim_s_per_s"]
    assert (speed.base, speed.head, speed.wins, speed.pairs, speed.clear_wins) == (
        6600, 7750, 3, 4, 3
    )
    assert speed.ratio == pytest.approx(7750 / 6600)
    assert speed.spread == pytest.approx(6825 - 6525)  # the base's quartiles
    time = rows["run_s.p50"]
    assert (time.base, time.head, time.wins) == (0.001490, 0.001255, 3)
    table = perf_ab.format_rows("mesh16_flaps", perf_ab.summarize(pairs, better))
    assert table.splitlines()[2].split() == [
        "mesh16_flaps", "sim_s_per_s", "6600", "7750", "1.174", "300", "3/4", "3/4"
    ]


def test_a_pair_won_by_no_more_than_the_base_s_spread_is_not_a_clear_win():
    perf_ab = load_script()
    # The base's quartiles are 6,925 and 7,175: only the gains of 300 and
    # 251 are above the spread of 250; 250 itself and 50 are not, in
    # either direction.
    base = (7000, 7100, 6900, 7200)
    for direction, sign in (("higher", 1), ("lower", -1)):
        heads = [b + sign * gain for b, gain in zip(base, (300, 250, 50, 251))]
        pairs = [(perf_ab.result_of(stdout(b, 0.001)), perf_ab.result_of(stdout(h, 0.001)))
                 for b, h in zip(base, heads)]
        (row,) = perf_ab.summarize(pairs, {"sim_s_per_s": direction})
        assert row.spread == pytest.approx(250)
        assert (row.wins, row.clear_wins) == (4, 2)


def test_the_directions_come_from_the_benchmark_declaration():
    assert load_script().directions() == {
        "run_s.p50": "lower", "sim_s_per_s": "higher", "setup_s": "lower", "peak_rss_mb": "lower"
    }


def test_seconds_default_to_the_benchmark_s_run_length(monkeypatch, tmp_path):
    perf_ab = load_script()
    canned = tmp_path / "BENCHMARK.json"
    canned.write_text(json.dumps({"run_seconds": 7, "workloads": [], "end_to_end": []}))
    read = perf_ab.run_seconds
    assert read(canned) == 7.0
    seconds = []

    def canned_run(checkout, workload, args):
        seconds.append(args.seconds)
        return perf_ab.result_of(stdout(7_000, 0.001))

    monkeypatch.setattr(perf_ab, "run_bench", canned_run)
    monkeypatch.setattr(perf_ab, "executed_lines", lambda checkout, workload, seed: 1)
    monkeypatch.setattr(perf_ab, "run_seconds", lambda: read(canned))
    perf_ab.main([str(tmp_path), "--pairs", "1"])
    perf_ab.main([str(tmp_path), "--pairs", "1", "--seconds", "4"])
    assert seconds == [7.0, 7.0, 4.0, 4.0]


def test_all_runs_the_pairs_of_each_declared_workload_and_prints_a_block_each(
    monkeypatch, capsys, tmp_path
):
    perf_ab = load_script()
    assert perf_ab.workloads() == ["paper_figs", "mesh16_flaps", "prio_churn_fine"]
    speeds = {"paper_figs": (150_000, 151_000), "mesh16_flaps": (7_000, 6_900),
              "prio_churn_fine": (7_000, 7_500)}
    runs = []

    def canned_run(checkout, workload, args):
        side = int(checkout == perf_ab.HERE)
        runs.append((workload, side))
        return perf_ab.result_of(stdout(speeds[workload][side], 0.001))

    counted = []

    def canned_count(checkout, workload, seed):
        counted.append((workload, int(checkout == perf_ab.HERE), seed))
        return 1_000 + 10 * len(counted)

    monkeypatch.setattr(perf_ab, "run_bench", canned_run)
    monkeypatch.setattr(perf_ab, "executed_lines", canned_count)
    assert perf_ab.main([str(tmp_path), "--workload", "all", "--pairs", "2", "--seed", "3"]) == 0
    # each workload in turn, the base first in even pairs and last in odd ones
    assert runs == [(name, side) for name in speeds for side in (0, 1, 1, 0)]
    *blocks, executed, lines = capsys.readouterr().out.split("\n\n")
    assert lines.startswith("src/mpflow/*.py lines: 0 -> ")  # tmp_path holds no source
    # after the tables, the lines each workload executes on each side, at the pairs' seed
    assert counted == [(name, side, 3) for name in speeds for side in (0, 1)]
    title, header, *rows = executed.strip().splitlines()
    assert title == "executed src/mpflow lines, one pass at seed 3"
    assert header.split() == ["workload", "base", "head", "change", "ratio"]
    assert [row.split() for row in rows] == [
        ["paper_figs", "1010", "1020", "+10", "1.0099"],
        ["mesh16_flaps", "1030", "1040", "+10", "1.0097"],
        ["prio_churn_fine", "1050", "1060", "+10", "1.0095"],
    ]
    assert len(blocks) == 3
    for block, (name, (base, head)) in zip(blocks, speeds.items()):
        header, *rows = block.strip().splitlines()
        assert header.split()[:2] == ["workload", "metric"]
        assert {row.split()[0] for row in rows} == {name}
        (speed,) = [row.split() for row in rows if row.split()[1] == "sim_s_per_s"]
        assert speed[2:4] == [f"{base:g}", f"{head:g}"]
        assert speed[-2:] == (["2/2", "2/2"] if head > base else ["0/2", "0/2"])


def test_the_net_line_change_of_the_source_follows_the_tables(monkeypatch, capsys, tmp_path):
    perf_ab = load_script()
    trees = {
        "base": {"a.py": "x\n" * 10, "b.py": "y\n" * 5, "notes.txt": "not counted\n"},
        "head": {"a.py": "x\n" * 12, "c.py": "z\n"},
    }
    for tree, files in trees.items():
        (tmp_path / tree / "src" / "mpflow").mkdir(parents=True)
        for name, text in files.items():
            (tmp_path / tree / "src" / "mpflow" / name).write_text(text)
    base, head = tmp_path / "base", tmp_path / "head"
    assert (perf_ab.src_lines(base), perf_ab.src_lines(head)) == (15, 13)
    monkeypatch.setattr(perf_ab, "HERE", head)
    monkeypatch.setattr(
        perf_ab, "run_bench", lambda checkout, workload, args: perf_ab.result_of(stdout(7_000, 0.001))
    )
    monkeypatch.setattr(perf_ab, "executed_lines", lambda checkout, workload, seed: 1)
    assert perf_ab.main([str(base), "--pairs", "1"]) == 0
    table, _, lines = capsys.readouterr().out.split("\n\n")
    assert table.splitlines()[0].split()[:2] == ["workload", "metric"]
    assert lines == "src/mpflow/*.py lines: 15 -> 13 (-2)\n"


def test_the_executed_lines_of_a_pass_are_counted_in_the_checkout_and_repeat():
    """The count runs one pass of the workload in the checkout named, with
    that checkout's ``perfbench`` and ``src``, and counts only the lines of
    its ``src/mpflow``: two counts agree, and the paper figures' pass, 400
    simulated seconds, runs some thousands of them."""
    perf_ab = load_script()
    first, second = (perf_ab.executed_lines(perf_ab.HERE, "paper_figs", 0) for _ in range(2))
    assert first == second
    assert 1_000 < first < 1_000_000
