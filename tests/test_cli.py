import pytest

from mpflow.cli import main
from mpflow.scenario import CSV_HEADER, builtin_scenario, format_scenario


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("fig4", "fig5", "fig6_default", "fig6_ppos"):
        assert name in out


def test_run_builtin_to_file(tmp_path):
    out = tmp_path / "report.csv"
    code = main(
        ["run", "--scenario", "fig6_ppos", "--duration-ms", "3000", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert any(line.startswith("# subflow") for line in lines)


def test_run_writes_to_stdout_by_default(capsys):
    assert main(["run", "--scenario", "fig6_default", "--duration-ms", "2000"]) == 0
    assert capsys.readouterr().out.startswith(CSV_HEADER)


def test_run_scenario_file(tmp_path, capsys):
    doc = format_scenario(builtin_scenario("fig6_ppos"))
    path = tmp_path / "custom.scn"
    path.write_text(doc)
    assert main(["run", "--scenario", str(path), "--duration-ms", "2000"]) == 0
    assert capsys.readouterr().out.startswith(CSV_HEADER)


def test_run_unknown_scenario_fails(capsys):
    assert main(["run", "--scenario", "nope"]) == 1
    assert "error" in capsys.readouterr().err


def test_validate_good_file(tmp_path, capsys):
    for name in ("fig4", "fig5", "fig6_default", "fig6_ppos"):
        path = tmp_path / f"{name}.scn"
        path.write_text(format_scenario(builtin_scenario(name)))
        assert main(["validate", str(path)]) == 0
        captured = capsys.readouterr()
        assert "ok:" in captured.out
        assert captured.err == ""  # no built-in link is too slow


def test_validate_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.scn"
    path.write_text("scenario x\nduration 1s\nat 1s link_down 1\n")
    assert main(["validate", str(path)]) == 1
    assert "invalid scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, prefix",
    [(["validate"], "invalid scenario"), (["run", "--scenario"], "error")],
    ids=["validate", "run"],
)
def test_a_superscript_digit_is_one_error_line(tmp_path, capsys, argv, prefix):
    # str.isdigit accepts "³", which int() rejects with a ValueError.
    path = tmp_path / "superscript.scn"
    path.write_text(
        "scenario s\nduration 2s\nlink 1 1mbps 10ms 10.0.0.1 10.0.1.1\n"
        "at 1s set_sub_prio ³ backup\n",
        encoding="utf-8",
    )
    assert main(argv + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{prefix}: line 4: bad sub-flow id '³'\n"
    assert captured.out == ""


def test_validate_rejects_a_topology_that_cannot_run(tmp_path, capsys):
    path = tmp_path / "split.scn"
    path.write_text(
        "scenario split\nduration 1s\n"
        "link 1 1mbps 100ms 10.0.0.1 10.0.1.1\n"
        "link 2 1mbps 100ms 10.0.0.2 10.0.2.1\n"
    )
    assert main(["validate", str(path)]) == 1
    assert "line 4: no link serves interface pair 10.0.0.1->10.0.2.1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, prefix",
    [(["validate"], "invalid scenario"), (["run", "--scenario"], "error")],
    ids=["validate", "run"],
)
def test_a_second_duration_line_is_one_error_line(tmp_path, capsys, argv, prefix):
    path = tmp_path / "twice.scn"
    path.write_text(
        "scenario twice\nduration 10s\nduration 3s\nlink 1 1mbps 10ms 10.0.0.1 10.0.1.1\n"
    )
    assert main(argv + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{prefix}: line 3: a second 'duration' line\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, prefix",
    [(["validate"], "invalid scenario"), (["run", "--scenario"], "error")],
    ids=["validate", "run"],
)
def test_a_zero_duration_line_is_one_error_line(tmp_path, capsys, argv, prefix):
    path = tmp_path / "zero.scn"
    path.write_text("scenario zero\nduration 0s\nlink 1 1mbps 10ms 10.0.0.1 10.0.1.1\n")
    assert main(argv + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"{prefix}: line 2: duration must be positive\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_link_that_would_stop_the_clock_is_rejected_with_its_line(tmp_path, capsys, command):
    # At 20 Gbps a 1,460 B segment serializes in under 1 µs, so with 0 ms
    # delay each ack would come back, and send the next segment, in the µs
    # its own segment was sent: the run would never get past t=0.
    path = tmp_path / "fast.scn"
    path.write_text("scenario fast\nduration 1000ms\nlink 1 20000mbps 0ms 10.0.0.1 10.0.1.1\n")
    args = ["validate", str(path)] if command == "validate" else ["run", "--scenario", str(path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "line 3: link 1: at 0 ms delay, bandwidth must be <= 11680000000 bps" in err


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/file.scn"]) == 1
    assert "error" in capsys.readouterr().err


def test_run_with_a_dead_set_sub_prio_target_writes_the_csv(tmp_path, capsys):
    path = tmp_path / "dead.scn"
    path.write_text(
        "scenario dead_target\nduration 8s\n"
        "link 1 1mbps 100ms 10.0.0.1 10.0.1.1\n"
        "link 2 1mbps 100ms 10.0.0.1 10.0.2.1\n"
        "at 1s link_down 2\n"
        "at 5s set_sub_prio 2 99 backup\n"
    )
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    out = tmp_path / "report.csv"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    assert out.read_text().startswith(CSV_HEADER)
    assert capsys.readouterr().err.splitlines() == [
        "warning: at 5000 ms set_sub_prio: no alive sub-flow 2; skipped",
        "warning: at 5000 ms set_sub_prio: no alive sub-flow 99; skipped",
    ]


def test_run_to_a_missing_directory_reports_an_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.csv"
    code = main(["run", "--scenario", "fig6_ppos", "--duration-ms", "1000", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_run_a_directory_as_scenario_reports_an_error(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_run_zero_duration_is_an_error(capsys):
    assert main(["run", "--scenario", "fig4", "--duration-ms", "0"]) == 1
    assert "duration must be positive" in capsys.readouterr().err


def test_validate_warns_about_actions_that_never_run(tmp_path, capsys):
    path = tmp_path / "late.scn"
    path.write_text(
        "scenario late\nduration 10s\n"
        "link 1 1mbps 100ms 10.0.0.1 10.0.1.1\n"
        "at 5s link_down 1\n"
        "at 10s link_up 1\n"
        "at 12s set_sub_prio 1 backup\n"
    )
    assert main(["validate", str(path)]) == 0
    captured = capsys.readouterr()
    assert "ok:" in captured.out
    assert captured.err.splitlines() == [
        "warning: at 10000ms link_up 1 is at or after duration 10000ms and never runs",
        "warning: at 12000ms set_sub_prio 1 backup is at or after duration 10000ms "
        "and never runs",
    ]


def test_run_signals_a_flip_of_a_sub_flow_id_past_255(tmp_path, capsys):
    # Every outage of link 2 kills its sub-flow and its successor takes the
    # next id; after 300 of them enable_ppos 1 flips sub-flow 302 on link 2.
    # Its MP_PRIO travels on that sub-flow and names no id, so the id need
    # not fit the option's one-byte addr_id.
    flaps = "".join(
        f"at {5 * k + 1}s link_down 2\nat {5 * k + 4}s link_up 2\n" for k in range(300)
    )
    path = tmp_path / "flaps.scn"
    path.write_text(
        "scenario flaps\nduration 1510s\n"
        "link 1 100kbps 100ms 10.0.0.1 10.0.1.1\n"
        "link 2 1mbps 100ms 10.0.0.1 10.0.2.1\n" + flaps + "at 1505s enable_ppos 1\n"
    )
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    out = tmp_path / "report.csv"
    assert main(["run", "--scenario", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    genealogy = [line for line in out.read_text().splitlines() if line.startswith("# subflow")]
    assert genealogy[-1] == (
        "# subflow 302 pair=10.0.0.1->10.0.2.1 created_ms=1499988 died_ms=-"
    )


def test_validate_warns_about_a_link_too_slow_to_ack_its_first_segment(tmp_path, capsys):
    # 1,460 B at 10 kbps take 1,168 ms, plus 2 x 150 ms: every sub-flow on
    # link 1 dies of its third timeout, at 800 ms, before its first ack. On
    # link 3 the first ack comes at 800 ms exactly, after the timeout runs.
    path = tmp_path / "slow.scn"
    path.write_text(
        "scenario slow\nduration 400s\n"
        "link 1 10kbps 150ms 10.0.0.1 10.0.1.1\n"
        "link 2 1mbps 10ms 10.0.0.1 10.0.2.1\n"
        "link 3 23360bps 150ms 10.0.0.1 10.0.3.1\n"
    )
    assert main(["validate", str(path)]) == 0
    captured = capsys.readouterr()
    assert "ok:" in captured.out
    assert captured.err.splitlines() == [
        f"warning: link {link_id} acks a first segment after {ack_ms}ms, no earlier than the "
        "800ms at which a new sub-flow dies of timeouts, so every sub-flow on it dies before "
        "carrying data"
        for link_id, ack_ms in ((1, 1468), (3, 800))
    ]


def test_validate_warns_about_a_link_up_on_a_link_that_is_up(tmp_path, capsys):
    # Both links are up at 7,410 ms. Restarting link 1 drops its window in
    # flight, nothing retransmits it, and sub-flow 1 dies of three timeouts
    # at 8,813 ms although its link never went down.
    path = tmp_path / "relink.scn"
    path.write_text(
        "scenario relink\nduration 11s\n"
        "link 1 2126kbps 7ms 10.1.0.1 10.2.0.1\n"
        "link 2 498kbps 50ms 10.1.0.1 10.2.1.1\n"
        "at 2s link_down 2\n"
        "at 3s link_up 2\n"
        "at 7410ms link_up 2 1\n"
        "at 11s link_up 1\n"
    )
    assert main(["validate", str(path)]) == 0
    captured = capsys.readouterr()
    assert "ok:" in captured.out
    assert captured.err.splitlines() == [
        "warning: at 11000ms link_up 1 is at or after duration 11000ms and never runs",
    ] + [
        f"warning: at 7410ms link_up {link_id}: link {link_id} is already up; "
        "the run drops its in-flight segments"
        for link_id in (2, 1)
    ]


def test_validate_warns_about_set_sub_prio_ids_that_no_run_creates(tmp_path, capsys):
    # Two links, one link_down target and no restart of a link that is up:
    # no run creates an id above 3. With a link too slow to ack a first
    # segment, sub-flows on it die and come back without bound: no warning.
    doc = (
        "scenario ids\nduration 10s\n"
        "link 1 1mbps 100ms 10.0.0.1 10.0.1.1\n"
        "link 2 1mbps 100ms 10.0.0.1 10.0.2.1\n"
        "at 1s set_sub_prio 2 4 backup\n"
        "at 2s link_down 1\n"
        "at 5s link_up 1\n"
        "at 6s set_sub_prio 3 active\n"
        "at 12s set_sub_prio 9 active\n"
    )
    path = tmp_path / "ids.scn"
    path.write_text(doc)
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: at 12000ms set_sub_prio 9 active is at or after duration 10000ms "
        "and never runs",
        "warning: at 1000ms set_sub_prio 2 4 backup: no run creates sub-flow 4, "
        "since sub-flow ids go up to 3",
    ]
    path.write_text(doc.replace("link 2 1mbps", "link 2 10kbps"))
    assert main(["validate", str(path)]) == 0
    (_, slow) = capsys.readouterr().err.splitlines()
    assert slow.startswith("warning: link 2 acks a first segment after ")


@pytest.mark.parametrize("argv", [["validate"], ["run", "--scenario"]])
def test_a_non_utf8_scenario_file_is_one_error_line(tmp_path, capsys, argv):
    path = tmp_path / "bad.scn"
    path.write_bytes(b"scenario x\nduration 1s\n\xff\xfe\n")
    assert main(argv + [str(path)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {path}: not a UTF-8 text file (")
