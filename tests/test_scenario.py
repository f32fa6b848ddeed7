import io
import re

import pytest

from mpflow.model import MpflowError, ValidationError
from mpflow.scenario import (
    BUILTIN_DOCS,
    CSV_HEADER,
    PPOS_ENV_VAR,
    Scenario,
    ScenarioAction,
    ScenarioSemanticError,
    ScenarioSyntaxError,
    builtin_scenario,
    emit_csv,
    format_scenario,
    parse_scenario,
    run_scenario,
)
from mpflow.simnet import LinkSpec, TimelineReport
from helpers import pair

THREE_LINKS = """\
link 1 1mbps 100ms 10.0.0.1 10.0.1.1
link 2 1mbps 100ms 10.0.0.1 10.0.2.1
link 3 1mbps 100ms 10.0.0.1 10.0.3.1
"""


def test_builtin_fig4_structure():
    scenario = builtin_scenario("fig4")
    assert scenario.name == "fig4"
    assert scenario.duration_ms == 100_000
    assert len(scenario.links) == 3
    assert all(link.bandwidth_bps == 1_000_000 for link in scenario.links)
    assert all(link.one_way_delay_ms == 100 for link in scenario.links)
    assert [a.at_ms for a in scenario.actions] == [15_000, 35_000, 55_000, 75_000, 95_000]
    assert [a.verb for a in scenario.actions] == [
        "set_sub_prio",
        "link_down",
        "link_up",
        "link_down",
        "link_up",
    ]
    first = scenario.actions[0]
    assert first.targets == (2, 3) and first.low_prio is True


def test_fig5_adds_backup_list_at_time_zero():
    scenario = builtin_scenario("fig5")
    assert scenario.actions[0].verb == "set_backup_list"
    assert scenario.actions[0].at_ms == 0
    assert scenario.actions[0].targets == (2, 3)
    assert scenario.actions[1:] == builtin_scenario("fig4").actions


def test_unknown_builtin_name():
    from mpflow.scenario import ScenarioError

    with pytest.raises(ScenarioError):
        builtin_scenario("fig7")


def test_empty_action_list_is_valid():
    scenario = parse_scenario("scenario steady\nduration 10s\n" + THREE_LINKS)
    assert scenario.actions == ()


def test_comments_and_blank_lines_ignored():
    doc = "# a comment\n\nscenario s\nduration 1s\n\n# another\nlink 1 1mbps 10ms 10.0.0.1 10.0.1.1\n"
    assert parse_scenario(doc).name == "s"


def test_unknown_action_reports_line_number():
    doc = "scenario s\nduration 1s\nlink 1 1mbps 10ms 10.0.0.1 10.0.1.1\nat 1s explode 1\n"
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario(doc)
    assert err.value.line == 4


def test_bad_time_suffix_rejected():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("scenario s\nduration 10\nlink 1 1mbps 10ms 10.0.0.1 10.0.1.1\n")


@pytest.mark.parametrize(
    "doc, line, message",
    [
        ("duration ²s\nlink 1 1mbps 10ms 10.0.0.1 10.0.1.1\n", 2, "bad time"),
        ("duration 2s\nlink 1 ²mbps 10ms 10.0.0.1 10.0.1.1\n", 3, "bad bandwidth"),
        ("duration 2s\nlink ¹ 1mbps 10ms 10.0.0.1 10.0.1.1\n", 3, "bad link id"),
        ("duration 2s\n" + THREE_LINKS + "at 1s set_sub_prio ³ backup\n", 6, "bad sub-flow id"),
    ],
    ids=["time", "bandwidth", "link-id", "sub-flow-id"],
)
def test_a_superscript_digit_is_a_syntax_error_with_its_line(doc, line, message):
    # str.isdigit accepts superscript digits, which int() rejects.
    with pytest.raises(ScenarioSyntaxError, match=message) as err:
        parse_scenario("scenario s\n" + doc)
    assert err.value.line == line


def test_action_referencing_missing_link_is_semantic_error():
    doc = (
        "scenario s\nduration 1s\n" + THREE_LINKS + "at 1s link_down 9\n"
    )
    with pytest.raises(ScenarioSemanticError) as err:
        parse_scenario(doc)
    assert "link 9" in str(err.value)


def test_duplicate_link_id_rejected():
    doc = (
        "scenario s\nduration 1s\n"
        "link 1 1mbps 10ms 10.0.0.1 10.0.1.1\n"
        "link 1 1mbps 10ms 10.0.0.1 10.0.2.1\n"
    )
    with pytest.raises(ScenarioSemanticError):
        parse_scenario(doc)


FIRST_LINK = "link 1 1mbps 10ms 10.0.0.1 10.0.1.1\n"


@pytest.mark.parametrize(
    "second_link, message",
    [
        pytest.param(
            "link 2 1mbps 10ms 10.0.0.2 10.0.2.1\n",
            "no link serves interface pair 10.0.0.1->10.0.2.1",
            id="unserved-pair",
        ),
        pytest.param(
            "link 2 1mbps 10ms 10.0.0.1 10.0.1.1\n",
            "duplicate link for pair 10.0.0.1->10.0.1.1",
            id="duplicate-pair",
        ),
        pytest.param(
            "link 2 1mbps 10ms 2001:db8::1 2001:db8::2\n",
            "mixed address families",
            id="mixed-families",
        ),
    ],
)
def test_topology_error_is_reported_at_parse_time_with_its_line(second_link, message):
    doc = "scenario s\nduration 1s\n" + FIRST_LINK + second_link + "at 500ms link_down 1\n"
    with pytest.raises(ScenarioSemanticError, match=message) as err:
        parse_scenario(doc)
    assert err.value.line == 4  # the second link


def test_set_sub_prio_zero_is_rejected_with_its_line():
    doc = "scenario s\nduration 2s\n" + THREE_LINKS + "at 1s set_sub_prio 2 0 backup\n"
    with pytest.raises(ScenarioSyntaxError, match="start at 1") as err:
        parse_scenario(doc)
    assert err.value.line == 6


def test_set_sub_prio_may_name_a_future_subflow():
    doc = "scenario s\nduration 2s\n" + THREE_LINKS + "at 1s set_sub_prio 4 backup\n"
    assert parse_scenario(doc).actions[0].targets == (4,)


def test_missing_sections_rejected():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("duration 1s\nlink 1 1mbps 10ms 10.0.0.1 10.0.1.1\n")
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("scenario s\nlink 1 1mbps 10ms 10.0.0.1 10.0.1.1\n")
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("scenario s\nduration 1s\n")


@pytest.mark.parametrize("duration", ["0s", "0ms"])
def test_a_zero_duration_is_a_syntax_error_with_its_line(duration):
    with pytest.raises(ScenarioSyntaxError, match="^line 2: duration must be positive$"):
        parse_scenario(f"scenario s\nduration {duration}\n" + THREE_LINKS)


def test_a_missing_duration_is_a_syntax_error_without_a_line():
    with pytest.raises(ScenarioSyntaxError, match="^missing 'duration <time>' line$"):
        parse_scenario("scenario s\n" + THREE_LINKS)


@pytest.mark.parametrize(
    "doc, line, keyword",
    [
        ("scenario a\nduration 10s\nduration 3s\n", 3, "duration"),
        ("scenario a\nscenario b\nduration 10s\n", 2, "scenario"),
    ],
    ids=["duration", "scenario"],
)
def test_a_second_scenario_or_duration_line_is_a_syntax_error_with_its_line(doc, line, keyword):
    with pytest.raises(ScenarioSyntaxError, match=f"^line {line}: a second '{keyword}' line$"):
        parse_scenario(doc + THREE_LINKS)


def test_scenario_errors_are_library_errors():
    with pytest.raises(MpflowError) as caught:
        parse_scenario("scenario s\nduration 1s\nat 1s link_down 9\n" + THREE_LINKS)
    assert isinstance(caught.value, ScenarioSemanticError)


def test_actions_sorted_by_time():
    doc = (
        "scenario s\nduration 10s\n" + THREE_LINKS
        + "at 5s link_down 1\nat 1s link_down 2\n"
    )
    scenario = parse_scenario(doc)
    assert [a.at_ms for a in scenario.actions] == [1_000, 5_000]


@pytest.mark.parametrize("name", sorted(BUILTIN_DOCS))
def test_format_parse_roundtrip_is_identity(name):
    scenario = builtin_scenario(name)
    assert parse_scenario(format_scenario(scenario)) == scenario


def test_bandwidth_units():
    doc = (
        "scenario s\nduration 1s\n"
        "link 1 1000000bps 10ms 10.0.0.1 10.0.1.1\n"
        "link 2 1000kbps 10ms 10.0.0.2 10.0.1.1\n"
        "link 3 1mbps 10ms 10.0.0.3 10.0.1.1\n"
    )
    scenario = parse_scenario(doc)
    assert {link.bandwidth_bps for link in scenario.links} == {1_000_000}


def test_bandwidth_suffixes_take_any_case_and_time_suffixes_lower_case_only():
    doc = "scenario s\nduration 1s\nlink 1 1Mbps 10ms 10.0.0.1 10.0.1.1\n"
    assert parse_scenario(doc).links[0].bandwidth_bps == 1_000_000
    with pytest.raises(ScenarioSyntaxError, match="bad time") as err:
        parse_scenario(doc.replace("10ms", "10MS"))
    assert err.value.line == 3


def test_duration_override_truncates_run():
    report = run_scenario(builtin_scenario("fig4"), duration_ms=3_000)
    assert report.duration_ms == 3_000
    assert max(row.bucket_start_ms for row in report.rows) == 2_000


def test_a_shorter_run_leaves_out_the_actions_at_or_after_its_end(monkeypatch):
    """The simulation rejects an action that its run would never reach, so
    a duration override that ends the run early runs only the actions
    before its end, here the first of three: it writes the report of the
    scenario without the other two. The scenario keeps all three, and
    ``mpflow validate`` warns only about actions at or after the
    scenario's own duration."""
    monkeypatch.delenv(PPOS_ENV_VAR, raising=False)
    actions = "at 1s set_sub_prio 2 backup\nat 3s link_down 1\nat 5s set_sub_prio 2 active\n"
    scenario = parse_scenario("scenario late\nduration 10s\n" + THREE_LINKS + actions)
    assert len(scenario.actions) == 3
    first = Scenario(
        name="late", duration_ms=10_000, links=scenario.links, actions=scenario.actions[:1]
    )
    assert run_scenario(scenario, duration_ms=3_000) == run_scenario(first, duration_ms=3_000)


def test_zero_duration_override_is_rejected_not_ignored():
    with pytest.raises(ValidationError, match="duration must be positive"):
        run_scenario(builtin_scenario("fig4"), duration_ms=0)


@pytest.mark.parametrize(
    "times, message",
    [
        ({"bucket_ms": True}, "bucket width must be a whole number of ms: True"),
        ({"bucket_ms": False}, "bucket width must be a whole number of ms: False"),
        ({"duration_ms": True}, "duration must be a whole number of ms: True"),
    ],
    ids=["bucket-true", "bucket-false", "duration-true"],
)
def test_a_width_or_duration_override_may_not_be_a_bool(times, message):
    """A ``bool`` is an ``int`` to Python: ``bucket_ms=True`` ran at 1 ms
    buckets and reported a width of ``True``, and ``duration_ms=True`` ran
    for 1 ms."""
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        run_scenario(builtin_scenario("fig4"), **times)


def test_set_sub_prio_skips_a_dead_target_and_applies_the_rest():
    doc = (
        "scenario dead_target\nduration 8s\n" + THREE_LINKS
        + "at 1s link_down 2\nat 5s set_sub_prio 2 3 backup\n"
    )
    report = run_scenario(parse_scenario(doc))
    records = {rec.subflow_id: rec for rec in report.columns}
    assert records[2].died_ms < 5_000  # dead, and link 2 stays down
    assert len(records) == 3
    last = {row.subflow_id: row.low_prio for row in report.rows if row.bucket_start_ms == 7_000}
    assert last == {1: False, 3: True}


def test_env_var_forces_primary_path_only(monkeypatch):
    monkeypatch.setenv("MPFLOW_PRIMARY_PATH_ONLY", "1")
    scenario = parse_scenario("scenario steady\nduration 4s\n" + THREE_LINKS)
    report = run_scenario(scenario)
    for row in report.rows:
        if row.subflow_id != 1:
            assert row.bytes_acked == 0
            assert row.low_prio


def test_env_var_unset_leaves_default_scheduler(monkeypatch):
    monkeypatch.delenv("MPFLOW_PRIMARY_PATH_ONLY", raising=False)
    scenario = parse_scenario("scenario steady\nduration 4s\n" + THREE_LINKS)
    report = run_scenario(scenario)
    carried = {row.subflow_id for row in report.rows if row.bytes_acked > 0}
    assert carried == {1, 2, 3}


def _builtin_csv(name):
    buf = io.StringIO()
    emit_csv(run_scenario(builtin_scenario(name)), buf)
    return buf.getvalue()


def test_env_var_runs_like_an_enable_ppos_at_zero(monkeypatch):
    # fig6_ppos is fig6_default after "at 0s enable_ppos 1", and link 1
    # serves the pair of the first link line, which the switch takes.
    monkeypatch.delenv(PPOS_ENV_VAR, raising=False)
    ppos = _builtin_csv("fig6_ppos")
    monkeypatch.setenv(PPOS_ENV_VAR, "1")
    assert _builtin_csv("fig6_default") == ppos
    assert _builtin_csv("fig6_ppos") == ppos


def test_enable_ppos_without_ids_takes_the_pair_of_the_first_link_line(monkeypatch):
    monkeypatch.delenv(PPOS_ENV_VAR, raising=False)
    doc = (
        "scenario first_line\nduration 4s\n"
        "link 2 1mbps 100ms 10.0.0.1 10.0.2.1\nlink 1 1mbps 100ms 10.0.0.1 10.0.1.1\n"
        "at 0s enable_ppos\n"
    )
    scenario = parse_scenario(doc)
    report = run_scenario(scenario)
    pair_of = {rec.subflow_id: rec.pair for rec in report.columns}
    carried = {pair_of[row.subflow_id] for row in report.rows if row.bytes_acked}
    assert carried == {scenario.links[0].pair}


def test_emit_csv_empty_report_is_header_only():
    report = TimelineReport(bucket_ms=1000, duration_ms=0, columns=[])
    buf = io.StringIO()
    emit_csv(report, buf)
    assert buf.getvalue() == CSV_HEADER + "\n"


def test_emit_csv_row_order_and_shape():
    report = run_scenario(builtin_scenario("fig6_ppos"), duration_ms=3_000)
    buf = io.StringIO()
    emit_csv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    data = [line for line in lines[1:] if not line.startswith("#")]
    keys = []
    for line in data:
        fields = line.split(",")
        assert len(fields) == 7
        keys.append((int(fields[0]), int(fields[1])))
        # throughput is bytes * 8 / bucket seconds, integer arithmetic
        assert int(fields[4]) == int(fields[3]) * 8 * 1000 // report.bucket_ms
    assert keys == sorted(keys)


def test_emit_csv_accepts_paths(tmp_path):
    report = run_scenario(builtin_scenario("fig6_ppos"), duration_ms=2_000)
    target = tmp_path / "out.csv"
    emit_csv(report, target)
    assert target.read_text().startswith(CSV_HEADER)


def test_fig4_genealogy_three_originals_three_recreated():
    report = run_scenario(builtin_scenario("fig4"))
    gen = report.columns
    buf = io.StringIO()
    emit_csv(report, buf)
    footer = [line for line in buf.getvalue().splitlines() if line.startswith("#")]
    assert len(footer) == len(gen) == 6
    originals = [rec for rec in gen if rec.created_ms == 0]
    recreated = [rec for rec in gen if rec.created_ms > 0]
    assert len(originals) == 3 and len(recreated) == 3
    assert {rec.pair for rec in recreated} == {rec.pair for rec in originals}


def test_rows_densely_cover_every_alive_subflow():
    report = run_scenario(builtin_scenario("fig4"))
    by_bucket = {}
    for row in report.rows:
        by_bucket.setdefault(row.bucket_start_ms, set()).add(row.subflow_id)
    for rec in report.columns:
        first = rec.created_ms // 1000 * 1000
        last_ms = rec.died_ms if rec.died_ms is not None else report.duration_ms - 1
        last = last_ms // 1000 * 1000
        for bucket_start in range(first, last + 1, 1000):
            assert rec.subflow_id in by_bucket[bucket_start], (
                rec.subflow_id,
                bucket_start,
            )


def _rows_by_key(report):
    return {(row.bucket_start_ms, row.subflow_id): row for row in report.rows}


def test_a_flag_set_at_a_bucket_end_shows_in_that_bucket(monkeypatch):
    monkeypatch.delenv("MPFLOW_PRIMARY_PATH_ONLY", raising=False)
    doc = "scenario edge\nduration 4s\n" + THREE_LINKS + "at 2s set_sub_prio 2 backup\n"
    rows = _rows_by_key(run_scenario(parse_scenario(doc)))
    assert [rows[(start, 2)].low_prio for start in (0, 1_000, 2_000, 3_000)] == [
        False,
        True,
        True,
        True,
    ]


def test_a_death_on_a_bucket_edge_ends_the_rows_there(monkeypatch):
    # Link 1 is down before the first segment, so sub-flow 1 is never acked
    # and dies at its third timeout, 800 ms in: the end of the 400-800 ms
    # bucket and the start of the 800-1200 ms one.
    monkeypatch.delenv("MPFLOW_PRIMARY_PATH_ONLY", raising=False)
    doc = "scenario edge\nduration 2s\n" + THREE_LINKS + "at 0s link_down 1\n"
    report = run_scenario(parse_scenario(doc), bucket_ms=400)
    assert report.columns[0].died_ms == 800
    rows = _rows_by_key(report)
    assert sorted(start for start, sf in rows if sf == 1) == [0, 400]
    assert rows[(400, 1)].alive  # died at this bucket's end, inclusive
    assert rows[(800, 2)].alive


def test_a_duration_off_the_bucket_grid_ends_with_a_short_bucket():
    report = run_scenario(builtin_scenario("fig4"), duration_ms=2_500)
    starts = sorted({row.bucket_start_ms for row in report.rows})
    assert starts == [0, 1_000, 2_000]
    buf = io.StringIO()
    emit_csv(report, buf)
    last = [line.split(",") for line in buf.getvalue().splitlines() if line.startswith("2000,")]
    assert [int(fields[1]) for fields in last] == [1, 2, 3]
    for fields in last:
        # the short bucket still divides by the full bucket width
        assert int(fields[4]) == int(fields[3]) * 8


def test_every_builtin_completes_quickly():
    import time

    for name in sorted(BUILTIN_DOCS):
        start = time.monotonic()
        run_scenario(builtin_scenario(name))
        assert time.monotonic() - start < 5.0, name


def test_csv_output_is_byte_identical_across_runs():
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        emit_csv(run_scenario(builtin_scenario("fig5")), buf)
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------- #
# The scenario value types and the report, as callers build and compare them.


def test_link_specs_and_actions_take_every_field_by_keyword():
    p = pair("10.0.0.1", "10.0.1.1")
    spec = LinkSpec(link_id=1, pair=p, bandwidth_bps=1_000_000, one_way_delay_ms=0)
    assert (spec.link_id, spec.pair, spec.bandwidth_bps, spec.one_way_delay_ms) == (
        1, p, 1_000_000, 0
    )
    action = ScenarioAction(at_ms=5, verb="link_down")
    assert (action.at_ms, action.verb, action.targets, action.low_prio) == (
        5, "link_down", (), None
    )
    flip = ScenarioAction(at_ms=0, verb="set_sub_prio", targets=(2, 3), low_prio=True)
    assert (flip.targets, flip.low_prio) == ((2, 3), True)
    scenario = Scenario(name="s", duration_ms=10, links=(spec,), actions=(action,))
    assert (scenario.name, scenario.duration_ms, scenario.links, scenario.actions) == (
        "s", 10, (spec,), (action,)
    )
    assert scenario == Scenario("s", 10, (spec,), (action,))


@pytest.mark.parametrize(
    "bandwidth_bps, delay_ms, message",
    [
        (0, 100, "bandwidth must be positive"),
        (-1, 100, "bandwidth must be positive"),
        (1_000_000, -1, "delay must be >= 0"),
        (11_680_000_001, 0, "at 0 ms delay"),
    ],
)
def test_link_specs_are_checked_when_built(bandwidth_bps, delay_ms, message):
    with pytest.raises(ValidationError, match=f"link 7: {message}"):
        LinkSpec(7, pair("10.0.0.1", "10.0.1.1"), bandwidth_bps, delay_ms)


@pytest.mark.parametrize(
    "value, field",
    [
        (LinkSpec(1, pair("10.0.0.1", "10.0.1.1"), 1_000_000, 1), "bandwidth_bps"),
        (ScenarioAction(0, "link_up", (1,)), "targets"),
        (Scenario("s", 10, (), ()), "duration_ms"),
    ],
    ids=["LinkSpec", "ScenarioAction", "Scenario"],
)
def test_scenario_value_types_are_frozen(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_reports_are_equal_field_by_field():
    scenario = builtin_scenario("fig6_ppos")
    first = run_scenario(scenario, duration_ms=5_000)
    second = run_scenario(scenario, duration_ms=5_000)
    assert first == second and not first != second
    assert first.rows == second.rows
    assert first != run_scenario(scenario, duration_ms=4_000)
    assert first != run_scenario(scenario, duration_ms=5_000, bucket_ms=500)
    empty = TimelineReport(bucket_ms=1000, duration_ms=0, columns=[])
    assert empty == TimelineReport(1000, 0, [])
    assert empty != TimelineReport(1000, 0, first.columns)
    assert empty == (1000, 0, [])  # a named tuple, like the other value types
