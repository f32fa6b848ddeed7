from hypothesis import given
from hypothesis import strategies as st

from mpflow.model import SubflowState, close_subflow
from mpflow.scheduler import ChoiceReason, is_schedulable, select
from mpflow.sockopt import SubPrioRequest, enable_primary_path_only, set_subflow_priority
from helpers import addr, three_paths

MSS = 1460
WINDOW = 32 * MSS


def make_subflow(sf_id=1, alive=True, inflight=0):
    return SubflowState(
        id=sf_id,
        src=addr("10.0.0.1", 40000 + sf_id),
        dst=addr("10.0.1.1", 40000 + sf_id),
        alive=alive,
        inflight_bytes=inflight,
    )


def test_is_schedulable_with_empty_pipe():
    assert is_schedulable(make_subflow(), MSS, WINDOW)


def test_dead_subflow_not_schedulable():
    assert not is_schedulable(make_subflow(alive=False), MSS, WINDOW)


def test_window_arithmetic_gate():
    # 46000 + 1460 > 46720
    assert not is_schedulable(make_subflow(inflight=46000), MSS, WINDOW)


def test_equal_srtt_breaks_tie_by_lowest_id():
    conn = three_paths()
    for sf in conn.subflows:
        sf.srtt_us = 100_000
    decision = select(conn, MSS, WINDOW)
    assert (decision.chosen, decision.reason) == (1, ChoiceReason.ACTIVE_PATH)


def test_lowest_srtt_wins():
    conn = three_paths()
    conn.subflow_by_id(1).srtt_us = 150_000
    conn.subflow_by_id(2).srtt_us = 50_000
    conn.subflow_by_id(3).srtt_us = 100_000
    assert select(conn, MSS, WINDOW).chosen == 2


def test_schedulable_active_always_beats_backups():
    conn = three_paths()
    set_subflow_priority(conn, SubPrioRequest(2, True))
    set_subflow_priority(conn, SubPrioRequest(3, True))
    for _ in range(5):
        assert select(conn, MSS, WINDOW).chosen == 1
        conn.subflow_by_id(1).inflight_bytes += MSS


def test_window_limited_active_holds_data_back_from_backups():
    # an alive active that is merely out of window is still "available":
    # data waits for it instead of leaking onto backup sub-flows
    conn = three_paths()
    set_subflow_priority(conn, SubPrioRequest(2, True))
    set_subflow_priority(conn, SubPrioRequest(3, True))
    conn.subflow_by_id(1).inflight_bytes = WINDOW
    decision = select(conn, MSS, WINDOW)
    assert (decision.chosen, decision.reason) == (None, ChoiceReason.NO_PATH)


def test_backups_carry_once_no_active_is_alive():
    conn = three_paths()
    set_subflow_priority(conn, SubPrioRequest(2, True))
    set_subflow_priority(conn, SubPrioRequest(3, True))
    conn.subflow_by_id(2).srtt_us = 80_000
    conn.subflow_by_id(3).srtt_us = 60_000
    close_subflow(conn, 1)
    decision = select(conn, MSS, WINDOW)
    assert (decision.chosen, decision.reason) == (3, ChoiceReason.BACKUP_FALLBACK)


def test_no_alive_subflow_gives_no_path():
    conn = three_paths()
    for sf_id in (1, 2, 3):
        close_subflow(conn, sf_id)
    assert select(conn, MSS, WINDOW).reason is ChoiceReason.NO_PATH


def test_ppos_prefers_primary_path():
    conn = three_paths()
    enable_primary_path_only(conn, [conn.mesh_pairs()[0]])
    decision = select(conn, MSS, WINDOW)
    assert (decision.chosen, decision.reason) == (1, ChoiceReason.PRIMARY_PATH)


def test_ppos_holds_while_primary_alive_but_full():
    conn = three_paths()
    enable_primary_path_only(conn, [conn.mesh_pairs()[0]])
    conn.subflow_by_id(1).inflight_bytes = WINDOW
    assert select(conn, MSS, WINDOW).reason is ChoiceReason.NO_PATH


def test_ppos_falls_back_when_primary_dead():
    conn = three_paths()
    enable_primary_path_only(conn, [conn.mesh_pairs()[0]])
    close_subflow(conn, 1)
    decision = select(conn, MSS, WINDOW)
    assert decision.chosen == 2
    assert decision.reason is ChoiceReason.BACKUP_FALLBACK


def test_ppos_returns_to_reestablished_primary():
    conn = three_paths()
    primary = conn.mesh_pairs()[0]
    enable_primary_path_only(conn, [primary])
    close_subflow(conn, 1)
    assert select(conn, MSS, WINDOW).chosen == 2
    from mpflow.model import open_subflow
    from helpers import tuple_for_next

    new_id = open_subflow(conn, tuple_for_next(conn, primary))
    decision = select(conn, MSS, WINDOW)
    assert (decision.chosen, decision.reason) == (new_id, ChoiceReason.PRIMARY_PATH)


def test_ppos_with_all_pairs_primary_matches_default():
    conn = three_paths()
    enable_primary_path_only(conn, conn.mesh_pairs())
    for srtts in ([100, 50, 150], [1, 1, 1], [150, 150, 50]):
        for sf, srtt in zip(conn.subflows, srtts):
            sf.srtt_us = srtt * 1000
        ppos = select(conn, MSS, WINDOW).chosen
        pairs, conn.primary_pairs = conn.primary_pairs, []
        assert ppos == select(conn, MSS, WINDOW).chosen
        conn.primary_pairs = pairs


@st.composite
def random_states(draw):
    conn = three_paths()
    for sf in conn.subflows:
        sf.alive = draw(st.booleans())
        sf.low_prio = draw(st.booleans())
        sf.srtt_us = draw(st.sampled_from([0, 50_000, 100_000, 150_000]))
        sf.inflight_bytes = draw(st.sampled_from([0, WINDOW // 2, WINDOW]))
    return conn


@given(random_states())
def test_default_never_picks_backup_while_active_schedulable(conn):
    decision = select(conn, MSS, WINDOW)
    if decision.chosen is not None and conn.subflow_by_id(decision.chosen).low_prio:
        assert not any(
            is_schedulable(sf, MSS, WINDOW) for sf in conn.subflows if not sf.low_prio
        )
    assert (decision.chosen is None) == (decision.reason is ChoiceReason.NO_PATH)


@given(random_states())
def test_ppos_never_picks_offprimary_while_primary_schedulable(conn):
    primary = conn.mesh_pairs()[0]
    conn.primary_pairs = [primary]
    decision = select(conn, MSS, WINDOW)
    if decision.chosen is not None:
        chosen = conn.subflow_by_id(decision.chosen)
        if chosen.pair() != primary:
            assert not any(
                is_schedulable(sf, MSS, WINDOW)
                for sf in conn.subflows
                if sf.pair() == primary
            )


@given(random_states())
def test_selection_is_deterministic(conn):
    assert select(conn, MSS, WINDOW) == select(conn, MSS, WINDOW)
