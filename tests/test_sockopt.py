import itertools
import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpflow.model import (
    NotFoundError,
    PriorityLists,
    ValidationError,
    classify_subflow_priority,
    close_subflow,
    open_subflow,
)
from mpflow.simnet import mirror_connection
from mpflow.sockopt import (
    SubPrioRequest,
    apply_remote_mp_prio,
    enable_primary_path_only,
    set_active_interface_list,
    set_backup_interface_list,
    set_subflow_priority,
)
from mpflow.wire import MpPrioOption, decode_mp_prio, encode_mp_prio
from helpers import pair, three_paths, tuple_for_next

P = pair("10.0.0.1", "10.0.1.1")
Q = pair("10.0.0.1", "10.0.2.1")

# Hand-derived truth table for classify_subflow_priority(P, lists):
# one row per membership/emptiness combination of the two lists.
CLASSIFY_TRUTH_TABLE = [
    # active_list, backup_list, expected low_prio for P
    ((), (), False),        # both empty: default active
    ((), (P,), True),       # backup list names P
    ((), (Q,), False),      # backup list names someone else
    ((P,), (), False),      # active list names P
    ((Q,), (), True),       # active list exists but P is off it
    ((P,), (P,), False),    # both lists name P: active list precedence
    ((P,), (Q,), False),
    ((Q,), (P,), True),
]


@pytest.mark.parametrize("active,backup,expected", CLASSIFY_TRUTH_TABLE)
def test_classification_truth_table(active, backup, expected):
    assert classify_subflow_priority(P, PriorityLists(active, backup)) is expected


def test_classification_exhaustive_over_both_pools():
    # every subset combination of {P, Q} for both lists, against an
    # independently written statement of the three rules
    def rule_oracle(target, active, backup):
        if active:
            return target not in active
        if backup:
            return target in backup
        return False

    subsets = [(), (P,), (Q,), (P, Q)]
    for active, backup in itertools.product(subsets, subsets):
        for target in (P, Q):
            assert classify_subflow_priority(
                target, PriorityLists(active, backup)
            ) is rule_oracle(target, active, backup)


def test_set_subflow_priority_flips_flag_and_signals():
    conn = three_paths()
    set_subflow_priority(conn, SubPrioRequest(2, True))
    assert conn.subflow_by_id(2).low_prio is True
    assert conn.outbox == [(2, MpPrioOption(backup_flag=True))]


def test_set_subflow_priority_same_value_still_signals():
    conn = three_paths()
    set_subflow_priority(conn, SubPrioRequest(1, False))
    assert conn.subflow_by_id(1).low_prio is False
    assert conn.outbox == [(1, MpPrioOption(backup_flag=False))]


def test_set_subflow_priority_dead_id():
    conn = three_paths()
    close_subflow(conn, 3)
    with pytest.raises(NotFoundError):
        set_subflow_priority(conn, SubPrioRequest(3, True))
    with pytest.raises(NotFoundError):
        set_subflow_priority(conn, SubPrioRequest(7, True))


def test_apply_remote_sets_addressed_subflow():
    conn = three_paths()
    apply_remote_mp_prio(conn, MpPrioOption(True), received_on=2)
    assert conn.subflow_by_id(2).low_prio is True


def test_apply_remote_is_idempotent():
    conn = three_paths()
    for _ in range(2):
        apply_remote_mp_prio(conn, MpPrioOption(False), received_on=2)
    assert conn.subflow_by_id(2).low_prio is False


def test_apply_remote_unknown_target_ignored():
    conn = three_paths()
    before = [(sf.id, sf.low_prio) for sf in conn.subflows]
    apply_remote_mp_prio(conn, MpPrioOption(True), received_on=9)
    assert [(sf.id, sf.low_prio) for sf in conn.subflows] == before


def test_apply_remote_unknown_target_is_logged_at_debug(caplog):
    conn = three_paths()
    close_subflow(conn, 2)
    with caplog.at_level(logging.DEBUG, logger="mpflow.sockopt"):
        apply_remote_mp_prio(conn, MpPrioOption(True), received_on=9)
        apply_remote_mp_prio(conn, MpPrioOption(True), received_on=2)
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
        ("mpflow.sockopt", logging.DEBUG, f"MP_PRIO for unknown or dead sub-flow {sf_id}; ignored")
        for sf_id in (9, 2)
    ]


def test_apply_remote_logs_a_signal_on_no_sub_flow_at_all(caplog):
    # A caller without a sub-flow id, such as a tracer that defaults it to
    # None, gets the diagnostic, not a logging error.
    conn = three_paths()
    with caplog.at_level(logging.DEBUG, logger="mpflow.sockopt"):
        apply_remote_mp_prio(conn, MpPrioOption(True), None)
    assert [r.getMessage() for r in caplog.records] == [
        "MP_PRIO for unknown or dead sub-flow None; ignored"
    ]
    assert not any(sf.low_prio for sf in conn.subflows)


def test_apply_remote_absent_addr_id_uses_carrying_subflow():
    conn = three_paths()
    apply_remote_mp_prio(conn, MpPrioOption(True), received_on=3)
    assert conn.subflow_by_id(3).low_prio is True


def test_apply_remote_ignores_an_addr_id_naming_another_subflow():
    # An address id names an address of the peer, not a sub-flow: the
    # option applies to the sub-flow that carried it, and to no other.
    conn = three_paths()
    apply_remote_mp_prio(conn, MpPrioOption(True, 2), received_on=3)
    assert [sf.low_prio for sf in conn.subflows] == [False, False, True]


def test_list_change_never_reclassifies_existing():
    conn = three_paths()
    set_backup_interface_list(conn, conn.mesh_pairs())
    assert all(not sf.low_prio for sf in conn.subflows)


def test_list_affects_future_creations():
    conn = three_paths()
    set_backup_interface_list(conn, [conn.mesh_pairs()[1], conn.mesh_pairs()[2]])
    close_subflow(conn, 2)
    new_id = open_subflow(conn, tuple_for_next(conn, conn.mesh_pairs()[1]))
    assert conn.subflow_by_id(new_id).low_prio is True


def test_universal_active_list_keeps_future_subflows_active():
    conn = three_paths()
    set_active_interface_list(conn, conn.mesh_pairs())
    set_backup_interface_list(conn, conn.mesh_pairs())
    close_subflow(conn, 1)
    new_id = open_subflow(conn, tuple_for_next(conn, conn.mesh_pairs()[0]))
    assert conn.subflow_by_id(new_id).low_prio is False


def test_lists_collapse_duplicates():
    conn = three_paths()
    set_active_interface_list(conn, [P, Q, P, Q, P])
    assert conn.active_list == [P, Q]


def test_lists_reject_non_pairs():
    conn = three_paths()
    with pytest.raises(ValidationError):
        set_backup_interface_list(conn, ["10.0.0.1->10.0.1.1"])


@given(
    st.lists(st.sampled_from([P, Q]), max_size=4),
    st.lists(st.sampled_from([P, Q]), max_size=4),
)
def test_list_mutation_never_flips_any_existing_flag(active, backup):
    conn = three_paths()
    set_subflow_priority(conn, SubPrioRequest(2, True))
    before = [(sf.id, sf.low_prio) for sf in conn.subflows]
    set_active_interface_list(conn, active)
    set_backup_interface_list(conn, backup)
    assert [(sf.id, sf.low_prio) for sf in conn.subflows] == before


@given(st.booleans(), st.integers(1, 3))
def test_priority_signal_roundtrip_reproduces_flag_on_peer(low_prio, subflow_id):
    conn = three_paths()
    peer = mirror_connection(conn)
    set_subflow_priority(conn, SubPrioRequest(subflow_id, low_prio))
    carrier, opt = conn.outbox[-1]
    signal = decode_mp_prio(encode_mp_prio(opt))
    apply_remote_mp_prio(peer, signal, received_on=carrier)
    assert peer.subflow_by_id(subflow_id).low_prio is low_prio


def test_enable_ppos_marks_other_subflows_backup():
    conn = three_paths()
    enable_primary_path_only(conn, [conn.mesh_pairs()[0]])
    assert conn.primary_pairs == [conn.mesh_pairs()[0]]
    assert [sf.low_prio for sf in conn.subflows] == [False, True, True]
    # the two flips are signalled to the peer
    assert conn.outbox == [(2, MpPrioOption(True)), (3, MpPrioOption(True))]


def test_enable_ppos_with_all_pairs_primary_forces_nothing():
    conn = three_paths()
    enable_primary_path_only(conn, conn.mesh_pairs())
    assert all(not sf.low_prio for sf in conn.subflows)


def test_enable_ppos_validates_pairs():
    conn = three_paths()
    with pytest.raises(ValidationError):
        enable_primary_path_only(conn, [])
    with pytest.raises(ValidationError):
        enable_primary_path_only(conn, [pair("10.9.9.9", "10.0.1.1")])


def test_reestablished_primary_pair_subflow_comes_back_active():
    conn = three_paths()
    primary = conn.mesh_pairs()[0]
    enable_primary_path_only(conn, [primary])
    close_subflow(conn, 1)
    new_id = open_subflow(conn, tuple_for_next(conn, primary))
    assert conn.subflow_by_id(new_id).low_prio is False


def test_future_offprimary_subflows_are_forced_backup():
    conn = three_paths()
    enable_primary_path_only(conn, [conn.mesh_pairs()[0]])
    close_subflow(conn, 2)
    new_id = open_subflow(conn, tuple_for_next(conn, conn.mesh_pairs()[1]))
    assert conn.subflow_by_id(new_id).low_prio is True
    # invariant: every alive sub-flow off the primary pairs is backup
    for sf in conn.alive_subflows():
        if sf.pair() not in conn.primary_pairs:
            assert sf.low_prio
