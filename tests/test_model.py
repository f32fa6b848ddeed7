import ipaddress
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mpflow.model import (
    AlreadyExistsError,
    ConfigurationError,
    ConnectionState,
    EndpointAddress,
    InterfacePair,
    AddrFamily,
    NotFoundError,
    PORT_BASE,
    PriorityLists,
    SubflowState,
    ValidationError,
    close_subflow,
    get_subflow_tuple,
    list_subflow_ids,
    new_connection,
    open_subflow,
    subflow_port,
)
from mpflow.scheduler import ChoiceReason, SchedulerDecision
from mpflow.sockopt import SubPrioRequest
from helpers import LOCAL, REMOTES, addr, pair, three_paths, tuple_for_next


def test_three_remotes_give_three_active_subflows():
    conn = three_paths()
    assert [sf.id for sf in conn.subflows] == [1, 2, 3]
    assert all(not sf.low_prio for sf in conn.subflows)
    assert conn.outbox == []


def test_single_pair_gives_one_subflow():
    conn = new_connection([addr(LOCAL)], [addr(REMOTES[0])])
    assert len(conn.subflows) == 1


def test_mesh_tuples_equal_cross_product():
    locals_ = [addr("10.0.0.1"), addr("10.0.0.2")]
    remotes = [addr(r) for r in REMOTES]
    conn = new_connection(locals_, remotes)
    assert len(conn.subflows) == 6
    # brute-force cross-product oracle, local-index major
    expected = [
        (l.address, r.address) for l, r in itertools.product(locals_, remotes)
    ]
    got = [(sf.src.address, sf.dst.address) for sf in conn.subflows]
    assert got == expected


@given(st.integers(1, 4), st.integers(1, 4))
def test_full_mesh_cardinality(m, n):
    locals_ = [addr(f"10.0.0.{i + 1}") for i in range(m)]
    remotes = [addr(f"10.0.1.{j + 1}") for j in range(n)]
    conn = new_connection(locals_, remotes)
    assert len(conn.subflows) == m * n
    expected = {
        (l.address, r.address) for l, r in itertools.product(locals_, remotes)
    }
    assert {(sf.src.address, sf.dst.address) for sf in conn.subflows} == expected


def test_empty_address_list_rejected():
    with pytest.raises(ConfigurationError):
        new_connection([], [addr(REMOTES[0])])
    with pytest.raises(ConfigurationError):
        new_connection([addr(LOCAL)], [])


def test_list_subflow_ids_fresh():
    assert list_subflow_ids(three_paths()) == [1, 2, 3]


def test_list_subflow_ids_hides_dead():
    conn = three_paths()
    close_subflow(conn, 1)
    assert list_subflow_ids(conn) == [2, 3]


def test_reestablished_pair_gets_new_id():
    conn = three_paths()
    close_subflow(conn, 1)
    new_id = open_subflow(conn, tuple_for_next(conn, conn.mesh_pairs()[0]))
    assert new_id == 4
    assert list_subflow_ids(conn) == [2, 3, 4]


def test_get_subflow_tuple_first():
    conn = three_paths()
    src, dst = get_subflow_tuple(conn, 1)
    assert (src.host(), dst.host()) == (LOCAL, REMOTES[0])
    assert src.port == dst.port == PORT_BASE + 1


def test_get_subflow_tuple_follows_construction_order():
    conn = three_paths()
    # oracle: enumerate pairs in creation order
    order = [(LOCAL, r) for r in REMOTES]
    for subflow_id, (src_host, dst_host) in enumerate(order, start=1):
        src, dst = get_subflow_tuple(conn, subflow_id)
        assert (src.host(), dst.host()) == (src_host, dst_host)


def test_get_subflow_tuple_unknown_id():
    with pytest.raises(NotFoundError):
        get_subflow_tuple(three_paths(), 99)


def test_get_subflow_tuple_works_for_dead_subflows():
    # the sub-flow still exists, it is just not alive
    conn = three_paths()
    before = get_subflow_tuple(conn, 2)
    close_subflow(conn, 2)
    assert get_subflow_tuple(conn, 2) == before


def test_open_subflow_consults_backup_list():
    conn = three_paths()
    close_subflow(conn, 2)
    conn.backup_list.append(conn.mesh_pairs()[1])
    new_id = open_subflow(conn, tuple_for_next(conn, conn.mesh_pairs()[1]))
    assert conn.subflow_by_id(new_id).low_prio is True


def test_open_subflow_defaults_to_active():
    conn = three_paths()
    close_subflow(conn, 2)
    new_id = open_subflow(conn, tuple_for_next(conn, conn.mesh_pairs()[1]))
    assert conn.subflow_by_id(new_id).low_prio is False


def test_open_subflow_active_list_wins_on_double_membership():
    conn = three_paths()
    close_subflow(conn, 2)
    target = conn.mesh_pairs()[1]
    conn.active_list.append(target)
    conn.backup_list.append(target)
    new_id = open_subflow(conn, tuple_for_next(conn, target))
    assert conn.subflow_by_id(new_id).low_prio is False


def test_open_subflow_rejects_duplicate_tuple():
    conn = three_paths()
    src, dst = get_subflow_tuple(conn, 1)
    with pytest.raises(AlreadyExistsError):
        open_subflow(conn, (src, dst))


def test_close_subflow_removes_from_listing():
    conn = three_paths()
    close_subflow(conn, 2)
    assert list_subflow_ids(conn) == [1, 3]
    assert conn.closed_ids == [2]  # for its owner, as a flip queues its id in the outbox


def test_close_unknown_or_dead_id():
    conn = three_paths()
    with pytest.raises(NotFoundError):
        close_subflow(conn, 9)
    close_subflow(conn, 1)
    with pytest.raises(NotFoundError):
        close_subflow(conn, 1)


def test_close_then_open_rederives_priority():
    # a sub-flow marked backup, killed, and re-opened with empty lists
    # comes back active: nothing is inherited
    conn = three_paths()
    conn.subflow_by_id(2).low_prio = True
    close_subflow(conn, 2)
    new_id = open_subflow(conn, tuple_for_next(conn, conn.mesh_pairs()[1]))
    assert conn.subflow_by_id(new_id).low_prio is False


@given(st.lists(st.tuples(st.sampled_from(["open", "close"]), st.integers(0, 5)), max_size=30))
def test_ids_unique_across_any_event_sequence(ops):
    conn = new_connection([addr(LOCAL)], [addr(r) for r in REMOTES[:2]])
    issued = [sf.id for sf in conn.subflows]
    for verb, k in ops:
        if verb == "open":
            mesh_pair = conn.mesh_pairs()[k % 2]
            try:
                new_id = open_subflow(conn, tuple_for_next(conn, mesh_pair))
            except AlreadyExistsError:
                continue
            assert new_id not in issued
            issued.append(new_id)
        else:
            alive = list_subflow_ids(conn)
            if alive:
                close_subflow(conn, alive[k % len(alive)])
        assert all(
            dead not in list_subflow_ids(conn)
            for dead in issued
            if not conn.subflow_by_id(dead).alive
        )
    assert len(issued) == len(set(issued))


@given(
    st.lists(st.integers(0, 2), max_size=3),
    st.lists(st.integers(0, 2), max_size=3),
    st.integers(0, 2),
)
def test_priority_at_birth_always_follows_lists(active_idx, backup_idx, open_idx):
    # whatever the creation path, a sub-flow's flag at birth equals the
    # classification of its pair against the lists at that moment
    from mpflow.model import classify_subflow_priority

    conn = three_paths()
    mesh = conn.mesh_pairs()
    conn.active_list[:] = list(dict.fromkeys(mesh[i] for i in active_idx))
    conn.backup_list[:] = list(dict.fromkeys(mesh[i] for i in backup_idx))
    target = mesh[open_idx]
    close_subflow(conn, open_idx + 1)
    new_id = open_subflow(conn, tuple_for_next(conn, target))
    assert conn.subflow_by_id(new_id).low_prio is classify_subflow_priority(
        target, conn.priority_lists()
    )


def test_address_width_must_match_family():
    with pytest.raises(ValidationError):
        EndpointAddress(AddrFamily.V4, b"\x01\x02\x03")
    with pytest.raises(ValidationError):
        EndpointAddress(AddrFamily.V6, b"\x01\x02\x03\x04")


def test_port_range_checked():
    with pytest.raises(ValidationError):
        EndpointAddress(AddrFamily.V4, b"\x0a\x00\x00\x01", port=70000)


def test_pair_rejects_mixed_families():
    v4 = addr("10.0.0.1")
    v6 = addr("2001:db8::1")
    with pytest.raises(ValidationError):
        InterfacePair.between(v4, v6)


@pytest.mark.parametrize("src, dst", [("10.0.0.1", "10.0.1.1"), ("2001:db8::1", "2001:db8::2")])
def test_between_builds_the_pair_that_the_checked_constructor_builds(src, dst):
    # It checks the families only: the widths were checked with the endpoints.
    a, b = addr(src, 40001), addr(dst, 40001)
    built = InterfacePair.between(a, b)
    assert type(built) is InterfacePair
    assert built == InterfacePair(a.family, a.address, b.address)
    with pytest.raises(ValidationError, match="mixed address families"):
        InterfacePair.between(a, addr("10.0.0.9" if ":" in src else "2001:db8::9"))


def test_a_sub_flow_port_wraps_within_port_base_to_0xffff():
    assert [subflow_port(i) for i in (1, 25_535, 25_536, 25_600)] == [
        PORT_BASE + 1, 0xFFFF, PORT_BASE, PORT_BASE + 64
    ]


def test_pair_equality_ignores_ports():
    a = InterfacePair.between(addr("10.0.0.1", 1111), addr("10.0.1.1", 2222))
    b = InterfacePair.between(addr("10.0.0.1", 3333), addr("10.0.1.1", 4444))
    assert a == b


# ---------------------------------------------------------------------- #
# The value and state types as callers build and use them.

V4_A, V4_B = b"\x0a\x00\x00\x01", b"\x0a\x00\x01\x01"


def test_value_types_take_every_field_by_keyword_with_its_default():
    endpoint = EndpointAddress(family=AddrFamily.V4, address=V4_A)
    assert (endpoint.family, endpoint.address, endpoint.port) == (AddrFamily.V4, V4_A, 0)
    assert EndpointAddress(family=AddrFamily.V4, address=V4_A, port=7).port == 7
    p = InterfacePair(family=AddrFamily.V4, src=V4_A, dst=V4_B)
    assert (p.family, p.src, p.dst) == (AddrFamily.V4, V4_A, V4_B)
    lists = PriorityLists()
    assert (lists.active_list, lists.backup_list) == ((), ())
    assert PriorityLists(active_list=(p,), backup_list=()).active_list == (p,)
    decision = SchedulerDecision(chosen=None, reason=ChoiceReason.NO_PATH, tier=None)
    assert (decision.chosen, decision.reason, decision.tier) == (None, ChoiceReason.NO_PATH, None)
    request = SubPrioRequest(id=2, low_prio=True)
    assert (request.id, request.low_prio) == (2, True)


def test_subflow_state_takes_every_field_by_keyword_with_its_default():
    src, dst = addr("10.0.0.1", 40001), addr("10.0.1.1", 40001)
    sf = SubflowState(id=1, src=src, dst=dst)
    assert (sf.id, sf.src, sf.dst) == (1, src, dst)
    assert (sf.low_prio, sf.alive, sf.srtt_us, sf.inflight_bytes) == (False, True, 0, 0)
    assert (sf.consecutive_timeouts, sf.bytes_sent_total, sf.created_us, sf.died_us) == (
        0, 0, 0, None
    )
    assert sf.pair() == InterfacePair.between(src, dst)
    values = dict(
        low_prio=True, alive=False, srtt_us=5, inflight_bytes=6, consecutive_timeouts=2,
        bytes_sent_total=7, created_us=8, died_us=9,
    )
    sf = SubflowState(id=1, src=src, dst=dst, **values)
    assert {name: getattr(sf, name) for name in values} == values
    sf.low_prio = False  # mutable
    assert sf.low_prio is False


def test_connection_state_takes_every_field_by_keyword_with_its_default():
    local, remote = [addr("10.0.0.1")], [addr("10.0.1.1")]
    conn = ConnectionState(local_addrs=local, remote_addrs=remote)
    assert (conn.local_addrs, conn.remote_addrs, conn.next_id) == (local, remote, 1)
    assert conn.subflows == conn.active_list == conn.backup_list == []
    assert conn.primary_pairs == conn.outbox == []
    other = ConnectionState(local_addrs=local, remote_addrs=remote)
    conn.outbox.append((1, None))
    assert other.outbox == []  # no list is shared between connections
    p = InterfacePair.between(local[0], remote[0])
    sf = SubflowState(id=4, src=local[0], dst=remote[0])
    full = ConnectionState(
        local_addrs=local, remote_addrs=remote, subflows=[sf], next_id=5,
        active_list=[p], backup_list=[p], primary_pairs=[p], outbox=[(4, None)],
    )
    assert full.subflow_by_id(4) is sf
    assert (full.next_id, full.active_list, full.backup_list) == (5, [p], [p])
    assert (full.primary_pairs, full.outbox) == ([p], [(4, None)])


@pytest.mark.parametrize(
    "build",
    [
        lambda: EndpointAddress(AddrFamily.V4, b"\x0a\x00\x00"),
        lambda: EndpointAddress(AddrFamily.V6, V4_A),
        lambda: EndpointAddress(AddrFamily.V4, V4_A, port=-1),
        lambda: EndpointAddress(AddrFamily.V4, V4_A, port=0x10000),
        lambda: InterfacePair(AddrFamily.V4, V4_A, b"\x0a\x00\x01"),
        lambda: InterfacePair(AddrFamily.V6, V4_A, V4_B),
        lambda: InterfacePair(family=AddrFamily.V4, src=b"", dst=V4_B),
    ],
    ids=["v4-3-bytes", "v6-4-bytes", "port-negative", "port-65536", "dst-3-bytes",
         "v6-pair-of-v4", "src-empty"],
)
def test_addresses_and_pairs_are_checked_when_built(build):
    with pytest.raises(ValidationError):
        build()


def test_endpoints_and_pairs_work_as_dict_keys():
    a = InterfacePair(AddrFamily.V4, V4_A, V4_B)
    b = InterfacePair.between(addr("10.0.0.1", 1), addr("10.0.1.1", 2))
    assert a == b and hash(a) == hash(b)
    assert a != InterfacePair(AddrFamily.V4, V4_B, V4_A)
    by_pair = {a: "first"}
    by_pair[b] = "second"
    assert by_pair == {a: "second"}
    e1, e2 = EndpointAddress(AddrFamily.V4, V4_A, 80), addr("10.0.0.1", 80)
    assert e1 == e2 and hash(e1) == hash(e2)
    assert e1 != e1.with_port(81)
    assert {e1: 1, e2: 2, e1.with_port(81): 3} == {e1: 2, e1.with_port(81): 3}
    assert str(a) == "10.0.0.1->10.0.1.1" and e1.host() == "10.0.0.1"


def addresses(family, width):
    address = st.binary(min_size=width, max_size=width)
    return st.tuples(st.just(family), address, address)


@given(st.one_of(addresses(AddrFamily.V4, 4), addresses(AddrFamily.V6, 16)))
def test_a_pair_prints_as_ipaddress_writes_its_addresses(fields):
    family, src, dst = fields
    expected = f"{ipaddress.ip_address(src)}->{ipaddress.ip_address(dst)}"
    assert str(InterfacePair(family, src, dst)) == expected


def test_an_address_family_hashes_by_identity():
    assert [hash(family) for family in AddrFamily] == [object.__hash__(f) for f in AddrFamily]
    assert {AddrFamily.V4: 4, AddrFamily.V6: 6}[AddrFamily("v6")] == 6


@pytest.mark.parametrize(
    "value, field",
    [
        (EndpointAddress(AddrFamily.V4, V4_A), "port"),
        (InterfacePair(AddrFamily.V4, V4_A, V4_B), "src"),
        (PriorityLists(), "active_list"),
        (SchedulerDecision(1, ChoiceReason.ACTIVE_PATH, 1), "chosen"),
        (SubPrioRequest(1, True), "low_prio"),
    ],
    ids=lambda v: type(v).__name__ if not isinstance(v, str) else v,
)
def test_value_types_are_frozen(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


class ScanCountingList(list):
    """A sub-flow list that counts the scans over it."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_subflow_by_id_finds_an_id_at_its_index_past_300_dead_sub_flows():
    # Sub-flow 1 is closed and its pair re-opened 300 times: ids 1-300 are
    # dead and 301 is alive. Ids are given out in order from 1, so each
    # sits at index id - 1, where the lookup finds it without a scan; an
    # id that names no sub-flow is scanned for.
    conn = new_connection([addr(LOCAL)], [addr(REMOTES[0])])
    for _ in range(300):
        close_subflow(conn, conn.subflows[-1].id)
        open_subflow(conn, tuple_for_next(conn, conn.mesh_pairs()[0]))
    assert [sf.alive for sf in conn.subflows] == [False] * 300 + [True]
    conn.subflows = ScanCountingList(conn.subflows)
    for subflow_id in (1, 150, 300, 301):
        assert conn.subflow_by_id(subflow_id) is conn.subflows[subflow_id - 1]
    assert conn.subflows.scans == 0
    for missing in (0, -1, 302, None):
        assert conn.subflow_by_id(missing) is None
    assert conn.subflows.scans == 4


def test_subflow_by_id_scans_a_shuffled_hand_built_list():
    local, remotes = addr(LOCAL), [addr(remote) for remote in REMOTES]
    subflows = [SubflowState(i, local, remotes[i % 3]) for i in range(1, 10)]
    shuffled = subflows[3:] + subflows[:3]
    conn = ConnectionState(local_addrs=[local], remote_addrs=remotes, subflows=shuffled)
    for sf in subflows:
        assert conn.subflow_by_id(sf.id) is sf
    assert conn.subflow_by_id(10) is None
