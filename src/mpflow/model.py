"""Connection and sub-flow state machine for a multipath transport endpoint.

A connection aggregates one TCP-like sub-flow per (local interface, remote
interface) pair. The full-mesh path manager creates all m x n combinations up
front; sub-flows can later be opened or closed individually, and a sub-flow
that dies is replaced by a brand new one (new id) rather than resurrected.

Priority semantics: a sub-flow with ``low_prio=True`` is a backup sub-flow
and carries data only when no active sub-flow is available. Whether a newly
created sub-flow starts active or backup is decided by
:func:`classify_subflow_priority` against the connection's persistent
interface lists, which is what makes priorities survive sub-flow
re-creation.

Each value is checked once, where it is built: an :class:`EndpointAddress`
checks its address width and port, and an :class:`InterfacePair` built
with :meth:`InterfacePair.between` checks only that its two endpoints share
a family, as their widths were checked when they were built. Sub-flow
births build from such checked parts and check nothing again.
"""

from __future__ import annotations

import functools
import ipaddress
from enum import Enum
from typing import List, NamedTuple, Optional, Tuple, Union

from .wire import MpPrioOption

PORT_BASE = 40000


class MpflowError(Exception):
    """Base class for library errors."""


class ConfigurationError(MpflowError):
    pass


class ValidationError(MpflowError):
    pass


class NotFoundError(MpflowError):
    pass


class AlreadyExistsError(MpflowError):
    pass


class AddrFamily(Enum):
    V4 = "v4"
    V6 = "v6"

    # Members compare by identity, so they may hash by it, which runs in C;
    # Enum's hash(name) runs as Python code for every pair or address used
    # as a key. Either hash varies with PYTHONHASHSEED.
    __hash__ = object.__hash__


_ADDR_WIDTH = {AddrFamily.V4: 4, AddrFamily.V6: 16}


def _slots_repr(self) -> str:
    """``Name(field=value, ...)`` over the public ``__slots__`` of a state class."""
    names = [name for name in type(self).__slots__ if not name.startswith("_")]
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
    return f"{type(self).__name__}({fields})"


class _EndpointAddressFields(NamedTuple):
    family: AddrFamily
    address: bytes
    port: int = 0


class EndpointAddress(_EndpointAddressFields):
    """An interface address plus port. Port 0 is allowed in list/interface
    contexts, where matching is on addresses only. A named tuple, checked
    when built."""

    __slots__ = ()

    def __new__(cls, family: AddrFamily, address: bytes, port: int = 0) -> EndpointAddress:
        if len(address) != _ADDR_WIDTH[family]:
            raise ValidationError(
                f"{family.value} address must be "
                f"{_ADDR_WIDTH[family]} bytes, got {len(address)}"
            )
        if not 0 <= port <= 0xFFFF:
            raise ValidationError(f"port out of range: {port}")
        return super().__new__(cls, family, address, port)

    @classmethod
    def from_string(cls, text: str, port: int = 0) -> "EndpointAddress":
        addr = ipaddress.ip_address(text)
        family = AddrFamily.V4 if addr.version == 4 else AddrFamily.V6
        return cls(family, addr.packed, port)

    def host(self) -> str:
        return str(ipaddress.ip_address(self.address))

    def with_port(self, port: int) -> "EndpointAddress":
        return EndpointAddress(self.family, self.address, port)


class _InterfacePairFields(NamedTuple):
    family: AddrFamily
    src: bytes
    dst: bytes


class InterfacePair(_InterfacePairFields):
    """A (source address, destination address) pair identifying a path.

    Equality is exact byte equality on (family, src, dst); ports are not
    part of a pair. A named tuple, checked when built. Its text is kept
    once formatted, for at most 4,096 pairs: far more than a run's one per
    link, and a bound for a process that reports on ever new pairs.
    """

    __slots__ = ()

    def __new__(cls, family: AddrFamily, src: bytes, dst: bytes) -> InterfacePair:
        width = _ADDR_WIDTH[family]
        if len(src) != width or len(dst) != width:
            raise ValidationError(
                f"pair addresses must both be {width}-byte "
                f"{family.value} addresses"
            )
        return super().__new__(cls, family, src, dst)

    @classmethod
    def between(cls, src: EndpointAddress, dst: EndpointAddress) -> "InterfacePair":
        """The pair from ``src`` to ``dst``. Their address widths were
        checked when the endpoints were built, so this checks only that
        their families match."""
        if src.family is not dst.family:
            raise ValidationError("mixed address families within one pair")
        return cls._make((src.family, src.address, dst.address))

    @functools.lru_cache(maxsize=4096)
    def __str__(self) -> str:
        if self.family is AddrFamily.V4:  # what ipaddress writes, without it
            return "%d.%d.%d.%d->%d.%d.%d.%d" % (*self.src, *self.dst)
        return f"{ipaddress.ip_address(self.src)}->{ipaddress.ip_address(self.dst)}"


class SubflowState:
    """One sub-flow of a connection.

    ``srtt_us`` is 0 until the first acknowledgment has been processed.
    ``consecutive_timeouts`` counts retransmission timeouts since the last
    acknowledgment; the simulator uses it for failure detection. The
    endpoints are fixed at creation, so the interface pair is computed once.
    """

    __slots__ = (
        "id", "src", "dst", "low_prio", "alive", "srtt_us", "inflight_bytes",
        "consecutive_timeouts", "bytes_sent_total", "created_us", "died_us", "_pair",
    )

    def __init__(
        self, id: int, src: EndpointAddress, dst: EndpointAddress, low_prio: bool = False,
        alive: bool = True, srtt_us: int = 0, inflight_bytes: int = 0,
        consecutive_timeouts: int = 0, bytes_sent_total: int = 0, created_us: int = 0,
        died_us: Optional[int] = None,
    ) -> None:
        self.id = id
        self.src = src
        self.dst = dst
        self.low_prio = low_prio
        self.alive = alive
        self.srtt_us = srtt_us
        self.inflight_bytes = inflight_bytes
        self.consecutive_timeouts = consecutive_timeouts
        self.bytes_sent_total = bytes_sent_total
        self.created_us = created_us
        self.died_us = died_us
        self._pair = InterfacePair.between(src, dst)

    __repr__ = _slots_repr

    def pair(self) -> InterfacePair:
        return self._pair


class PriorityLists(NamedTuple):
    """The two persistent interface lists consulted at sub-flow creation."""

    active_list: Tuple[InterfacePair, ...] = ()
    backup_list: Tuple[InterfacePair, ...] = ()


def classify_subflow_priority(
    pair: InterfacePair, lists: Union[PriorityLists, ConnectionState]
) -> bool:
    """Return the ``low_prio`` flag for a sub-flow created over ``pair``,
    from the two lists of ``lists``, a :class:`PriorityLists` or a
    connection's own.

    Rules, in precedence order:
      1. if the active list is non-empty, pairs on it are active and every
         other pair is backup (the active list wins on double membership);
      2. otherwise, if the backup list is non-empty, pairs on it are backup
         and every other pair is active;
      3. otherwise every new sub-flow is active.
    """
    if lists.active_list:
        return pair not in lists.active_list
    if lists.backup_list:
        return pair in lists.backup_list
    return False


class ConnectionState:
    """The meta-connection: sub-flow set, priority lists and scheduler choice
    (non-empty ``primary_pairs`` select the primary-path-only scheduler).

    A ConnectionState is confined to a single logical owner; nothing here
    locks. Cross-host signaling is explicit through ``outbox``: the MP_PRIO
    options queued for the peer, each with the id of the sub-flow it travels
    on and applies to, and ``closed_ids`` the ids :func:`close_subflow`
    closed, until the owner clears them. A list left out starts empty.
    """

    __slots__ = (
        "local_addrs", "remote_addrs", "subflows", "next_id", "active_list", "backup_list",
        "primary_pairs", "outbox", "closed_ids",
    )

    def __init__(
        self, local_addrs: List[EndpointAddress], remote_addrs: List[EndpointAddress],
        subflows: Optional[List[SubflowState]] = None, next_id: int = 1,
        active_list: Optional[List[InterfacePair]] = None,
        backup_list: Optional[List[InterfacePair]] = None,
        primary_pairs: Optional[List[InterfacePair]] = None,
        outbox: Optional[List[Tuple[int, MpPrioOption]]] = None,
    ) -> None:
        self.local_addrs = local_addrs
        self.remote_addrs = remote_addrs
        self.subflows = [] if subflows is None else subflows
        self.next_id = next_id
        self.active_list = [] if active_list is None else active_list
        self.backup_list = [] if backup_list is None else backup_list
        self.primary_pairs = [] if primary_pairs is None else primary_pairs
        self.outbox = [] if outbox is None else outbox
        self.closed_ids: List[int] = []

    __repr__ = _slots_repr

    def priority_lists(self) -> PriorityLists:
        return PriorityLists(tuple(self.active_list), tuple(self.backup_list))

    def subflow_by_id(self, subflow_id: int) -> Optional[SubflowState]:
        """The sub-flow ``subflow_id`` or None. Ids go out in order from 1 and
        are never reused, so it is at index ``id - 1`` unless built by hand."""
        if isinstance(subflow_id, int) and 0 < subflow_id <= len(self.subflows):
            sf = self.subflows[subflow_id - 1]
            if sf.id == subflow_id:
                return sf
        for sf in self.subflows:
            if sf.id == subflow_id:
                return sf
        return None

    def alive_subflows(self) -> List[SubflowState]:
        return [sf for sf in self.subflows if sf.alive]

    def alive_subflow_on(self, pair: InterfacePair) -> Optional[SubflowState]:
        for sf in self.subflows:
            if sf.alive and sf.pair() == pair:
                return sf
        return None

    def mesh_pairs(self) -> List[InterfacePair]:
        """All (local, remote) pairs of the connection, local-index major."""
        return [
            InterfacePair.between(local, remote)
            for local in self.local_addrs
            for remote in self.remote_addrs
        ]


def _birth_priority(conn: ConnectionState, pair: InterfacePair) -> bool:
    # Primary pairs mean the primary-path-only scheduler, under which every
    # sub-flow off them is forced to backup, current and future alike.
    if conn.primary_pairs and pair not in conn.primary_pairs:
        return True
    return classify_subflow_priority(pair, conn)


def subflow_port(subflow_id: int) -> int:
    """The port of both endpoints of sub-flow ``subflow_id``: PORT_BASE +
    id, wrapped to stay within PORT_BASE..0xFFFF. Only an alive sub-flow's
    4-tuple must be unique, and the alive sub-flows have distinct pairs."""
    return PORT_BASE + subflow_id % (0x10000 - PORT_BASE)


def _add_subflow(
    conn: ConnectionState, src: EndpointAddress, dst: EndpointAddress
) -> SubflowState:
    sf = SubflowState(conn.next_id, src, dst)
    sf.low_prio = _birth_priority(conn, sf.pair())
    conn.next_id += 1
    conn.subflows.append(sf)
    return sf


def new_connection(
    local_addrs: List[EndpointAddress],
    remote_addrs: List[EndpointAddress],
) -> ConnectionState:
    """Create a connection with the full mesh of m x n sub-flows.

    Sub-flow ids are assigned in (local-index, remote-index) order starting
    at 1, and sub-flow ports deterministically by :func:`subflow_port`, so a
    fresh connection is fully reproducible.
    """
    if not local_addrs or not remote_addrs:
        raise ConfigurationError("both address lists must be non-empty")
    conn = ConnectionState(local_addrs=list(local_addrs), remote_addrs=list(remote_addrs))
    for local in conn.local_addrs:
        for remote in conn.remote_addrs:
            port = subflow_port(conn.next_id)
            src = EndpointAddress._make((local.family, local.address, port))
            dst = EndpointAddress._make((remote.family, remote.address, port))
            _add_subflow(conn, src, dst)
    return conn


def list_subflow_ids(conn: ConnectionState) -> List[int]:
    """Ids of all alive sub-flows, in id order."""
    return sorted(sf.id for sf in conn.subflows if sf.alive)


def get_subflow_tuple(
    conn: ConnectionState, subflow_id: int
) -> Tuple[EndpointAddress, EndpointAddress]:
    """The (source, destination) endpoints of the sub-flow, ports included."""
    sf = conn.subflow_by_id(subflow_id)
    if sf is None:
        raise NotFoundError(f"no sub-flow with id {subflow_id}")
    return (sf.src, sf.dst)


def open_subflow(
    conn: ConnectionState, endpoints: Tuple[EndpointAddress, EndpointAddress]
) -> int:
    """Open a sub-flow over an explicit 4-tuple and return its fresh id.

    The new sub-flow's priority is derived from the interface lists at this
    moment (the persistence hook): nothing is inherited from any earlier
    sub-flow over the same pair.
    """
    src, dst = endpoints
    for sf in conn.subflows:
        if sf.alive and sf.src == src and sf.dst == dst:
            raise AlreadyExistsError(f"sub-flow {sf.id} already bound to this tuple")
    return _add_subflow(conn, src, dst).id


def close_subflow(conn: ConnectionState, subflow_id: int) -> None:
    """Close an alive sub-flow. Its id is never reused and it is never
    scheduled again; a later sub-flow over the same pair gets a new id."""
    sf = conn.subflow_by_id(subflow_id)
    if sf is None or not sf.alive:
        raise NotFoundError(f"no alive sub-flow with id {subflow_id}")
    sf.alive = False
    conn.closed_ids.append(subflow_id)
