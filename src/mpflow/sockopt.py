"""Socket-option style control surface for sub-flow priorities.

These operations are the public API an application drives a connection
with: flip one sub-flow between active and backup, maintain the persistent
active/backup interface lists, and enable the primary-path-only scheduler.
Every local priority flip also queues an MP_PRIO signal for the peer on
``conn.outbox``, as ``(sub-flow id, option)``: the option carries no
addr_id, because it travels on the sub-flow it names (RFC 8684 §3.3.8).
"""

from __future__ import annotations

from typing import List, NamedTuple

from .model import (
    ConnectionState,
    InterfacePair,
    NotFoundError,
    SubflowState,
    ValidationError,
)
from .wire import MpPrioOption

__all__ = [
    "SubPrioRequest",
    "set_subflow_priority",
    "apply_remote_mp_prio",
    "set_active_interface_list",
    "set_backup_interface_list",
    "enable_primary_path_only",
]


class SubPrioRequest(NamedTuple):
    """Request to set one sub-flow's priority: (id, low_prio)."""

    id: int
    low_prio: bool


# The only two options a local flip queues, built once: an option is immutable.
_ACTIVE, _BACKUP = MpPrioOption(backup_flag=False), MpPrioOption(backup_flag=True)


def _set_flag_and_signal(conn: ConnectionState, sf: SubflowState, low_prio: bool) -> None:
    sf.low_prio = low_prio
    conn.outbox.append((sf.id, _BACKUP if low_prio else _ACTIVE))


def set_subflow_priority(conn: ConnectionState, req: SubPrioRequest) -> None:
    """Make a sub-flow active (low_prio=False) or backup (low_prio=True).

    Always queues exactly one MP_PRIO signal for the peer on the sub-flow,
    even when the requested value equals the current one. Takes effect for the next
    scheduling decision.
    """
    sf = conn.subflow_by_id(req.id)
    if sf is None or not sf.alive:
        raise NotFoundError(f"no alive sub-flow with id {req.id}")
    _set_flag_and_signal(conn, sf, req.low_prio)


def apply_remote_mp_prio(conn: ConnectionState, opt: MpPrioOption, received_on: int) -> None:
    """Apply a peer's MP_PRIO signal to the sub-flow it arrived on,
    ``received_on`` (RFC 8684 §3.3.8). An addr_id names one of the peer's
    addresses, not a sub-flow, and is ignored. A signal on no alive
    sub-flow is ignored with a diagnostic, per liberal-receive.
    """
    sf = conn.subflow_by_id(received_on)
    if sf is None or not sf.alive:
        import logging  # only on the branch that logs, to keep it off ``import mpflow``

        logging.getLogger(__name__).debug(
            "MP_PRIO for unknown or dead sub-flow %r; ignored", received_on
        )
        return
    sf.low_prio = opt.backup_flag


def _replace_list(target: List[InterfacePair], pairs: List[InterfacePair]) -> None:
    for pair in pairs:
        if not isinstance(pair, InterfacePair):
            raise ValidationError(f"not an interface pair: {pair!r}")
    # set semantics, first occurrence wins for ordering
    target[:] = list(dict.fromkeys(pairs))


def set_active_interface_list(conn: ConnectionState, pairs: List[InterfacePair]) -> None:
    """Replace the active interface list wholesale.

    Existing sub-flows keep their current priority; only sub-flows created
    from now on consult the new list.
    """
    _replace_list(conn.active_list, pairs)


def set_backup_interface_list(conn: ConnectionState, pairs: List[InterfacePair]) -> None:
    """Replace the backup interface list wholesale. Same non-retroactive
    semantics as :func:`set_active_interface_list`."""
    _replace_list(conn.backup_list, pairs)


def enable_primary_path_only(
    conn: ConnectionState, primary_pairs: List[InterfacePair]
) -> None:
    """Enable the primary-path-only scheduler with an explicit primary set:
    :func:`mpflow.scheduler.select` follows the primary pairs once they are
    set.

    Every current and future sub-flow off the primary pairs becomes a backup
    sub-flow; each flipped sub-flow also gets an MP_PRIO signal queued on it
    so the peer's view follows. Sub-flows on a primary pair keep the priority the
    lists give them, which is what lets a re-established primary sub-flow
    come back active.
    """
    if not primary_pairs:
        raise ValidationError("primary pair set must be non-empty")
    mesh = set(conn.mesh_pairs())
    for pair in primary_pairs:
        if pair not in mesh:
            raise ValidationError(f"{pair} is not a (local, remote) pair of this connection")
    conn.primary_pairs = list(dict.fromkeys(primary_pairs))
    for sf in conn.subflows:
        if not sf.alive:
            continue
        if sf.pair() not in conn.primary_pairs and not sf.low_prio:
            _set_flag_and_signal(conn, sf, True)
