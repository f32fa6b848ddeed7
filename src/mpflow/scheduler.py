"""Per-segment sub-flow selection.

Two selectors are provided:

* :func:`select_default` is the usual lowest-RTT scheduler: pick the
  schedulable active sub-flow with the smallest smoothed RTT, and use backup
  sub-flows only when no active sub-flow is alive at all. While an active
  sub-flow is alive but window-limited, data waits for it rather than
  leaking onto backups.

* :func:`select_ppos` is the primary-path-only scheduler: as long as any
  sub-flow on a designated primary pair is alive, all data goes there; on
  primary failure it falls back to the remaining sub-flows, and because the
  choice is re-evaluated per segment, traffic returns to the primary as
  soon as a sub-flow on it exists again.

Both selectors are pure functions of (connection state, mss, window) and
break smoothed-RTT ties by lowest sub-flow id, so scheduling is fully
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Collection, Optional, Tuple

from .model import (
    ConfigurationError,
    ConnectionState,
    InterfacePair,
    SubflowState,
)


class ChoiceReason(Enum):
    ACTIVE_PATH = "active-path"
    BACKUP_FALLBACK = "backup-fallback"
    PRIMARY_PATH = "primary-path"
    NO_PATH = "no-path"


@dataclass(frozen=True)
class SchedulerDecision:
    """Outcome of one selection; ``chosen`` is None iff reason is NO_PATH."""

    chosen: Optional[int]
    reason: ChoiceReason


_NO_PATH = SchedulerDecision(None, ChoiceReason.NO_PATH)


class _Decisions(dict):
    """The decisions for one reason, keyed by chosen id. A decision is
    immutable, so one instance per (id, reason) is built and then shared by
    every caller; this saves building one per segment."""

    def __init__(self, reason: ChoiceReason) -> None:
        super().__init__()
        self.reason = reason

    def __missing__(self, chosen: int) -> SchedulerDecision:
        decision = self[chosen] = SchedulerDecision(chosen, self.reason)
        return decision


_ACTIVE = _Decisions(ChoiceReason.ACTIVE_PATH)
_BACKUP = _Decisions(ChoiceReason.BACKUP_FALLBACK)
_PRIMARY = _Decisions(ChoiceReason.PRIMARY_PATH)


def is_schedulable(sf: SubflowState, mss: int, window: int) -> bool:
    """True iff the sub-flow is alive and one more MSS fits in its window."""
    return sf.alive and sf.inflight_bytes + mss <= window


def _select_tiered(
    conn: ConnectionState,
    primary: Collection[InterfacePair],
    tiers: Tuple[_Decisions, ...],
    mss: int,
    window: int,
) -> SchedulerDecision:
    """One pass over the sub-flows, grouped into tiers of decreasing
    preference. With two ``tiers`` they are [active, backup]; with three
    they are [on a ``primary`` pair, off-primary active, off-primary
    backup]. ``tiers[t]`` holds the decisions for a choice from tier ``t``.

    The first tier with any alive member decides: it yields its schedulable
    member with the lowest (srtt_us, id), or NO_PATH if none is schedulable.
    """
    limit = window - mss
    offset = len(tiers) - 2  # tier of an off-primary active sub-flow
    best: Optional[SubflowState] = None
    best_tier = len(tiers)
    best_srtt = 0
    for sf in conn.subflows:
        if not sf.alive:
            continue
        if primary and sf.pair() in primary:
            tier = 0
        else:
            tier = offset + sf.low_prio
        if tier > best_tier:
            continue
        if tier < best_tier:
            best_tier = tier
            best = None
        if sf.inflight_bytes > limit:  # not is_schedulable
            continue
        srtt = sf.srtt_us
        if best is None or srtt < best_srtt or (srtt == best_srtt and sf.id < best.id):
            best = sf
            best_srtt = srtt
    if best is None:
        return _NO_PATH
    return tiers[best_tier][best.id]


def select_default(conn: ConnectionState, mss: int, window: int) -> SchedulerDecision:
    """Lowest-RTT selection with backup fallback.

    Backup sub-flows are used to transmit data only when no active sub-flow
    is available: an alive active that is merely window-limited holds the
    segment back (NO_PATH) instead of diverting it to a backup.
    """
    return _select_tiered(conn, (), (_ACTIVE, _BACKUP), mss, window)


def select_ppos(conn: ConnectionState, mss: int, window: int) -> SchedulerDecision:
    """Primary-path-only selection.

    All data goes to sub-flows on the primary pairs while any of them is
    alive (min srtt arbitrates among several). Only when no primary-pair
    sub-flow is alive does the selection fall back to the remaining
    sub-flows, actives before backups, reported as BACKUP_FALLBACK whatever
    their flag.
    """
    if not conn.primary_path_only:
        raise ConfigurationError("primary-path-only scheduling is not enabled")
    tiers = (_PRIMARY, _BACKUP, _BACKUP)
    return _select_tiered(conn, conn.primary_pairs, tiers, mss, window)


def select(conn: ConnectionState, mss: int, window: int) -> SchedulerDecision:
    """Dispatch to the connection's configured selector."""
    if conn.primary_path_only:
        return select_ppos(conn, mss, window)
    return select_default(conn, mss, window)
