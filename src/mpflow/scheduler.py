"""Sub-flow selection.

:func:`select` serves both of the connection's schedulers. It ranks every
alive sub-flow into a tier of decreasing preference:

* tier 0: a sub-flow on one of the connection's primary pairs;
* tier 1: any other active sub-flow;
* tier 2: any other backup sub-flow.

The lowest tier with an alive member decides. It yields its schedulable
member with the lowest smoothed RTT, ties broken by lowest id, or no
sub-flow at all if every member is window-limited: data waits for an alive
preferred sub-flow rather than leaking onto a less preferred one.

With no primary pairs this is the usual lowest-RTT scheduler, which uses
backup sub-flows only when no active sub-flow is alive. Setting primary
pairs (:func:`mpflow.sockopt.enable_primary_path_only`) turns it into the
primary-path-only scheduler: all data goes to the primary pairs while a
sub-flow on one of them is alive, falls back to the remaining sub-flows on
primary failure, and returns to the primary as soon as a sub-flow on it
exists again.

The decision names the deciding tier, and :func:`tier` ranks one
sub-flow. Sending on a sub-flow changes nothing but its own window, and a
sub-flow's tier changes only with its flag, its life or the primary pairs.
So the simulator ranks a sub-flow with :func:`tier` at its birth and again
only where one of those may have changed (an action that flips or closes
it or sets the primary pairs, its death), counts the alive sub-flows by
tier, and reads the deciding tier from the counts; :func:`select` names it
once, at the start of a run. The simulator fills the windows of the
deciding tier's members when that tier moves or a member joins it, and
refills each of them as its acks free window; the segments go where a
fresh :func:`select` per segment would send them.

Selection is a pure function of (connection state, mss, window), so
scheduling is fully deterministic.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from .model import ConnectionState, SubflowState


class ChoiceReason(Enum):
    ACTIVE_PATH = "active-path"
    BACKUP_FALLBACK = "backup-fallback"
    PRIMARY_PATH = "primary-path"
    NO_PATH = "no-path"


class SchedulerDecision(NamedTuple):
    """Outcome of one selection; ``chosen`` is None iff reason is NO_PATH.
    ``tier`` is the deciding tier, None iff no sub-flow is alive."""

    chosen: Optional[int]
    reason: ChoiceReason
    tier: Optional[int]


# The reason for a choice from each tier, without and with primary pairs.
_REASONS = (ChoiceReason.PRIMARY_PATH, ChoiceReason.ACTIVE_PATH, ChoiceReason.BACKUP_FALLBACK)
_PPOS_REASONS = (
    ChoiceReason.PRIMARY_PATH,
    ChoiceReason.BACKUP_FALLBACK,
    ChoiceReason.BACKUP_FALLBACK,
)


def tier(conn: ConnectionState, sf: SubflowState) -> int:
    """The tier of sub-flow ``sf`` of ``conn`` (see the module docstring)."""
    primary = conn.primary_pairs
    return 0 if primary and sf.pair() in primary else 1 + sf.low_prio


def is_schedulable(sf: SubflowState, mss: int, window: int) -> bool:
    """True iff the sub-flow is alive and one more MSS fits in its window."""
    return sf.alive and sf.inflight_bytes + mss <= window


def select(conn: ConnectionState, mss: int, window: int) -> SchedulerDecision:
    """One pass over the sub-flows: the lowest tier with an alive member
    decides (see the module docstring), and NO_PATH means that none of its
    members is schedulable.

    A choice from tier 0 is PRIMARY_PATH. With primary pairs set, a choice
    from tier 1 or 2 is BACKUP_FALLBACK whatever the sub-flow's flag;
    without, tier 1 is ACTIVE_PATH and tier 2 BACKUP_FALLBACK.
    """
    limit = window - mss
    best: Optional[SubflowState] = None
    best_tier = len(_REASONS)  # no alive sub-flow seen yet
    best_srtt = 0
    for sf in conn.subflows:
        if not sf.alive:
            continue
        rank = tier(conn, sf)
        if rank > best_tier:
            continue
        if rank < best_tier:
            best_tier = rank
            best = None
        if sf.inflight_bytes > limit:  # not is_schedulable
            continue
        srtt = sf.srtt_us
        if best is None or srtt < best_srtt or (srtt == best_srtt and sf.id < best.id):
            best = sf
            best_srtt = srtt
    if best is None:
        deciding = best_tier if best_tier < len(_REASONS) else None
        return SchedulerDecision(None, ChoiceReason.NO_PATH, deciding)
    reasons = _PPOS_REASONS if conn.primary_pairs else _REASONS
    return SchedulerDecision(best.id, reasons[best_tier], best_tier)
