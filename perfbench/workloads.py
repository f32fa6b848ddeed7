"""Workload definitions: seeded scenario generators and the checkout import.

Each workload is a list of (name, scenario text) pairs plus a bucket width.
The generators only write text; the program under test receives nothing but
that text, through ``mpflow.parse_scenario``.

A generator keeps the amount of work it asks for fixed and lets the seed
choose the details (which links, when, in which order), so that two seeds
cost about the same and the run-to-run spread measures the program, not the
draw.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import List, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_mpflow():
    """Import the ``mpflow`` package of this checkout, never an installed one."""
    sys.path.insert(0, str(SRC))
    try:
        import mpflow
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import mpflow from {SRC}: {exc}")
    if Path(mpflow.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: imported mpflow from {mpflow.__file__}, not {SRC}")
    return mpflow


class Workload(NamedTuple):
    bucket_ms: int
    docs: List[Tuple[str, str]]


PAPER_FIGS = ("fig4", "fig5", "fig6_default", "fig6_ppos")


def paper_figs(seed: int, builtin_docs) -> Workload:
    """The four shipped scenarios; the seed only rotates their order."""
    start = seed % len(PAPER_FIGS)
    names = PAPER_FIGS[start:] + PAPER_FIGS[:start]
    return Workload(1000, [(name, builtin_docs[name]) for name in names])


MESH_SIDE = 4
MESH_DURATION_MS = 10_000
MESH_SCENARIOS = 2
# One-way delays, permuted over the 16 links by the seed. All stay below the
# 18 ms at which the fixed 32-segment window stops filling a 10 Mbps link, so
# every link that is up carries the same rate and the seed does not change
# how much traffic a scenario carries.
MESH_DELAYS_MS = tuple(range(2, 18))
# Outage shapes (links taken down together, length), permuted by the seed.
# Every outage outlasts three retransmission timeouts, so it kills the
# sub-flows on its links, and they are re-created after it ends; the dead
# ones stay in the connection's sub-flow list.
MESH_OUTAGES = (
    (1, 2500), (2, 4000), (3, 3000), (1, 3500), (2, 2500), (3, 3500), (2, 3000), (2, 4000),
)
MESH_OUTAGE_SPACING_MS = 750


def _mesh_doc(name: str, rng: random.Random) -> str:
    delays = list(MESH_DELAYS_MS)
    rng.shuffle(delays)
    lines = [f"scenario {name}", f"duration {MESH_DURATION_MS}ms", ""]
    for i in range(MESH_SIDE):
        for j in range(MESH_SIDE):
            link_id = MESH_SIDE * i + j + 1
            lines.append(
                f"link {link_id} 10mbps {delays[link_id - 1]}ms 10.1.{i}.1 10.2.{j}.1"
            )
    lines.append("")
    outages = list(MESH_OUTAGES)
    rng.shuffle(outages)
    down_until = {link_id: 0 for link_id in range(1, MESH_SIDE * MESH_SIDE + 1)}
    for k, (width, length) in enumerate(outages):
        start = 500 + k * MESH_OUTAGE_SPACING_MS + rng.randrange(0, 250, 10)
        free = [link_id for link_id, until in down_until.items() if until <= start]
        targets = sorted(rng.sample(free, width))
        end = start + length
        for link_id in targets:
            down_until[link_id] = end
        ids = " ".join(map(str, targets))
        lines.append(f"at {start}ms link_down {ids}")
        lines.append(f"at {end}ms link_up {ids}")
    return "\n".join(lines) + "\n"


def mesh16_flaps(seed: int) -> Workload:
    """4x4 mesh of 10 Mbps links with overlapping 1-3 link outages."""
    rng = random.Random(f"mesh16_flaps/{seed}")
    return Workload(
        1000,
        [(f"mesh16_{k}", _mesh_doc(f"mesh16_{k}", rng)) for k in range(MESH_SCENARIOS)],
    )


CHURN_DURATION_MS = 100_000
CHURN_PERIOD_MS = 250
CHURN_SCENARIOS = 4
CHURN_TOPOLOGY = (
    "link 1 1mbps 100ms 10.0.0.1 10.0.1.1\n"
    "link 2 1mbps 100ms 10.0.0.1 10.0.2.1\n"
    "link 3 1mbps 100ms 10.0.0.1 10.0.3.1\n"
)


def _churn_doc(name: str, rng: random.Random) -> str:
    lines = [f"scenario {name}", f"duration {CHURN_DURATION_MS}ms", "", CHURN_TOPOLOGY]
    for k in range(1, CHURN_DURATION_MS // CHURN_PERIOD_MS):
        at = k * CHURN_PERIOD_MS + rng.randrange(-100, 101, 10)
        ids = sorted(rng.sample((1, 2, 3), rng.randint(1, 3)))
        roll = rng.random()
        if roll < 0.7:
            flag = rng.choice(("backup", "active"))
            lines.append(f"at {at}ms set_sub_prio {' '.join(map(str, ids))} {flag}")
        else:
            verb = "set_active_list" if roll < 0.85 else "set_backup_list"
            lines.append(f"at {at}ms {verb} {' '.join(map(str, ids))}")
    return "\n".join(lines) + "\n"


def prio_churn_fine(seed: int) -> Workload:
    """Canned 3-link topology, a priority or list change about every 250 ms,
    10 ms buckets. No outages, so sub-flow ids stay 1-3."""
    rng = random.Random(f"prio_churn_fine/{seed}")
    return Workload(
        10,
        [(f"churn_{k}", _churn_doc(f"churn_{k}", rng)) for k in range(CHURN_SCENARIOS)],
    )


WORKLOADS = ("paper_figs", "mesh16_flaps", "prio_churn_fine")


def make(name: str, seed: int, mpflow) -> Workload:
    if name == "paper_figs":
        return paper_figs(seed, mpflow.BUILTIN_DOCS)
    if name == "mesh16_flaps":
        return mesh16_flaps(seed)
    if name == "prio_churn_fine":
        return prio_churn_fine(seed)
    raise SystemExit(f"perfbench: unknown workload {name!r}; have {', '.join(WORKLOADS)}")
