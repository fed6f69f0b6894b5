"""The four workloads, and why each exists.

Each stresses a different layer, so that for every optimisation one
workload exercises its mechanism and another bypasses it.  Row counts
are stated against the 256-frame buffer pool (about 61 rows per page).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .gen import Mix

SOLO, GROUP, ONLINE = "solo", "group", "online"


@dataclass(frozen=True)
class SnapshotSpec:
    name: str
    #: Restriction ``branch < q``: selectivity ``q / 100``.
    q: int
    columns: "Optional[tuple[str, ...]]" = None
    compress: bool = False
    delta_updates: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    mix: Mix
    #: Ops per round, as a share of ``rows``.
    round_share: float
    snapshots: "tuple[SnapshotSpec, ...]"
    #: How a round refreshes: ``refresh`` / ``refresh_all`` / ``refresh_online``.
    mode: str
    #: Measured rounds when no ``--seconds`` is given.  Fixed, so that
    #: every count repeats exactly for a seed.
    rounds: int
    #: Rounds between oracle checks (one scan of the base table each).
    check_every: int

    @property
    def ops_per_round(self) -> int:
        return max(1, int(self.rows * self.round_share))


_PROJECTED = ("id", "balance", "v")

WORKLOADS = (
    # 100k rows (6x the pool), 1% uniform updates: most pages are written,
    # so the per-row scan does the work and skip and batch do little.
    Workload(
        name="sparse_uniform",
        rows=100_000,
        mix=Mix(insert=0.0, update=1.0, delete=0.0),
        round_share=0.01,
        snapshots=(SnapshotSpec("solo", q=25),),
        mode=SOLO,
        rounds=48,
        check_every=10,
    ),
    # Same table, 95% of updates on the lowest-address 2% of rows:
    # summary-skip bypasses the scan, so write hooks and fixed costs show.
    Workload(
        name="hot_clustered",
        rows=100_000,
        mix=Mix(insert=0.0, update=1.0, delete=0.0, hot_share=0.95, hot_rows=0.02),
        round_share=0.01,
        snapshots=(SnapshotSpec("solo", q=25),),
        mode=SOLO,
        rounds=150,
        check_every=50,
    ),
    # 12k rows (fits the pool), 5% insert/update/delete churn, 8 snapshots
    # on one shared pass: scan paid once, codec x8 and receiver dominate.
    Workload(
        name="churn_fanout",
        rows=12_000,
        mix=Mix(insert=0.2, update=0.6, delete=0.2),
        round_share=0.05,
        snapshots=tuple(
            SnapshotSpec(
                f"fan{index}",
                q=q,
                columns=_PROJECTED if index % 3 == 0 else None,
                compress=index % 2 == 1,
                delta_updates=index % 4 >= 2,
            )
            for index, q in enumerate((100, 75, 50, 35, 25, 15, 10, 5))
        ),
        mode=GROUP,
        rounds=40,
        check_every=10,
    ),
    # 50k rows, half of each round's writes land at chunk boundaries of
    # refresh_online: chunk and repair cost shows as writer stall.
    Workload(
        name="online_writers",
        rows=50_000,
        mix=Mix(insert=0.1, update=0.8, delete=0.1),
        round_share=0.01,
        snapshots=(SnapshotSpec("solo", q=25),),
        mode=ONLINE,
        rounds=48,
        check_every=12,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
