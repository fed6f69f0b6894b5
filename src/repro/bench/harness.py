"""The Figure-8/9 sweep engine.

For each (selectivity, activity) grid point: build a fresh workload
table, create one snapshot per algorithm (differential / ideal / full),
settle them with an initial refresh, apply the modification stream, then
measure one refresh of each algorithm.  Entries transmitted are reported
as a percentage of the *current* base-table size, next to the analytical
model's prediction for the same point.

``differential`` runs on the paper's path — a manager with
``use_page_summaries=False``: no page cache, Figure 3's own arming rule.
``mirrored`` is the same snapshot through the manager's defaults, which
arm the ``Deletion`` flag from what the page cache says the snapshot
holds: this system's curve, inside the paper's gap to *ideal*.

Every cell also validates correctness: after its measured refresh,
every snapshot must hold exactly the qualified rows.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.model import (
    differential_fraction,
    distinct_touched_fraction,
    full_fraction,
    ideal_fraction,
)
from repro.core.manager import SnapshotManager
from repro.errors import ReproError
from repro.workload.generator import MixedWorkload, WorkloadMix


class SweepCell:
    """Measurements for one (selectivity, activity) grid point."""

    __slots__ = (
        "selectivity",
        "activity",
        "base_size",
        "distinct_fraction",
        "entries",
        "bytes",
        "model",
        "fixup_writes",
    )

    def __init__(self, selectivity: float, activity: float) -> None:
        self.selectivity = selectivity
        self.activity = activity
        self.base_size = 0
        self.distinct_fraction = 0.0
        self.entries: "dict[str, int]" = {}
        self.bytes: "dict[str, int]" = {}
        self.model: "dict[str, float]" = {}
        self.fixup_writes = 0

    def percent(self, method: str) -> float:
        """Entries sent by ``method`` as % of the base table."""
        if self.base_size == 0:
            return 0.0
        return 100.0 * self.entries[method] / self.base_size

    def model_percent(self, method: str) -> float:
        return 100.0 * self.model[method]

    def __repr__(self) -> str:
        measured = {m: round(self.percent(m), 2) for m in self.entries}
        return (
            f"SweepCell(q={self.selectivity}, u={self.activity}, "
            f"%sent={measured})"
        )


def traffic_sweep(
    selectivities: Sequence[float],
    activities: Sequence[float],
    n: int = 2000,
    seed: int = 7,
    mix: Optional[WorkloadMix] = None,
    validate: bool = True,
    optimize_deletes: bool = False,
    preserve_qualification: bool = True,
) -> "list[SweepCell]":
    """Run the full grid; return one :class:`SweepCell` per point.

    The default ``preserve_qualification=True`` matches the paper's
    Figure-8/9 workload assumption (updates do not move entries in or
    out of the restriction); set it False for the harsher variant where
    every update re-draws qualification.
    """
    cells = []
    for selectivity in selectivities:
        for activity in activities:
            cells.append(
                _run_cell(
                    selectivity,
                    activity,
                    n,
                    seed,
                    mix,
                    validate,
                    optimize_deletes,
                    preserve_qualification,
                )
            )
    return cells


def _run_cell(
    selectivity: float,
    activity: float,
    n: int,
    seed: int,
    mix: Optional[WorkloadMix],
    validate: bool,
    optimize_deletes: bool,
    preserve_qualification: bool,
) -> SweepCell:
    workload = MixedWorkload(
        n,
        selectivity,
        seed=seed,
        mix=mix,
        preserve_qualification=preserve_qualification,
    )
    manager = SnapshotManager(workload.db)
    paper = SnapshotManager(workload.db, use_page_summaries=False)
    table_name = workload.table.name
    where = workload.restriction_text

    snapshots = {
        name: (paper if name == "differential" else manager).create_snapshot(
            f"sweep_{name}",
            table_name,
            where=where,
            method="differential" if name == "mirrored" else name,
            optimize_deletes=optimize_deletes,  # differential methods only
        )
        for name in ("differential", "mirrored", "ideal", "full")
    }

    workload.apply_activity(activity)

    cell = SweepCell(selectivity, activity)
    for name, snapshot in snapshots.items():
        result = snapshot.refresh()
        cell.entries[name] = result.entries_sent
        cell.bytes[name] = result.bytes_sent
        if name == "differential":  # the first refresh: it does the fix-up
            cell.fixup_writes = result.fixup_writes
    cell.base_size = workload.live_count

    if validate:
        truth = workload.qualified_map()
        for snapshot in snapshots.values():
            got = snapshot.as_map()
            if got != truth:
                raise ReproError(
                    f"{snapshot.name} diverged at q={selectivity}, "
                    f"u={activity}: {len(got)} rows vs {len(truth)} expected"
                )

    d = distinct_touched_fraction(activity, n)
    cell.distinct_fraction = d
    cell.model = {
        "differential": differential_fraction(selectivity, d),
        "ideal": ideal_fraction(selectivity, d),
        "full": full_fraction(selectivity),
    }
    return cell
