"""A20 — fleet-scale refresh: registry due-tracking and cohort drain.

Two questions, one experiment per answer:

1. **Due-tracking cost.**  The original scheduler walked every scheduled
   snapshot on every observed commit — O(fleet) per op.  The registry's
   per-base deadline heap pays O(1) amortized per op until a deadline
   actually crosses.  The microbench clocks both per-op at fleet sizes
   N/10N/50N; the registry's per-op cost must stay flat while the linear
   walk grows with the fleet.

2. **Fleet refresh throughput.**  With tens of snapshots per base
   table, refreshing each one solo re-scans the base once per snapshot.
   The drain takes signature/band-clustered cohorts stalest first and
   each cohort rides ONE shared-scan pass, so pages scanned per drain scale
   with the number of *passes*, not the number of *snapshots*.  The
   drain is clocked against the independent-solo baseline at FLEET_N
   (floor: >= 3x at 1k and above, >= 2x for CI smoke sizes), and pages
   scanned per full drain are compared at FLEET_N vs 10*FLEET_N — a 10x
   fleet must cost well under 10x the pages (sub-linear growth).

Fleet staleness is reported alongside: p50/p99 of per-snapshot average
staleness (ops of unseen changes, time-averaged) after a dirty+drain
round, straight from the registry's closed-form accounting.

Runs as a pytest benchmark and as a plain script; ``FLEET_N`` overrides
the fleet size (CI smoke-runs it small).
"""

from __future__ import annotations

import os
import random
import sys

if __package__ in (None, ""):  # script mode: `python benchmarks/bench_fleet.py`
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.core.cursor import RefreshCursor
from repro.core.differential import DifferentialRefresher
from repro.core.group import GroupRefresher
from repro.core.registry import SnapshotRegistry
from repro.database import Database
from repro.expr.predicate import Projection, Restriction
from repro.txn.clock import wall_timer

from benchmarks._util import emit, emit_json

N = int(os.environ.get("FLEET_N", "1000"))
BASES = 8
ROWS_PER_BASE = 256
DIRTY_FRACTION = 0.05
#: Per-base predicate pool; round-robin assignment, so each base's fleet
#: collapses to four cohort signatures (shared-scan fan-out is what the
#: drain is selling).
PREDICATES = ("v < 192", "v >= 32", "v < 128", "v >= 0")
FLOOR_SPEEDUP_FULL = 3.0  # at FLEET_N >= 1000
FLOOR_SPEEDUP_SMOKE = 2.0
FLOOR_REGISTRY_SPEEDUP = 5.0  # vs the linear walk at the largest size
FLOOR_PAGES_RATIO = 8.0  # pages(10x fleet) / pages(1x) — sub-linear
SEED = 1986


# -- part 1: due-tracking microbench ------------------------------------------


def _measure_registry_per_op(n: int) -> float:
    registry = SnapshotRegistry()
    for i in range(n):
        registry.register(f"s{i}", "t", every_ops=10**9)
    timer = wall_timer()
    ops = 2_000
    begin = timer()
    for _ in range(ops):
        registry.observe("t", 1)
    return (timer() - begin) / ops


def _measure_linear_walk_per_op(n: int) -> float:
    # The pre-registry scheduler hot path: visit every entry per op.
    entries = [{"pending": 0, "every": 10**9} for _ in range(n)]
    timer = wall_timer()
    ops = max(10, 200_000 // n)
    begin = timer()
    for _ in range(ops):
        for entry in entries:
            entry["pending"] += 1
            if entry["pending"] >= entry["every"]:
                entry["pending"] = 0
    return (timer() - begin) / ops


# -- part 2: fleet drain vs independent solo ----------------------------------


class _FleetWorld:
    """FLEET_N snapshots over BASES small tables, due and dirty."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.db = Database("bench-fleet", buffer_capacity=1024)
        self.tables = []
        self.projections = []
        self.restrictions = []
        for b in range(BASES):
            table = self.db.create_table(
                f"t{b}", [("v", "int")], annotations="lazy"
            )
            table.bulk_load([[i] for i in range(ROWS_PER_BASE)])
            self.tables.append(table)
            self.projections.append(Projection(table.schema))
            self.restrictions.append(
                [Restriction.parse(p, table.schema) for p in PREDICATES]
            )
        self.registry = SnapshotRegistry(cohort_size=max(64, n))
        #: member index -> (base index, restriction, cache, snap_time)
        self.members: "list[dict]" = []
        for i in range(n):
            b = i % BASES
            restriction = self.restrictions[b][i % len(PREDICATES)]
            self.members.append(
                {"base": b, "restriction": restriction, "cache": {}, "snap": 0}
            )
            self.registry.register(
                str(i), f"t{b}", every_ops=1, restriction=restriction
            )
        self._prime()
        self._dirty()

    def _cursor(self, i: int, sink) -> RefreshCursor:
        member = self.members[i]
        return RefreshCursor(
            member["snap"],
            member["restriction"],
            self.projections[member["base"]],
            sink,
            cache=member["cache"],
            name=str(i),
        )

    def _prime(self) -> None:
        # One shared pass per base brings every member to "fresh": the
        # measured phase below is pure differential work in both worlds.
        by_base: "dict[int, list[int]]" = {}
        for i, member in enumerate(self.members):
            by_base.setdefault(member["base"], []).append(i)
        for b, indices in by_base.items():
            cursors = [self._cursor(i, lambda m: None) for i in indices]
            outcome = GroupRefresher(self.tables[b]).refresh_group(cursors)
            assert not outcome.errors
            for i in indices:
                self.members[i]["snap"] = outcome.per_snapshot[
                    str(i)
                ].new_snap_time

    def _dirty(self) -> None:
        rng = random.Random(SEED)
        count = max(1, int(ROWS_PER_BASE * DIRTY_FRACTION))
        for b, table in enumerate(self.tables):
            rids = [rid for rid, _ in table.scan(visible=True)]
            for rid in rng.sample(rids, count):
                table.update(rid, {"v": rng.randrange(ROWS_PER_BASE)})
            self.registry.observe(f"t{b}", count)


def _measure_solo(n: int) -> dict:
    world = _FleetWorld(n)
    timer = wall_timer()
    refreshed = entries = pages = 0
    begin = timer()
    for i, member in enumerate(world.members):
        refresher = DifferentialRefresher(world.tables[member["base"]])
        result = refresher.refresh(
            member["snap"],
            member["restriction"],
            world.projections[member["base"]],
            lambda m: None,
            cache=member["cache"],
        )
        member["snap"] = result.new_snap_time
        refreshed += 1
        entries += result.entries_sent
        pages += result.pages_scanned
    seconds = timer() - begin
    return {
        "refreshed": refreshed,
        "entries": entries,
        "pages_scanned": pages,
        "seconds": seconds,
    }


def _measure_drain(n: int) -> dict:
    world = _FleetWorld(n)
    registry = world.registry
    timer = wall_timer()
    refreshed = entries = pages = passes = 0
    begin = timer()
    while True:
        cohort = registry.next_cohort()
        if cohort is None:
            break
        indices = [int(name) for name in cohort.members]
        b = world.members[indices[0]]["base"]
        cursors = [world._cursor(i, lambda m: None) for i in indices]
        outcome = GroupRefresher(world.tables[b]).refresh_group(cursors)
        assert not outcome.errors
        for i in indices:
            result = outcome.per_snapshot[str(i)]
            world.members[i]["snap"] = result.new_snap_time
            registry.mark_refreshed(str(i), shipped=result.entries_sent)
            entries += result.entries_sent
        refreshed += len(indices)
        pages += outcome.pass_result.pages_scanned
        passes += 1
    seconds = timer() - begin
    staleness = sorted(
        record.average_staleness for record in registry.records()
    )

    def pct(q: float) -> float:
        return staleness[min(len(staleness) - 1, int(q * len(staleness)))]

    return {
        "refreshed": refreshed,
        "entries": entries,
        "pages_scanned": pages,
        "passes": passes,
        "seconds": seconds,
        "staleness_p50": pct(0.50),
        "staleness_p99": pct(0.99),
    }


def run(n: int = N):
    # Part 1: due-tracking per-op cost, fleet sizes n / 10n / 50n.
    tracking = []
    for size in (n, 10 * n, 50 * n):
        reg_us = 1e6 * _measure_registry_per_op(size)
        walk_us = 1e6 * _measure_linear_walk_per_op(size)
        tracking.append(
            {
                "fleet": size,
                "registry_us_per_op": reg_us,
                "linear_walk_us_per_op": walk_us,
                "speedup": walk_us / reg_us if reg_us else float("inf"),
            }
        )
    emit(
        "fleet_tracking",
        f"A20a: due-tracking cost per observed op (fleet {n}..{50 * n})",
        ["fleet", "registry µs/op", "linear walk µs/op", "speedup"],
        [
            [
                t["fleet"],
                f"{t['registry_us_per_op']:.2f}",
                f"{t['linear_walk_us_per_op']:.2f}",
                f"{t['speedup']:.1f}x",
            ]
            for t in tracking
        ],
    )

    # Part 2: drain vs solo at n; drain alone at 10n for page growth.
    solo = _measure_solo(n)
    drain = _measure_drain(n)
    assert solo["refreshed"] == drain["refreshed"] == n
    # Same dirty pattern, same predicates: both worlds ship the same
    # entries — the drain just pays far fewer scans for them.
    assert solo["entries"] == drain["entries"]
    drain_10x = _measure_drain(10 * n)
    speedup = solo["seconds"] / drain["seconds"] if drain["seconds"] else 0.0
    pages_ratio = (
        drain_10x["pages_scanned"] / drain["pages_scanned"]
        if drain["pages_scanned"]
        else 0.0
    )
    emit(
        "fleet_refresh",
        f"A20b: fleet drain vs independent solo refresh (FLEET_N={n})",
        ["mode", "fleet", "refreshes/s", "pages scanned", "passes", "p50/p99 staleness"],
        [
            [
                "solo",
                n,
                f"{n / solo['seconds']:.0f}",
                solo["pages_scanned"],
                n,
                "-",
            ],
            [
                "cohort drain",
                n,
                f"{n / drain['seconds']:.0f}",
                drain["pages_scanned"],
                drain["passes"],
                f"{drain['staleness_p50']:.1f}/{drain['staleness_p99']:.1f}",
            ],
            [
                "cohort drain",
                10 * n,
                f"{10 * n / drain_10x['seconds']:.0f}",
                drain_10x["pages_scanned"],
                drain_10x["passes"],
                f"{drain_10x['staleness_p50']:.1f}/{drain_10x['staleness_p99']:.1f}",
            ],
        ],
    )

    floor_speedup = FLOOR_SPEEDUP_FULL if n >= 1000 else FLOOR_SPEEDUP_SMOKE
    emit_json(
        "fleet_refresh",
        {
            "fleet_n": n,
            "tracking": tracking,
            "solo": solo,
            "drain": drain,
            "drain_10x": drain_10x,
            "throughput_speedup": speedup,
            "pages_ratio_10x": pages_ratio,
            "floor": {
                "min_throughput_speedup": floor_speedup,
                "measured_speedup": speedup,
                "max_pages_ratio_10x": FLOOR_PAGES_RATIO,
                "measured_pages_ratio_10x": pages_ratio,
                "min_registry_speedup_at_largest": FLOOR_REGISTRY_SPEEDUP,
                "measured_registry_speedup_at_largest": tracking[-1]["speedup"],
            },
        },
    )

    assert speedup >= floor_speedup, (speedup, floor_speedup)
    assert pages_ratio <= FLOOR_PAGES_RATIO, pages_ratio
    assert tracking[-1]["speedup"] >= FLOOR_REGISTRY_SPEEDUP, tracking[-1]
    return {"tracking": tracking, "solo": solo, "drain": drain}


def test_fleet_refresh():
    run(N)


if __name__ == "__main__":
    run(N)
