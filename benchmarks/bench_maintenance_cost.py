"""A12 — the cost of eager vs lazy annotation maintenance.

The paper's central motivation for batch maintenance: the eager variant
"has a serious impact on operations which insert or delete from the base
table" (each one must also update its successor's annotations), while
under lazy maintenance "base table operations ... has little effect upon
the performance and complexity of the base table operations" — the cost
moves to the refresh, "which *should* bear the costs associated with
maintaining the snapshot".

Measured: physical record writes per base operation (heap-level insert/
update/delete counts), page compactions and wall time, for the same
operation stream over
(a) a plain table, (b) a lazily annotated table, (c) an eagerly
annotated table — then the refresh-side bill for each annotated mode.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.differential import DifferentialRefresher
from repro.database import Database
from repro.expr.predicate import Projection, Restriction

from benchmarks._util import emit

N = 1_000
OPERATIONS = 1_000


def _drive(mode):
    rng = random.Random(12)
    db = Database("hq")
    annotations = None if mode == "none" else mode
    table = db.create_table("t", [("v", "int")], annotations=annotations)
    if mode == "eager":
        live = [table.insert([i]) for i in range(N)]
    else:
        live = table.bulk_load([[i] for i in range(N)])
    if mode == "lazy":
        # Settle the load's NULL annotations so the refresh-side number
        # reflects only the measured operation stream.
        from repro.core.fixup import base_fixup

        base_fixup(table)
    table.heap.writes.reset()
    start = time.perf_counter()
    for _ in range(OPERATIONS):
        roll = rng.random()
        if roll < 0.4:
            live.append(table.insert([rng.randrange(10**6)]))
        elif roll < 0.7 and len(live) > 10:
            table.delete(live.pop(rng.randrange(len(live))))
        else:
            target = live[rng.randrange(len(live))]
            new_rid = table.update(target, {"v": rng.randrange(10**6)})
            if new_rid != target:
                live[live.index(target)] = new_rid
    elapsed = time.perf_counter() - start
    writes = table.heap.writes.total
    compactions = table.heap.writes.compactions
    refresh_result = None
    if mode != "none":
        restriction = Restriction.true(table.schema)
        projection = Projection(table.schema)
        refresher = DifferentialRefresher(table)
        table.heap.writes.reset()
        refresh_result = refresher.refresh(
            0, restriction, projection, lambda m: None
        )
    return writes, compactions, elapsed, refresh_result


def _sweep():
    rows = []
    for mode in ("none", "lazy", "eager"):
        writes, compactions, elapsed, refresh_result = _drive(mode)
        refresh_writes = (
            refresh_result.fixup_writes if refresh_result is not None else 0
        )
        rows.append(
            [
                mode,
                writes,
                f"{writes / OPERATIONS:.2f}",
                f"{1000 * elapsed:.0f}",
                refresh_writes,
                compactions,
            ]
        )
    return rows


@pytest.mark.benchmark(group="maintenance")
def test_eager_vs_lazy_maintenance_cost(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    emit(
        "maintenance_cost",
        f"A12: base-operation cost by annotation mode "
        f"({OPERATIONS} mixed ops on N={N}; refresh fix-up writes shown "
        "for annotated modes)",
        [
            "mode", "record writes", "writes per op",
            "ms total", "refresh fix-up writes", "page compactions",
        ],
        rows,
    )
    # Deterministic (seeded stream, logical clock), so pinned exactly.
    # Lazy base operations cost the same physical writes as no
    # annotations at all; eager pays extra successor updates and stamps;
    # the bill the lazy scheme deferred shows up at refresh time.
    # Single-size rows: the hole a delete left always holds the next
    # insert, so nothing is compacted.
    assert {row[0]: (row[1], row[4], row[5]) for row in rows} == {
        "none": (1000, 0, 0),
        "lazy": (1000, 684, 0),
        "eager": (2037, 0, 0),
    }
