"""A4 — log-scan refresh vs differential: culling cost and degradation.

Measures the paper's two warnings about using the recovery log as the
change buffer:

- "only a small portion of the log will involve updates to the base
  table for a particular snapshot" — the scanned/relevant ratio when
  other tables share the log;
- bounded log space forces a full refresh once the snapshot's history
  has been truncated.
"""

from __future__ import annotations

import random

import pytest

from repro.core.manager import SnapshotManager
from repro.database import Database

from benchmarks._util import emit

N = 600
OPERATIONS = 900
OTHER_TABLE_SHARE = 2  # other-table ops per target-table op


def _run_cull_cost():
    rng = random.Random(44)
    db = Database("hq")
    target = db.create_table("target", [("v", "int")])
    noise = db.create_table("noise", [("x", "int")])
    rids = [target.insert([i]) for i in range(N)]
    manager = SnapshotManager(db)
    snap = manager.create_snapshot(
        "logged", "target", where="v < 1000000", method="log"
    )
    for _ in range(OPERATIONS // (OTHER_TABLE_SHARE + 1)):
        target.update(rids[rng.randrange(N)], {"v": rng.randrange(10**6)})
        for _ in range(OTHER_TABLE_SHARE):
            noise.insert([rng.randrange(100)])
    result = snap.refresh()
    return result


def _run_truncation():
    db = Database("hq-small-log", wal_capacity_bytes=4_000)
    target = db.create_table("target", [("v", "int")])
    rids = [target.insert([i]) for i in range(N)]
    manager = SnapshotManager(db)
    snap = manager.create_snapshot(
        "logged", "target", where="v < 1000000", method="log"
    )
    rng = random.Random(45)
    for _ in range(OPERATIONS):
        target.update(rids[rng.randrange(N)], {"v": rng.randrange(10**6)})
    return snap.refresh()


@pytest.mark.benchmark(group="logbased")
def test_log_refresh_cull_cost(benchmark):
    result = benchmark.pedantic(_run_cull_cost, rounds=1, iterations=1)
    rows = [
        ["log records scanned", result.log_records_scanned],
        ["relevant (committed, target table)", result.relevant_records],
        [
            "cull efficiency",
            f"{100 * result.relevant_records / max(result.log_records_scanned, 1):.0f}%",
        ],
        ["entries transmitted", result.entries_sent],
        ["fell back to full", result.fell_back_full],
    ]
    emit(
        "logbased_cull",
        f"A4a: log-scan refresh culling cost ({OTHER_TABLE_SHARE} noise ops "
        "per relevant op)",
        ["metric", "value"],
        rows,
    )
    assert not result.fell_back_full
    # Most of the log is irrelevant to this snapshot.
    assert result.relevant_records < result.log_records_scanned / 2
    # Each autocommitted operation logs its data record and its COMMIT,
    # nothing else; the N setup inserts precede the snapshot's start LSN.
    assert result.log_records_scanned == 2 * OPERATIONS
    assert result.entries_sent == 235


@pytest.mark.benchmark(group="logbased")
def test_log_refresh_truncation_fallback(benchmark):
    result = benchmark.pedantic(_run_truncation, rounds=1, iterations=1)
    rows = [
        ["fell back to full", result.fell_back_full],
        ["entries transmitted", result.entries_sent],
    ]
    emit(
        "logbased_truncation",
        "A4b: bounded log forces full refresh after truncation",
        ["metric", "value"],
        rows,
    )
    assert result.fell_back_full
    assert result.entries_sent == N
