"""A1 — ablation of the paper's invited optimizations.

Compares the faithful Figure-3/7 differential refresh against the
improvements the paper invites the reader to discover:

- ``optimize_deletes``: value-free DeleteRange messages for unchanged
  survivors → same entry count, fewer bytes;
- the address mirror (what the manager builds: a page mirror and
  ``optimize_deletes``): the ``Deletion`` flag arms only
  where a held address left, so an unqualified pure insert no longer
  forces the next qualified entry out → fewer entries on
  insert-after-delete workloads (the deleted ``suppress_pure_inserts``
  flag's saving, and more).

Workload (two phases, chosen so each optimization has something to do):

1. delete 15 % of rows, refresh (settles the snapshot; the freed
   addresses are now *clean* empty regions);
2. insert 15 % new rows — first-fit places them into the freed slots —
   then measure one refresh.  Unqualified inserts into clean gaps are
   exactly the superfluous-retransmission case the mirror removes; the
   deletes measured in phase 1 are where delete-only messages save
   bytes.
"""

from __future__ import annotations

import random

import pytest

from repro.core.differential import DifferentialRefresher
from repro.core.snapshot import SnapshotTable
from repro.database import Database
from repro.expr.predicate import Projection, Restriction
from repro.storage.summary import PageMirror

from benchmarks._util import emit

N = 1500
CHURN = int(N * 0.15)
SELECTIVITY = 0.25
CUTOFF = int(SELECTIVITY * 1000)


def _measure(optimize_deletes=False, mirror=False):
    rng = random.Random(41)
    db = Database("abl")
    table = db.create_table("t", [("v", "int")], annotations="lazy")
    live = table.bulk_load([[rng.randrange(1000)] for _ in range(N)])
    restriction = Restriction.parse(f"v < {CUTOFF}", table.schema)
    projection = Projection(table.schema)
    snapshot = SnapshotTable(Database("remote"), "s", projection.schema)
    refresher = DifferentialRefresher(table, optimize_deletes=optimize_deletes)
    cache = PageMirror() if mirror else None

    def refresh(snap_time):
        def deliver(message):
            snapshot.apply(message)

        return refresher.refresh(
            snap_time, restriction, projection, deliver, cache=cache
        )

    settle = refresh(0)
    # Phase 1: deletes, measured (delete-only messages fire here).
    for _ in range(CHURN):
        victim = live.pop(rng.randrange(len(live)))
        table.delete(victim)
    phase1 = refresh(settle.new_snap_time)
    # Phase 2: inserts into the (now clean) freed regions, measured
    # (the mirror's arming rule saves here).
    for _ in range(CHURN):
        live.append(table.insert([rng.randrange(1000)]))
    phase2 = refresh(phase1.new_snap_time)

    truth = {
        rid: row.values
        for rid, row in table.scan(visible=True)
        if row.values[0] < CUTOFF
    }
    assert snapshot.as_map() == truth
    return phase1, phase2


def _run_all():
    return {
        "baseline (Fig 3/7)": _measure(),
        "+delete-only msgs": _measure(optimize_deletes=True),
        "mirror (manager)": _measure(optimize_deletes=True, mirror=True),
    }


@pytest.mark.benchmark(group="ablation")
def test_ablation_invited_optimizations(benchmark):
    results = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    base1, base2 = results["baseline (Fig 3/7)"]
    rows = []
    for name, (phase1, phase2) in results.items():
        rows.append(
            [
                name,
                phase1.entries_sent,
                phase1.bytes_sent,
                phase2.entries_sent,
                phase2.bytes_sent,
                f"{100 * phase1.bytes_sent / max(base1.bytes_sent, 1):.0f}",
                f"{100 * phase2.entries_sent / max(base2.entries_sent, 1):.0f}",
            ]
        )
    emit(
        "ablation_optimized",
        f"A1: invited optimizations (N={N}, q={SELECTIVITY}, "
        f"{CHURN} deletes then {CHURN} inserts)",
        [
            "variant",
            "del-phase entries", "del-phase bytes",
            "ins-phase entries", "ins-phase bytes",
            "del bytes%", "ins entries%",
        ],
        rows,
    )
    opt1, opt2 = results["+delete-only msgs"]
    assert opt1.entries_sent == base1.entries_sent  # same tuple metric
    assert opt1.bytes_sent < base1.bytes_sent  # cheaper on the wire
    mirror1, mirror2 = results["mirror (manager)"]
    assert mirror2.entries_sent < base2.entries_sent  # fewer retransmissions
    assert mirror1.bytes_sent <= opt1.bytes_sent
