"""A15 — shared-scan group refresh: one pass vs N independent scans.

With a fleet of snapshots on one base table, independent differential
refreshes pay the address-order pass once *per snapshot*; the
:class:`~repro.core.group.GroupRefresher` pays it once per *fleet*.
This bench sweeps fan-out from 1 to 32 at a fixed table size and
measures, for both page-summary modes:

- total pages scanned and rows decoded — the group pass against the sum
  over independent refreshes, and against a **single** independent
  refresh (the floor: one pass can't read less than one pass);
- wall-clock per served snapshot, and the fleet-level speedup.

The headline asserts: at fan-out >= 8 the group pass's physical work
(pages scanned, rows decoded) stays within 2x of a single independent
refresh — i.e. the pass really is shared, not N scans in a trench coat.

Runs as a pytest benchmark and as a plain script; ``GROUP_N`` overrides
the table size (CI smoke-runs it small), ``GROUP_FANOUT_MAX`` caps the
sweep.
"""

from __future__ import annotations

import os
import random
import sys
import time

if __package__ in (None, ""):  # script mode: `python benchmarks/bench_group_refresh.py`
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.core.cursor import RefreshCursor
from repro.core.differential import DifferentialRefresher
from repro.core.group import GroupRefresher
from repro.database import Database
from repro.expr.predicate import Projection, Restriction

from benchmarks._util import emit, emit_json

N = int(os.environ.get("GROUP_N", "8000"))
FANOUT_MAX = int(os.environ.get("GROUP_FANOUT_MAX", "32"))
FANOUTS = tuple(f for f in (1, 2, 4, 8, 16, 32) if f <= FANOUT_MAX)
FRACTION = 0.02  # clustered update activity between refreshes
SEED = 1986


class _World:
    """A base table with a fleet of k snapshot-refresh states.

    Deterministic given (n, k, seed): two worlds built with the same
    arguments are byte-for-byte the same, so one can run independent
    refreshes and the other the group pass over identical states.
    """

    def __init__(self, n: int, k: int, use_summaries: bool) -> None:
        self.db = Database("bench", buffer_capacity=1024)
        self.table = self.db.create_table("t", [("v", "int")], annotations="lazy")
        self.rids = self.table.bulk_load([[i] for i in range(n)])
        self.projection = Projection(self.table.schema)
        # Distinct selectivities across the fleet: cutoffs spread over
        # the upper three quarters of the value domain.
        self.restrictions = [
            Restriction.parse(
                f"v < {n // 4 + ((3 * n // 4) * (i + 1)) // k}",
                self.table.schema,
            )
            for i in range(k)
        ]
        self.refreshers = [
            DifferentialRefresher(self.table, use_page_summaries=use_summaries)
            for _ in range(k)
        ]
        self.use_summaries = use_summaries
        self.caches: "list[dict]" = [{} for _ in range(k)]
        self.snap_times = [0] * k
        for i in range(k):
            self.solo(i)  # initial population primes times and caches
        rng = random.Random(SEED)
        count = max(1, int(n * FRACTION))
        start = rng.randrange(0, n - count + 1)
        for rid in self.rids[start : start + count]:
            self.table.update(rid, {"v": rng.randrange(n)})

    def solo(self, i: int):
        result = self.refreshers[i].refresh(
            self.snap_times[i],
            self.restrictions[i],
            self.projection,
            lambda m: None,
            cache=self.caches[i],
        )
        self.snap_times[i] = result.new_snap_time
        return result

    def group(self):
        cursors = [
            RefreshCursor(
                self.snap_times[i],
                self.restrictions[i],
                self.projection,
                lambda m: None,
                cache=self.caches[i] if self.use_summaries else None,
                name=str(i),
            )
            for i in range(len(self.restrictions))
        ]
        return GroupRefresher(self.table).refresh_group(cursors)


def _measure(n: int, k: int, use_summaries: bool):
    # World A: k independent refreshes, one after another.
    independent = _World(n, k, use_summaries)
    begin = time.perf_counter()
    solo_results = [independent.solo(i) for i in range(k)]
    t_indep = time.perf_counter() - begin
    single = solo_results[0]  # the floor: one pass of one snapshot

    # World B: the identical state served by ONE shared pass.
    grouped = _World(n, k, use_summaries)
    begin = time.perf_counter()
    outcome = grouped.group()
    t_group = time.perf_counter() - begin
    assert not outcome.errors
    stats = outcome.pass_result

    # Same state, same predicates: the traffic must agree.
    assert stats.qualified == sum(r.qualified for r in solo_results)
    assert stats.entries_sent == sum(r.entries_sent for r in solo_results)

    return {
        "n": n,
        "fanout": k,
        "summaries": use_summaries,
        "seconds_independent": t_indep,
        "seconds_group": t_group,
        "speedup": t_indep / t_group if t_group else float("inf"),
        "per_snapshot_ms_independent": 1000 * t_indep / k,
        "per_snapshot_ms_group": 1000 * t_group / k,
        "pages_scanned_single": single.pages_scanned,
        "pages_scanned_independent": sum(r.pages_scanned for r in solo_results),
        "pages_scanned_group": stats.pages_scanned,
        "rows_decoded_single": single.rows_decoded,
        "rows_decoded_independent": sum(r.rows_decoded for r in solo_results),
        "rows_decoded_group": stats.rows_decoded,
        "entries_evaluated_group": stats.entries_evaluated,
        "pages_fast_forwarded_group": stats.pages_fast_forwarded,
        "decode_savings": outcome.decode_savings,
        "entries_sent": stats.entries_sent,
        "bytes_sent": stats.bytes_sent,
        # Columnar-batch counters (A17).  The group baseline keeps
        # batch off, so these pin it at zero; bench_batch.py measures
        # the batch path itself.
        "pages_batch_decoded_group": stats.pages_batch_decoded,
        "rows_materialized_group": stats.rows_materialized,
    }


def _check(samples) -> None:
    for sample in samples:
        if sample["fanout"] < 8:
            continue
        # The shared pass must cost one pass, not N: within 2x of a
        # SINGLE independent refresh's physical reads.
        assert sample["pages_scanned_group"] <= 2 * max(
            1, sample["pages_scanned_single"]
        ), sample
        assert sample["rows_decoded_group"] <= 2 * max(
            1, sample["rows_decoded_single"]
        ), sample
        # And each decoded entry served every cursor.
        assert (
            sample["entries_evaluated_group"]
            >= sample["fanout"] * 0.5 * sample["rows_decoded_group"]
        ), sample


def run(n: int = N):
    rows = []
    samples = []
    for use_summaries in (False, True):
        for k in FANOUTS:
            sample = _measure(n, k, use_summaries)
            samples.append(sample)
            rows.append(
                [
                    k,
                    "on" if use_summaries else "off",
                    f"{sample['per_snapshot_ms_independent']:.2f}",
                    f"{sample['per_snapshot_ms_group']:.2f}",
                    f"{sample['speedup']:.1f}x",
                    f"{sample['pages_scanned_independent']}"
                    f"/{sample['pages_scanned_group']}",
                    f"{sample['rows_decoded_independent']}"
                    f"/{sample['rows_decoded_group']}",
                    f"{sample['decode_savings']:.1f}",
                ]
            )
    emit(
        "group_refresh",
        f"A15: group refresh vs independent, fan-out sweep (N={n})",
        [
            "fanout",
            "summaries",
            "indep ms/snap",
            "group ms/snap",
            "speedup",
            "pages indep/group",
            "decoded indep/group",
            "decode savings",
        ],
        rows,
    )
    emit_json("group_refresh", samples)
    _check(samples)
    return samples


def test_group_refresh_sweep():
    run(N)


if __name__ == "__main__":
    run(N)
