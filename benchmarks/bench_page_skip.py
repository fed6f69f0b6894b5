"""A13 — page-summary skip: refresh cost vs update activity.

The differential scan is O(table size) in the paper; with page summaries
it should be O(changed pages).  This bench sweeps update activity from
0.1 % to 50 % on an N-row table and refreshes twice per activity level —
once with page summaries off (the paper's full-scan baseline) and once
with them on — asserting that both modes produce the *identical* message
stream and byte count, then comparing wall time, pages skipped, and rows
decoded.

Updates are clustered in a contiguous address range (a "hot region"),
the workload page-granular skipping targets; one uniform-random row is
included for honesty — at ~140 rows per 4 KiB page, uniform updates
touch most pages long before 1 % activity, and summaries can only help
once update locality or activity leaves whole pages untouched.

Runs as a pytest benchmark and as a plain script; ``PAGE_SKIP_N``
overrides the table size (CI smoke-runs it at a small N).
"""

from __future__ import annotations

import os
import random
import sys
import time

if __package__ in (None, ""):  # script mode: `python benchmarks/bench_page_skip.py`
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.core.differential import DifferentialRefresher
from repro.database import Database
from repro.expr.predicate import Projection, Restriction

from benchmarks._util import emit, emit_json

N = int(os.environ.get("PAGE_SKIP_N", "16000"))
FRACTIONS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5)
SEED = 1986


def _run_mode(n: int, fraction: float, use_summaries: bool, uniform: bool):
    """Build, load, refresh, mutate, and time one re-refresh."""
    db = Database("bench", buffer_capacity=1024)
    table = db.create_table("t", [("v", "int")], annotations="lazy")
    rids = table.bulk_load([[i] for i in range(n)])
    restriction = Restriction.parse("v < 1000000000", table.schema)
    projection = Projection(table.schema)
    refresher = DifferentialRefresher(table, use_page_summaries=use_summaries)
    first = refresher.refresh(0, restriction, projection, lambda m: None)
    snap_time = first.new_snap_time

    rng = random.Random(SEED)
    count = max(1, int(n * fraction))
    if uniform:
        targets = rng.sample(rids, count)
    else:
        start = rng.randrange(0, n - count + 1)
        targets = rids[start : start + count]
    for rid in targets:
        table.update(rid, {"v": rng.randrange(1_000_000)})

    messages: list = []
    begin = time.perf_counter()
    result = refresher.refresh(
        snap_time, restriction, projection, messages.append
    )
    elapsed = time.perf_counter() - begin
    return elapsed, result, [repr(m) for m in messages]


def _sweep(n: int):
    rows = []
    samples = []
    for fraction, uniform in [(f, False) for f in FRACTIONS] + [(0.01, True)]:
        t_off, r_off, m_off = _run_mode(n, fraction, False, uniform)
        t_on, r_on, m_on = _run_mode(n, fraction, True, uniform)
        # Identical activity must produce identical refresh streams.
        assert m_on == m_off, (
            f"message streams diverge at fraction={fraction} "
            f"uniform={uniform}: {len(m_on)} vs {len(m_off)} messages"
        )
        assert r_on.bytes_sent == r_off.bytes_sent
        assert r_on.qualified == r_off.qualified
        speedup = t_off / t_on if t_on else float("inf")
        label = f"{100 * fraction:g}%" + (" (uniform)" if uniform else "")
        rows.append(
            [
                label,
                f"{t_off * 1000:.2f}",
                f"{t_on * 1000:.2f}",
                f"{speedup:.1f}x",
                f"{r_on.pages_skipped}/{r_on.pages_skipped + r_on.pages_scanned}",
                r_off.rows_decoded,
                r_on.rows_decoded,
            ]
        )
        samples.append(
            {
                "n": n,
                "fraction": fraction,
                "uniform": uniform,
                "seconds_off": t_off,
                "seconds_on": t_on,
                "speedup": speedup,
                "rows_per_sec_on": n / t_on if t_on else None,
                "bytes_sent": r_on.bytes_sent,
                "messages": r_on.messages_sent,
                "pages_scanned": r_on.pages_scanned,
                "pages_skipped": r_on.pages_skipped,
                "rows_decoded_off": r_off.rows_decoded,
                "rows_decoded_on": r_on.rows_decoded,
                "buffer_hit_rate_on": r_on.buffer_hit_rate,
                # Columnar-batch counters (A17).  This bench keeps the
                # per-row baseline (batch off), so these pin the
                # baseline at zero; bench_batch.py measures the batch
                # path itself.
                "pages_batch_decoded": r_on.pages_batch_decoded,
                "rows_materialized": r_on.rows_materialized,
            }
        )
    return rows, samples


def _check(rows, samples, n: int) -> None:
    for sample in samples:
        if sample["uniform"]:
            continue
        if sample["fraction"] <= 0.01:
            # The deterministic wins: pages skipped, rows not decoded.
            assert sample["pages_skipped"] > 0, sample
            ratio = sample["rows_decoded_off"] / max(1, sample["rows_decoded_on"])
            assert ratio >= 5, (
                f"decoded-row ratio {ratio:.1f} < 5 at "
                f"fraction={sample['fraction']}"
            )
            # Wall time is only trustworthy at realistic sizes.
            if n >= 8_000:
                assert sample["speedup"] >= 5, (
                    f"speedup {sample['speedup']:.1f} < 5 at "
                    f"fraction={sample['fraction']}"
                )


def run(n: int = N):
    rows, samples = _sweep(n)
    emit(
        "page_skip",
        f"A13: refresh cost vs update activity, page summaries on/off (N={n})",
        [
            "activity",
            "off ms",
            "on ms",
            "speedup",
            "pages skipped",
            "decoded off",
            "decoded on",
        ],
        rows,
    )
    emit_json("page_skip", samples)
    _check(rows, samples, n)
    return samples


def test_page_skip_sweep():
    run(N)


if __name__ == "__main__":
    run(N)
