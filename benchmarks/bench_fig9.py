"""FIG9 — message traffic for restrictive snapshots (q = 1 %, 5 %).

Figure 9 re-plots the Figure-8 comparison for highly restrictive
snapshots on a logarithmic axis.  The phenomenon it highlights: with few
qualified entries, the gaps between them are long, so almost any
modification in a gap forces the next qualified entry out — the
differential curve sits well above ideal (relatively) at low activity
and converges to the (low) full line quickly.

``diff%`` is the paper's algorithm on the paper's path (no page cache,
so every changed non-qualifier "may have qualified before").  ``mirr%``
is the same snapshot through the manager's defaults, which arm the
``Deletion`` flag from the page cache's record of what the snapshot
holds: on this grid (updates that never move a row across the
restriction) nothing it holds is ever lost, so the superfluous entries
are simply not sent and the curve *is* the ideal one.
"""

from __future__ import annotations

import math

import pytest

from repro.analysis.measures import superfluous_ratio
from repro.bench.harness import traffic_sweep
from repro.workload.generator import WorkloadMix

from benchmarks._util import emit

SELECTIVITIES = (0.01, 0.05)
ACTIVITIES = (0.05, 0.10, 0.25, 0.50, 1.00, 2.00)
N = 4000  # larger table so q=1% still has ~40 qualified entries
SEED = 99


def _run_sweep():
    return traffic_sweep(
        SELECTIVITIES,
        ACTIVITIES,
        n=N,
        seed=SEED,
        mix=WorkloadMix.updates_only(),
        preserve_qualification=True,
    )


@pytest.mark.benchmark(group="fig9")
def test_fig9_restrictive_snapshots(benchmark):
    cells = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    rows = []
    for cell in cells:
        diff_pct = cell.percent("differential")
        rows.append(
            [
                f"{100 * cell.selectivity:.0f}",
                f"{100 * cell.activity:.0f}",
                f"{cell.percent('ideal'):.3f}",
                f"{cell.percent('mirrored'):.3f}",
                f"{diff_pct:.3f}",
                f"{cell.percent('full'):.3f}",
                f"{math.log10(diff_pct) if diff_pct > 0 else float('-inf'):.2f}",
                f"{100 * superfluous_ratio(cell.entries['differential'], cell.entries['ideal']):.0f}",
            ]
        )
    emit(
        "fig9",
        f"Figure 9: restrictive snapshots, log-scale view (simulation, N={N})",
        [
            "q%", "u%", "ideal%", "mirr%", "diff%", "full%",
            "log10(diff%)", "superfluous%",
        ],
        rows,
    )
    for cell in cells:
        assert cell.entries["ideal"] <= cell.entries["differential"]
        # Update-only, qualification preserved: the mirror sends exactly
        # the net-change set.
        assert cell.entries["mirrored"] == cell.entries["ideal"]
    # The superfluous share shrinks as activity grows (per selectivity).
    for q in SELECTIVITIES:
        series = [c for c in cells if c.selectivity == q]
        ratios = [
            superfluous_ratio(c.entries["differential"], c.entries["ideal"])
            for c in series
        ]
        assert ratios[0] >= ratios[-1]
