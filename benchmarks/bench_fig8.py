"""FIG8 — message traffic vs update activity, selectivities >= 25 %.

Reproduces Figure 8 by simulation: for each selectivity q in
{25, 50, 75, 100} % and each update activity u, measure the entries
transmitted by the ideal, differential, and full refresh methods as a
percentage of the base table, next to the analytical prediction.

Expected shape (the paper's claims):

- ideal <= differential <= full at every point;
- at q = 100 % the differential and ideal curves coincide;
- the differential curve rises toward the full line as activity grows;
- the full line is flat (activity-independent).

``diff%`` is the paper's algorithm on the paper's path (no page cache:
Figure 3's own arming rule).  ``mirr%`` is the same snapshot through the
manager's defaults, whose page cache mirrors the snapshot's addresses
and arms the ``Deletion`` flag only where the snapshot lost one — this
system's curve, between the paper's two.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import traffic_sweep
from repro.workload.generator import WorkloadMix

from benchmarks._util import emit

SELECTIVITIES = (0.25, 0.50, 0.75, 1.00)
ACTIVITIES = (0.05, 0.10, 0.25, 0.50, 1.00, 2.00)
N = 2000
SEED = 86


def _run_sweep():
    return traffic_sweep(
        SELECTIVITIES,
        ACTIVITIES,
        n=N,
        seed=SEED,
        mix=WorkloadMix.updates_only(),
        preserve_qualification=True,
    )


@pytest.mark.benchmark(group="fig8")
def test_fig8_traffic_by_activity(benchmark):
    cells = benchmark.pedantic(_run_sweep, rounds=1, iterations=1)
    rows = []
    for cell in cells:
        rows.append(
            [
                f"{100 * cell.selectivity:.0f}",
                f"{100 * cell.activity:.0f}",
                f"{100 * cell.distinct_fraction:.1f}",
                f"{cell.percent('ideal'):.2f}",
                f"{cell.percent('mirrored'):.2f}",
                f"{cell.percent('differential'):.2f}",
                f"{cell.percent('full'):.2f}",
                f"{cell.model_percent('ideal'):.2f}",
                f"{cell.model_percent('differential'):.2f}",
                f"{cell.model_percent('full'):.2f}",
            ]
        )
    emit(
        "fig8",
        f"Figure 8: % of base-table tuples sent (simulation, N={N})",
        [
            "q%", "u%", "touched%",
            "ideal%", "mirr%", "diff%", "full%",
            "m:ideal%", "m:diff%", "m:full%",
        ],
        rows,
    )
    # Shape assertions: the figure's qualitative content.
    for cell in cells:
        assert (
            cell.entries["ideal"]
            <= cell.entries["mirrored"]
            <= cell.entries["differential"]
        )
        assert cell.entries["differential"] <= cell.entries["full"] + 1
        # Update-only, qualification preserved: nothing the snapshot
        # holds is lost, so the mirror sends exactly the net-change set.
        assert cell.entries["mirrored"] == cell.entries["ideal"]
    unrestricted = [c for c in cells if c.selectivity == 1.0]
    for cell in unrestricted:
        assert cell.entries["differential"] == pytest.approx(
            cell.entries["ideal"], rel=0.02, abs=3
        )
