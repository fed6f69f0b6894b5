"""The sweep harness itself (small grids so the suite stays fast)."""

import pytest

from repro.bench.harness import traffic_sweep
from repro.workload.generator import WorkloadMix


@pytest.fixture(scope="module")
def cells():
    return traffic_sweep(
        [0.25], [0.1, 0.5], n=400, seed=19, mix=WorkloadMix.updates_only()
    )


class TestSweep:
    def test_grid_shape(self, cells):
        assert len(cells) == 2
        assert cells[0].activity == 0.1
        assert cells[1].activity == 0.5

    def test_validation_ran(self, cells):
        # traffic_sweep(validate=True) raises on divergence; arriving
        # here means every algorithm converged to ground truth.
        assert all(cell.base_size > 0 for cell in cells)

    def test_ordering_holds(self, cells):
        for cell in cells:
            assert cell.entries["ideal"] <= cell.entries["differential"]
            assert cell.entries["differential"] <= cell.entries["full"] + 1

    def test_mirrored_series_lies_between_ideal_and_the_papers(self, cells):
        """``differential`` runs the paper's rule (no page cache);
        ``mirrored`` is the manager's defaults beside it."""
        for cell in cells:
            assert (
                cell.entries["ideal"]
                <= cell.entries["mirrored"]
                <= cell.entries["differential"]
            )
            assert cell.bytes["mirrored"] <= cell.bytes["differential"]
        # Updates only: something superfluous was there to leave out.
        assert cells[0].entries["mirrored"] < cells[0].entries["differential"]

    def test_percent_helpers(self, cells):
        cell = cells[0]
        assert cell.percent("full") == pytest.approx(
            100.0 * cell.entries["full"] / cell.base_size
        )
        assert cell.model_percent("full") == pytest.approx(25.0, abs=2.0)

    def test_more_activity_more_differential_traffic(self, cells):
        assert (
            cells[1].entries["differential"] >= cells[0].entries["differential"]
        )

    def test_mixed_workload_still_validates(self):
        traffic_sweep(
            [0.25], [0.3], n=300, seed=23,
            mix=WorkloadMix.churn(), preserve_qualification=False,
        )

    def test_optimized_flags_still_validate(self):
        cells = traffic_sweep(
            [0.25], [0.3], n=300, seed=29,
            optimize_deletes=True,
        )
        assert cells[0].entries["differential"] >= 0
