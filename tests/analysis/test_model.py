"""The analytical traffic model: limits, monotonicity, paper claims."""

import math

import pytest

from repro.analysis.model import (
    TrafficModel,
    differential_fraction,
    distinct_touched_fraction,
    full_fraction,
    ideal_fraction,
)
from repro.errors import ReproError


class TestDistinctTouched:
    def test_zero_activity(self):
        assert distinct_touched_fraction(0.0) == 0.0

    def test_limit_form(self):
        assert distinct_touched_fraction(1.0) == pytest.approx(1 - math.exp(-1))

    def test_finite_n_close_to_limit(self):
        exact = distinct_touched_fraction(0.5, n=10_000)
        limit = distinct_touched_fraction(0.5)
        assert exact == pytest.approx(limit, rel=1e-3)

    def test_monotone_in_activity(self):
        values = [distinct_touched_fraction(u) for u in (0.1, 0.5, 1.0, 3.0)]
        assert values == sorted(values)

    def test_saturates_below_one(self):
        assert distinct_touched_fraction(10.0) < 1.0
        assert distinct_touched_fraction(10.0) > 0.9999

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            distinct_touched_fraction(-0.1)


class TestFractions:
    def test_full_is_selectivity(self):
        assert full_fraction(0.25) == 0.25

    def test_ideal_is_product(self):
        assert ideal_fraction(0.25, 0.4) == pytest.approx(0.1)

    def test_ordering_ideal_le_differential_le_full(self):
        for q in (0.01, 0.05, 0.25, 0.5, 0.75, 1.0):
            for d in (0.01, 0.1, 0.5, 0.9, 0.999):
                ideal = ideal_fraction(q, d)
                diff = differential_fraction(q, d)
                full = full_fraction(q)
                assert ideal <= diff + 1e-12
                assert diff <= full + 1e-12

    def test_no_restriction_differential_equals_ideal(self):
        # "When there is no restriction, the differential refresh
        # algorithm performs as well as the ideal refresh."
        for d in (0.05, 0.3, 0.8):
            assert differential_fraction(1.0, d) == pytest.approx(
                ideal_fraction(1.0, d)
            )

    def test_everything_changed_differential_equals_full(self):
        for q in (0.01, 0.25, 1.0):
            assert differential_fraction(q, 1.0) == pytest.approx(
                full_fraction(q)
            )

    def test_zero_change_sends_nothing(self):
        assert differential_fraction(0.5, 0.0) == 0.0
        assert ideal_fraction(0.5, 0.0) == 0.0

    def test_monotone_in_both_arguments(self):
        diffs_by_d = [differential_fraction(0.25, d) for d in (0.1, 0.3, 0.7)]
        assert diffs_by_d == sorted(diffs_by_d)
        diffs_by_q = [differential_fraction(q, 0.3) for q in (0.05, 0.25, 0.9)]
        assert diffs_by_q == sorted(diffs_by_q)

    def test_bounds_validation(self):
        with pytest.raises(ReproError):
            differential_fraction(1.5, 0.5)
        with pytest.raises(ReproError):
            ideal_fraction(0.5, -0.1)


class TestSuperfluousRatio:
    def test_decreases_with_activity(self):
        # "The percentage of superfluous messages decreases as the
        # number of base table modifications increases."
        model = TrafficModel(0.05)
        ratios = [model.superfluous_ratio(u) for u in (0.05, 0.2, 1.0, 3.0)]
        assert ratios == sorted(ratios, reverse=True)

    def test_increases_as_restriction_tightens(self):
        # "As the snapshot qualification becomes more restrictive, the
        # relative number of superfluous messages ... increases."
        at_u = 0.2
        ratios = [
            TrafficModel(q).superfluous_ratio(at_u) for q in (0.75, 0.25, 0.05, 0.01)
        ]
        assert ratios == sorted(ratios)

    def test_zero_when_unrestricted(self):
        assert TrafficModel(1.0).superfluous_ratio(0.5) == pytest.approx(0.0)


class TestTrafficModel:
    def test_at_activity_keys(self):
        point = TrafficModel(0.25, n=1000).at_activity(0.2)
        assert set(point) == {"distinct_fraction", "ideal", "differential", "full"}

    def test_series_shape(self):
        series = TrafficModel(0.25).series([0.1, 0.2])
        assert len(series) == 2
        assert series[0]["activity"] == 0.1

    def test_simulation_agreement(self):
        """The model predicts the simulator within a loose tolerance.

        The model is the paper's, so it is held against the paper's
        series: ``differential`` runs without a page cache (Figure 3's
        own arming rule).  The manager's defaults are the ``mirrored``
        series, which the model does not describe — it lies between
        the two curves the model does."""
        from repro.bench.harness import traffic_sweep
        from repro.workload.generator import WorkloadMix

        cells = traffic_sweep(
            [0.25],
            [0.2, 1.0],
            n=800,
            seed=13,
            mix=WorkloadMix.updates_only(),
        )
        for cell in cells:
            assert cell.percent("differential") == pytest.approx(
                cell.model_percent("differential"), rel=0.25, abs=1.0
            )
            assert cell.percent("ideal") == pytest.approx(
                cell.model_percent("ideal"), rel=0.3, abs=1.0
            )
            assert (
                cell.entries["ideal"]
                <= cell.entries["mirrored"]
                <= cell.entries["differential"]
            )
