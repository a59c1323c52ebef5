"""Tests for ray-graph geometry and initial bracketing."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ConstantSpeedFunction,
    InfeasiblePartitionError,
    PiecewiseLinearSpeedFunction,
    partition_bisection,
)
from repro.core.geometry import SlopeRegion, ensure_bracket, initial_bracket
from repro.core.vectorized import ObjectSet, pack_speed_functions
from tests.conftest import make_hump_pwl, make_increasing_pwl, make_pwl


def total(sfs, slope: float) -> float:
    """Total allocation of the ray, evaluated per object."""
    return float(ObjectSet(sfs).allocations(slope).sum())


class TestAllocations:
    def test_matches_individual_intersections(self, heterogeneous_trio):
        slope = 1e-4
        out = pack_speed_functions(heterogeneous_trio).allocations(slope)
        expected = [sf.intersect_ray(slope) for sf in heterogeneous_trio]
        np.testing.assert_allclose(out, expected)

    def test_total_is_sum(self, heterogeneous_trio):
        slope = 2e-4
        assert total(heterogeneous_trio, slope) == pytest.approx(
            sum(sf.intersect_ray(slope) for sf in heterogeneous_trio)
        )

    def test_total_monotone_nonincreasing_in_slope(self, heterogeneous_trio):
        slopes = np.geomspace(1e-6, 1e-1, 60)
        totals = [total(heterogeneous_trio, float(c)) for c in slopes]
        assert all(a >= b - 1e-9 for a, b in zip(totals, totals[1:]))


class TestInitialBracket:
    def test_brackets_the_target(self, heterogeneous_trio):
        n = 1_000_000
        region = initial_bracket(heterogeneous_trio, n)
        assert total(heterogeneous_trio, region.upper) <= n
        assert total(heterogeneous_trio, region.lower) >= n

    def test_constant_speeds_bracket_collapses(self):
        sfs = [ConstantSpeedFunction(100.0), ConstantSpeedFunction(100.0)]
        region = initial_bracket(sfs, 1000)
        # Equal speeds at n/p: both probe lines coincide.
        assert region.upper == pytest.approx(region.lower)

    def test_infeasible_raises(self):
        sfs = [make_pwl(100.0)]  # max_size = 2e6
        with pytest.raises(InfeasiblePartitionError):
            initial_bracket(sfs, 3_000_000)

    def test_feasible_at_capacity_boundary(self):
        sfs = [make_pwl(100.0), make_pwl(50.0)]
        region = initial_bracket(sfs, int(2e6 + 2e6) - 1)
        assert region.lower > 0

    def test_unreachable_size_fails_before_any_ray(self, monkeypatch):
        # Fractional bounds: sum(max_i) = 2001 but an integer plan holds
        # at most sum(floor(max_i)) = 2000 elements.
        sfs = [
            PiecewiseLinearSpeedFunction(np.array([10.0, 1000.5]), np.array([50.0, 40.0])),
            PiecewiseLinearSpeedFunction(np.array([20.0, 1000.5]), np.array([30.0, 25.0])),
        ]
        pack = pack_speed_functions(sfs)
        assert pack.max_total == 2000 < sum(sf.max_size for sf in sfs)

        def no_rays(*args, **kwargs):
            raise AssertionError("a ray was evaluated")

        monkeypatch.setattr(pack, "rays", no_rays)
        with pytest.raises(InfeasiblePartitionError, match="2000 elements"):
            partition_bisection(2001, sfs, pack=pack)
        monkeypatch.undo()
        assert int(partition_bisection(2000, sfs, pack=pack).allocation.sum()) == 2000

    def test_rejects_empty(self):
        with pytest.raises(InfeasiblePartitionError):
            initial_bracket([], 10)

    def test_rejects_nonpositive_n(self, two_processors):
        with pytest.raises(InfeasiblePartitionError):
            initial_bracket(two_processors, 0)

    @pytest.mark.parametrize("factory", [make_pwl, make_increasing_pwl, make_hump_pwl])
    def test_all_shapes_bracket(self, factory):
        sfs = [factory(100.0), factory(40.0)]
        n = 500_000
        region = initial_bracket(sfs, n)
        assert total(sfs, region.upper) <= n
        assert total(sfs, region.lower) >= n


class TestSlopeRegion:
    def test_tangent_midpoint(self):
        r = SlopeRegion(upper=4.0, lower=2.0)
        assert r.midpoint("tangent") == pytest.approx(3.0)

    def test_angle_midpoint_between_bounds(self):
        r = SlopeRegion(upper=4.0, lower=0.5)
        mid = r.midpoint("angle")
        assert 0.5 < mid < 4.0
        # Angle bisection differs from tangent bisection for wide regions.
        assert mid != pytest.approx(r.midpoint("tangent"))

    def test_angle_midpoint_exact(self):
        import math

        r = SlopeRegion(upper=math.tan(1.0), lower=math.tan(0.5))
        assert r.midpoint("angle") == pytest.approx(math.tan(0.75))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            SlopeRegion(upper=2.0, lower=1.0).midpoint("golden")

    def test_width(self):
        assert SlopeRegion(upper=5.0, lower=2.0).width() == pytest.approx(3.0)

    def test_replace_bounds(self):
        r = SlopeRegion(upper=5.0, lower=2.0)
        assert r.replace_upper(4.0).upper == 4.0
        assert r.replace_lower(3.0).lower == 3.0

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            SlopeRegion(upper=1.0, lower=2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SlopeRegion(upper=1.0, lower=0.0)


class TestEnsureBracket:
    def test_valid_region_untouched(self, heterogeneous_trio):
        n = 1_000_000
        region = initial_bracket(heterogeneous_trio, n)
        repaired, probes = ensure_bracket(region, n, heterogeneous_trio)
        assert repaired == region
        assert probes == 2

    def test_repairs_region_for_larger_n(self, heterogeneous_trio):
        small = initial_bracket(heterogeneous_trio, 10_000)
        big_n = 3_000_000
        repaired, probes = ensure_bracket(small, big_n, heterogeneous_trio)
        assert total(heterogeneous_trio, repaired.upper) <= big_n
        assert total(heterogeneous_trio, repaired.lower) >= big_n
        assert probes >= 2

    def test_repairs_region_for_smaller_n(self, heterogeneous_trio):
        big = initial_bracket(heterogeneous_trio, 3_000_000)
        small_n = 10_000
        repaired, _ = ensure_bracket(big, small_n, heterogeneous_trio)
        assert total(heterogeneous_trio, repaired.upper) <= small_n
        assert total(heterogeneous_trio, repaired.lower) >= small_n

    def test_probe_count_scales_logarithmically(self, heterogeneous_trio):
        near = initial_bracket(heterogeneous_trio, 1_000_000)
        _, probes_near = ensure_bracket(near, 1_100_000, heterogeneous_trio)
        _, probes_far = ensure_bracket(near, 4_500_000, heterogeneous_trio)
        cold_probes = 2 + 60  # the figure-18 doubling search is much longer
        assert probes_near <= probes_far <= cold_probes

    def test_nonpositive_n_rejected(self, heterogeneous_trio):
        region = initial_bracket(heterogeneous_trio, 1000)
        with pytest.raises(InfeasiblePartitionError):
            ensure_bracket(region, 0, heterogeneous_trio)

    def test_over_capacity_rejected(self):
        sfs = [ConstantSpeedFunction(10.0, max_size=100) for _ in range(2)]
        region = initial_bracket(sfs, 100)
        with pytest.raises(InfeasiblePartitionError):
            ensure_bracket(region, 10_000, sfs)

    def test_custom_allocator_used(self, heterogeneous_trio):
        pack = pack_speed_functions(heterogeneous_trio)
        region = initial_bracket(heterogeneous_trio, 50_000)
        via_pack, _ = ensure_bracket(region, 2_000_000, heterogeneous_trio, pack=pack)
        via_scalar, _ = ensure_bracket(region, 2_000_000, heterogeneous_trio)
        assert via_pack == via_scalar
