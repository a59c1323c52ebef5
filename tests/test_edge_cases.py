"""Edge-case tests consolidating less-travelled branches across modules."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import (
    ConfigurationError,
    ConstantSpeedFunction,
    InfeasiblePartitionError,
    PiecewiseLinearSpeedFunction,
    SpeedBand,
    partition,
    partition_combined,
)
from tests.conftest import make_pwl


class TestGeometryAllocatorParameter:
    def test_bracket_with_explicit_allocator(self, heterogeneous_trio):
        from repro.core.geometry import initial_bracket
        from repro.core.vectorized import pack_speed_functions

        pack = pack_speed_functions(heterogeneous_trio)
        with_alloc = initial_bracket(heterogeneous_trio, 500_000, pack=pack)
        without = initial_bracket(heterogeneous_trio, 500_000)
        assert with_alloc.upper == pytest.approx(without.upper)
        assert with_alloc.lower == pytest.approx(without.lower)


class TestCombinedSwitchPaths:
    def test_stall_limit_one_switches_immediately(self, heterogeneous_trio):
        # With stall_limit=1 and stall_factor=0 (any step "stalls"), the
        # combined algorithm must hand over to modified and still be right.
        from repro import partition_exact

        n = 654_321
        r = partition_combined(
            n, heterogeneous_trio, stall_limit=1, stall_factor=0.0
        )
        assert int(r.allocation.sum()) == n
        assert r.makespan == pytest.approx(
            partition_exact(n, heterogeneous_trio).makespan, rel=1e-9
        )

    def test_flat_tol_huge_switches_immediately(self, heterogeneous_trio):
        n = 654_321
        r = partition_combined(n, heterogeneous_trio, flat_tol=1e9)
        assert int(r.allocation.sum()) == n


class TestBandGrids:
    def test_lower_function_with_explicit_grid(self):
        band = SpeedBand(make_pwl(100.0), 0.2)
        grid = np.geomspace(2e3, 1.5e6, 10)
        lf = band.lower_function(grid)
        assert lf.num_knots == 10

    def test_unbounded_midline_needs_grid(self):
        band = SpeedBand(ConstantSpeedFunction(10.0), 0.1)
        with pytest.raises(ConfigurationError):
            band.lower_function()
        lf = band.lower_function(grid=[10.0, 100.0])
        assert lf.speed(10) == pytest.approx(9.5)


class TestGroupBlockEdges:
    def test_insufficient_capacity_raises(self):
        sfs = [make_pwl(10.0, scale=0.001)]  # max_size 2000
        from repro.kernels import variable_group_block

        with pytest.raises(InfeasiblePartitionError):
            variable_group_block(1000, 32, sfs)  # needs 1e6 elements

    def test_single_block_matrix(self):
        from repro.kernels import variable_group_block

        dist = variable_group_block(16, 32, [ConstantSpeedFunction(1.0)])
        assert dist.num_blocks == 1
        assert dist.owner(0) == 0


class TestWeightedEdges:
    def test_no_local_search(self, rng):
        from repro import partition_weighted

        w = rng.uniform(1, 2, 30)
        res = partition_weighted(
            w, [make_pwl(10.0), make_pwl(30.0)], local_search_passes=0
        )
        assert res.moves == 0
        assert res.counts.sum() == 30

    def test_exact_capacity_fit(self):
        from repro import partition_weighted

        sfs = [
            ConstantSpeedFunction(1.0, max_size=3),
            ConstantSpeedFunction(1.0, max_size=2),
        ]
        res = partition_weighted(np.ones(5), sfs)
        assert res.counts.tolist() in ([3, 2], [2, 3])
        assert res.counts[0] <= 3 and res.counts[1] <= 2


class TestNetworkEdges:
    def test_subset_unknown_name(self):
        from repro.machines import table1_network

        with pytest.raises(KeyError):
            table1_network().subset(["Comp1", "CompX"])

    def test_spec_negative_elements(self):
        from repro.machines import TABLE1_SPECS

        with pytest.raises(ConfigurationError):
            TABLE1_SPECS[0].matrix_size_for_elements(-1)


class TestNumericInputTypes:
    def test_numpy_integer_n(self, heterogeneous_trio):
        n = np.int64(123_456)
        r = partition(n, heterogeneous_trio)
        assert int(r.allocation.sum()) == 123_456

    def test_numpy_float_speeds_constant(self):
        from repro import partition_constant

        r = partition_constant(100, np.array([1.0, 3.0], dtype=np.float32))
        assert r.allocation.sum() == 100

    def test_python_float_problem_size_exact_integerlike(self, heterogeneous_trio):
        # Historical footgun: float n from upstream arithmetic.
        r = partition(int(2e5), heterogeneous_trio)
        assert int(r.allocation.sum()) == 200_000


class TestReportFormatting:
    def test_format_float_small_magnitude(self):
        from repro.experiments import format_float

        assert "e" in format_float(1.2e-7)

    def test_ascii_table_mixed_types(self):
        from repro.experiments import ascii_table

        out = ascii_table(["a", "b"], [[1.5, "x"], [2.25e9, None]])
        assert "x" in out and "None" in out


class TestCostHelpers:
    def test_tile_rejects_nonpositive(self, heterogeneous_trio):
        from repro.experiments import tile_speed_functions

        with pytest.raises(ValueError):
            tile_speed_functions(heterogeneous_trio, 0)


class TestSpeedFunctionScalarConventions:
    def test_time_scalar_type(self):
        sf = make_pwl(10.0)
        assert isinstance(sf.time(100.0), float)
        assert isinstance(sf.g(100.0), float)
        assert isinstance(sf.speed(100.0), float)

    def test_g_at_zero_is_infinite(self):
        sf = make_pwl(10.0)
        assert math.isinf(sf.g(0.0))

    def test_pwl_single_knot(self):
        sf = PiecewiseLinearSpeedFunction([100.0], [5.0])
        assert sf.max_size == 100.0
        assert sf.speed(50) == 5.0
        assert sf.intersect_ray(0.01) == pytest.approx(100.0)  # clamped
        assert sf.intersect_ray(1.0) == pytest.approx(5.0)


class TestVectorizedDegenerate:
    def test_rays_on_segment_boundaries(self):
        from repro.core.vectorized import PiecewiseLinearSet

        sfs = [make_pwl(100.0), make_pwl(50.0)]
        packed = PiecewiseLinearSet(sfs)
        # Query exactly at knot-slope values: the two paths must agree.
        for sf in sfs:
            for g in (sf.knot_speeds / sf.knot_sizes):
                expected = np.array([f.intersect_ray(float(g)) for f in sfs])
                np.testing.assert_allclose(
                    packed.allocations(float(g)), expected, rtol=1e-9
                )
