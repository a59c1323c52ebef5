"""Tests for the vectorised piecewise-linear intersection fast path."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import ConstantSpeedFunction, PiecewiseLinearSpeedFunction
from repro.core.vectorized import ObjectSet, PiecewiseLinearSet, pack_speed_functions
from tests.conftest import make_hump_pwl, make_increasing_pwl, make_pwl


@pytest.fixture
def functions():
    return [
        make_pwl(100.0),
        make_hump_pwl(250.0),
        make_increasing_pwl(80.0),
        make_pwl(40.0, scale=3.0),
    ]


class TestPiecewiseLinearSet:
    @pytest.mark.parametrize("slope", [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1.0])
    def test_matches_scalar_path(self, functions, slope):
        packed = PiecewiseLinearSet(functions)
        expected = np.array([sf.intersect_ray(slope) for sf in functions])
        np.testing.assert_allclose(packed.allocations(slope), expected, rtol=1e-12)

    def test_total(self, functions):
        packed = PiecewiseLinearSet(functions)
        assert packed.total(1e-4) == pytest.approx(
            sum(sf.intersect_ray(1e-4) for sf in functions)
        )

    def test_mixed_knot_counts(self):
        sfs = [
            PiecewiseLinearSpeedFunction([10.0, 100.0], [50.0, 20.0]),
            make_pwl(100.0),  # 6 knots
        ]
        packed = PiecewiseLinearSet(sfs)
        for slope in [1e-4, 1e-2, 0.3, 5.0]:
            expected = np.array([sf.intersect_ray(slope) for sf in sfs])
            np.testing.assert_allclose(packed.allocations(slope), expected, rtol=1e-12)

    def test_single_function(self):
        packed = PiecewiseLinearSet([make_pwl(10.0)])
        assert packed.p == 1
        assert packed.allocations(1e-4)[0] == pytest.approx(
            make_pwl(10.0).intersect_ray(1e-4)
        )

    @settings(max_examples=50, deadline=None)
    @given(
        slope=st.floats(min_value=1e-8, max_value=1e3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_property_agreement(self, slope, seed):
        rng = np.random.default_rng(seed)
        sfs = []
        for _ in range(rng.integers(2, 6)):
            k = int(rng.integers(2, 7))
            xs = np.sort(rng.choice(np.arange(1, 100_000), size=k, replace=False)).astype(float)
            gs = np.sort(rng.uniform(1e-4, 1e2, size=k))[::-1]
            ss = gs * xs
            if np.any(np.diff(ss / xs) >= 0):
                continue
            sfs.append(PiecewiseLinearSpeedFunction(xs, ss))
        assume(len(sfs) >= 2)
        packed = PiecewiseLinearSet(sfs)
        expected = np.array([sf.intersect_ray(slope) for sf in sfs])
        np.testing.assert_allclose(packed.allocations(slope), expected, rtol=1e-9)


class TestMakeAllocator:
    """pack_speed_functions: every fleet gets an evaluator."""

    def test_fast_path_for_uniform_pwl(self, functions):
        assert isinstance(pack_speed_functions(functions), PiecewiseLinearSet)

    def test_generic_path_for_mixed_types(self):
        sfs = [make_pwl(10.0), ConstantSpeedFunction(5.0)]
        pack = pack_speed_functions(sfs)
        np.testing.assert_allclose(
            pack.allocations(1e-3), [sf.intersect_ray(1e-3) for sf in sfs]
        )

    def test_generic_path_for_single_function(self):
        pack = pack_speed_functions([make_pwl(10.0)])
        assert isinstance(pack, ObjectSet)
        assert pack.allocations(1e-3)[0] == pytest.approx(
            make_pwl(10.0).intersect_ray(1e-3)
        )

    def test_algorithms_unchanged_by_fast_path(self, functions):
        from repro import partition

        n = 1_000_000
        fast = partition(n, functions)  # uniform pwl -> fast path
        mixed = list(functions) + [ConstantSpeedFunction(1e-6, max_size=1.0)]
        # Adding a negligible constant processor forces the generic path;
        # makespan must agree (it gets ~0 or 1 elements).
        slow = partition(n, mixed)
        assert fast.makespan == pytest.approx(slow.makespan, rel=1e-3)
