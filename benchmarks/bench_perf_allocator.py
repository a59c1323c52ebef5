"""Performance micro-benchmarks: the ray-intersection hot path.

The partitioner's cost is dominated by ray-graph intersections (figure
21); these benches pin down the two implementations — the per-function
Python loop and the padded-array vectorised set — at testbed and
figure-21 scales, so regressions in the hot path show up immediately.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.vectorized import PiecewiseLinearSet
from repro.experiments import tile_speed_functions


@pytest.fixture(scope="module")
def packed_1080(mm_models):
    return PiecewiseLinearSet(tile_speed_functions(mm_models, 1080))


@pytest.fixture(scope="module")
def functions_1080(mm_models):
    return tile_speed_functions(mm_models, 1080)


def test_perf_vectorised_allocations_p1080(packed_1080, benchmark):
    slope = 1e-7
    out = benchmark(lambda: packed_1080.allocations(slope))
    assert out.shape == (1080,)
    assert np.all(out > 0)


def test_perf_scalar_allocations_p1080(functions_1080, benchmark):
    slope = 1e-7
    out = benchmark(
        lambda: np.array([sf.intersect_ray(slope) for sf in functions_1080])
    )
    assert out.shape == (1080,)


def test_vectorised_and_scalar_agree_at_scale(packed_1080, functions_1080, benchmark):
    def check():
        for slope in (1e-9, 1e-7, 1e-5, 1e-3):
            expected = np.array(
                [sf.intersect_ray(slope) for sf in functions_1080]
            )
            np.testing.assert_allclose(
                packed_1080.allocations(slope), expected, rtol=1e-9
            )
        return True

    assert benchmark.pedantic(check, rounds=1, iterations=1)


def test_perf_partition_p1080(functions_1080, benchmark):
    from repro.core.partition import partition

    n = 2_000_000_000
    result = benchmark(lambda: partition(n, functions_1080))
    assert int(result.allocation.sum()) == n


# ---------------------------------------------------------------------------
# Planner: cold vs cache-miss vs cached vs batched queries (a cache hit
# should be >= 100x faster than a cold solve, and the plan_many sweep
# cheaper per size than 64 independent cold solves).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fleet_1080(mm_models):
    from repro.planner import Fleet

    return Fleet(tile_speed_functions(mm_models, 1080), name="bench-p1080")


def _sweep_sizes(k: int = 64) -> list[int]:
    return [int(n) for n in np.linspace(2e8, 2e9, k)]


def test_perf_plan_cold_p1080(fleet_1080, benchmark):
    from repro.core.bisection import partition_bisection

    n = 2_000_000_000
    result = benchmark(
        lambda: partition_bisection(n, fleet_1080.speed_functions)
    )
    assert int(result.allocation.sum()) == n


def test_perf_plan_miss_p1080(fleet_1080, benchmark):
    from repro.core.bisection import partition_bisection
    from repro.planner import Planner

    planner = Planner(fleet_1080)
    n = 2_000_000_000
    planner.plan(n - 1_000_000)  # a neighbouring plan in the cache

    def miss():
        planner.cache.clear()  # solve on the shared pack, not a hit
        return planner.plan(n)

    result = benchmark(miss)
    cold = partition_bisection(n, fleet_1080.speed_functions)
    assert np.array_equal(result.allocation, cold.allocation)


def test_perf_plan_cache_hit_p1080(fleet_1080, benchmark):
    from repro.planner import Planner

    planner = Planner(fleet_1080)
    n = 2_000_000_000
    expected = planner.plan(n)
    result = benchmark(lambda: planner.plan(n))
    assert result is expected


def test_perf_plan_many_sweep64_p1080(fleet_1080, benchmark):
    from repro.planner import Planner

    sizes = _sweep_sizes(64)

    def sweep():
        planner = Planner(fleet_1080)  # fresh cache: all 64 actually solved
        return planner.plan_many(sizes)

    results = benchmark(sweep)
    assert [int(r.allocation.sum()) for r in results] == sizes


def test_perf_plan_many_cold_baseline64_p1080(fleet_1080, benchmark):
    from repro.core.bisection import partition_bisection

    sizes = _sweep_sizes(64)
    sfs = fleet_1080.speed_functions

    def baseline():
        return [partition_bisection(n, sfs) for n in sizes]

    results = benchmark.pedantic(baseline, rounds=1, iterations=1)
    assert [int(r.allocation.sum()) for r in results] == sizes
