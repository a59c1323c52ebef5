"""Planner equivalence and behaviour tests.

The load-bearing guarantee of the planner is *bit-identity*: every plan
it computes is a cold solve, so a plan served by ``plan``, by the
``plan_many`` lockstep sweep (unsorted, with duplicates), by the core
``partition_bisection_many``, or from the cache must equal a cold
:func:`repro.partition_bisection` run exactly — same integer
allocations, same float makespan, same number of bisection steps.  The
hypothesis properties here assert that over random fleets and query
streams.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ConfigurationError,
    ConstantSpeedFunction,
    Fleet,
    PiecewiseLinearSpeedFunction,
    Planner,
    partition_bisection,
    partition_bisection_many,
    partition_combined,
    partition_modified,
)
from repro.core.vectorized import PiecewiseLinearSet


@st.composite
def pwl_fleet(draw, min_p=2, max_p=6):
    """A packable fleet of piecewise-linear functions (decreasing g)."""
    p = draw(st.integers(min_value=min_p, max_value=max_p))
    sfs = []
    for _ in range(p):
        k = draw(st.integers(min_value=2, max_value=5))
        xs = sorted(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=50_000),
                    min_size=k, max_size=k, unique=True,
                )
            )
        )
        gs = sorted(
            draw(
                st.lists(
                    st.floats(min_value=1e-3, max_value=1e2),
                    min_size=k, max_size=k, unique=True,
                )
            ),
            reverse=True,
        )
        sfs.append(
            PiecewiseLinearSpeedFunction(
                np.array(xs, dtype=float),
                np.array(gs) * np.array(xs, dtype=float),
            )
        )
    return Fleet(sfs)


@st.composite
def fleet_and_sizes(draw):
    fleet = draw(pwl_fleet())
    cap = int(fleet.capacity)
    k = draw(st.integers(min_value=1, max_value=8))
    sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=max(cap, 1)),
            min_size=k, max_size=k,
        )
    )
    return fleet, sizes


def assert_cold_plan(got, cold):
    """``got`` is the cold solve's plan, reached in the same steps."""
    np.testing.assert_array_equal(got.allocation, cold.allocation)
    assert got.makespan == cold.makespan
    assert got.iterations == cold.iterations


class TestBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(fleet_and_sizes())
    def test_plans_equal_cold_bisection(self, case):
        fleet, sizes = case
        planner = Planner(fleet)
        for n in sizes:
            assert_cold_plan(planner.plan(n), partition_bisection(n, fleet.speed_functions))

    @settings(max_examples=60, deadline=None)
    @given(fleet_and_sizes())
    def test_plan_many_equals_cold_bisection(self, case):
        fleet, sizes = case
        batch = sizes + sizes[::-1]  # unsorted, every size twice
        results = Planner(fleet).plan_many(batch)
        assert len(results) == len(batch)
        for n, r in zip(batch, results):
            assert_cold_plan(r, partition_bisection(n, fleet.speed_functions))

    @settings(max_examples=40, deadline=None)
    @given(fleet_and_sizes())
    def test_bisection_many_equals_cold_bisection(self, case):
        fleet, sizes = case
        batch = sizes + sizes[::-1]
        results = partition_bisection_many(batch, fleet.speed_functions)
        for n, r in zip(batch, results):
            assert_cold_plan(r, partition_bisection(n, fleet.speed_functions))

    @settings(max_examples=30, deadline=None)
    @given(fleet_and_sizes())
    def test_cache_served_plans_identical(self, case):
        fleet, sizes = case
        planner = Planner(fleet)
        first = [planner.plan(n) for n in sizes]
        second = [planner.plan(n) for n in sizes]
        for a, b in zip(first, second):
            assert a is b  # served from cache, not recomputed

    @settings(max_examples=20, deadline=None)
    @given(fleet_and_sizes(), st.sampled_from(["combined", "modified"]))
    def test_other_algorithms_equal_cold(self, case, algorithm):
        fleet, sizes = case
        cold_fn = {
            "combined": partition_combined,
            "modified": partition_modified,
        }[algorithm]
        planner = Planner(fleet, algorithm=algorithm)
        for n in sizes:
            assert_cold_plan(planner.plan(n), cold_fn(n, fleet.speed_functions))
        for n, r in zip(sizes, Planner(fleet, algorithm=algorithm).plan_many(sizes)):
            assert_cold_plan(r, cold_fn(n, fleet.speed_functions))


class TestPlannerBehaviour:
    @pytest.fixture
    def fleet(self):
        return Fleet(
            [
                PiecewiseLinearSpeedFunction(
                    np.array([1.0, 100.0, 10_000.0]),
                    np.array([50.0, 4000.0, 90_000.0]),
                ),
                PiecewiseLinearSpeedFunction(
                    np.array([1.0, 500.0, 20_000.0]),
                    np.array([80.0, 30_000.0, 200_000.0]),
                ),
            ]
        )

    def test_unknown_algorithm_rejected(self, fleet):
        with pytest.raises(ConfigurationError):
            Planner(fleet, algorithm="magic")

    def test_counters_track_cold_warm_and_hits(self, fleet):
        # Warm starts are removed: every computed plan counts as cold.
        planner = Planner(fleet)
        planner.plan(100)
        planner.plan(200)
        planner.plan(100)
        s = planner.stats()
        assert s.plans_computed == s.cold_plans == 2
        assert s.warm_plans == 0
        assert s.cache.hits == 1
        assert s.cache.misses == 2
        assert "plans=2" in str(s)

    def test_zero_size_plan(self, fleet):
        r = Planner(fleet).plan(0)
        assert int(r.allocation.sum()) == 0
        assert r.makespan == 0.0

    def test_plan_many_preserves_input_order_with_duplicates(self, fleet):
        planner = Planner(fleet)
        sizes = [500, 10, 500, 90, 10]
        results = planner.plan_many(sizes)
        for n, r in zip(sizes, results):
            assert int(r.allocation.sum()) == n
        # Duplicates are cache hits inside the sweep.
        assert planner.stats().plans_computed == 3

    def test_results_carry_reusable_region(self, fleet):
        r = Planner(fleet).plan(777)
        assert r.region is not None
        again = partition_bisection(777, fleet.speed_functions, region=r.region)
        np.testing.assert_array_equal(again.allocation, r.allocation)

    def test_distinct_fleets_do_not_share_cache_keys(self, fleet):
        planner = Planner(fleet)
        planner.plan(100)
        other = Fleet(fleet.speed_functions)  # same content
        assert other.fingerprint == planner.fleet.fingerprint

    def test_constant_fleet_supported(self):
        fleet = Fleet(
            [
                ConstantSpeedFunction(5.0, max_size=1000),
                ConstantSpeedFunction(3.0, max_size=1000),
            ]
        )
        # Constants compile, so even the classical single-number fleet packs.
        assert isinstance(fleet.pack, PiecewiseLinearSet)
        planner = Planner(fleet)
        for n in (10, 321, 1234):
            assert_cold_plan(planner.plan(n), partition_bisection(n, fleet.speed_functions))

    def test_threaded_queries_consistent(self, fleet):
        import threading

        planner = Planner(fleet)
        sizes = list(range(1, 60))
        expected = {
            n: partition_bisection(n, fleet.speed_functions).allocation
            for n in sizes
        }
        errors = []

        def worker():
            try:
                for n in sizes:
                    np.testing.assert_array_equal(
                        planner.plan(n).allocation, expected[n]
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
