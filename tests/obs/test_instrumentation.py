"""Instrumented hot paths: the metrics must agree with the results.

The 'never disagree' property: every number ``repro stats`` exports is
read from the same objects the code itself counts with (cache stats,
solver iteration counts, simulator traces), so these tests cross-check
metrics against the authoritative return values.
"""

from __future__ import annotations

import pytest

from repro import ConstantSpeedFunction, obs
from repro.core.bisection import partition_bisection, partition_bisection_many
from repro.core.combined import partition_combined
from repro.kernels import variable_group_block
from repro.planner import Fleet, Planner
from repro.simulate.lu_executor import simulate_lu

N = 1_000_000


def _counter_value(name, **labels):
    metric = obs.get_registry().get(name, labels or None)
    return 0 if metric is None else metric.value


class TestSolverMetrics:
    def test_bisection_counts_match_result(self, fresh_obs, heterogeneous_trio):
        obs.enable()
        result = partition_bisection(N, heterogeneous_trio)
        assert _counter_value("core.solve.calls", algorithm="bisection") == 1
        assert (
            _counter_value("core.solve.iterations.total", algorithm="bisection")
            == result.iterations
        )
        hist = obs.get_registry().get(
            "core.solve.iterations", {"algorithm": "bisection"}
        )
        assert hist.count == 1
        assert hist.sum == result.iterations

    def test_combined_labelled_separately(self, fresh_obs, heterogeneous_trio):
        obs.enable()
        partition_combined(N, heterogeneous_trio)
        assert _counter_value("core.solve.calls", algorithm="combined") == 1
        assert _counter_value("core.solve.calls", algorithm="bisection") == 0

    def test_batch_metrics(self, fresh_obs, heterogeneous_trio):
        obs.enable()
        sizes = [N, N + 1000, N + 2000]
        results = partition_bisection_many(sizes, heterogeneous_trio)
        assert len(results) == len(sizes)
        assert _counter_value("core.batch.calls") == 1
        assert _counter_value("core.batch.sizes.total") == len(sizes)
        assert _counter_value("core.batch.steps.total") >= 1
        # Each batched solve is also accounted as a bisection solve.
        assert _counter_value("core.solve.calls", algorithm="bisection") == len(sizes)

    def test_disabled_mode_records_nothing(self, fresh_obs, heterogeneous_trio):
        assert not obs.is_enabled()
        partition_bisection(N, heterogeneous_trio)
        partition_bisection_many([N, N + 1000], heterogeneous_trio)
        assert obs.get_registry().get("core.solve.calls", {"algorithm": "bisection"}) is None
        assert obs.get_registry().get("core.batch.calls") is None


class TestPlannerMetrics:
    def test_cache_stats_and_registry_are_one_source(self, fresh_obs, heterogeneous_trio):
        planner = Planner(Fleet(heterogeneous_trio, name="obs-test"))
        planner.plan(N)
        planner.plan(N)          # hit
        planner.plan(N + 500)    # miss
        stats = planner.cache.stats()
        cache = planner.cache.name
        assert stats.hits == _counter_value("planner.cache.hits", cache=cache) == 1
        assert stats.misses == _counter_value("planner.cache.misses", cache=cache) == 2

    def test_warm_and_cold_plans_counted_without_enable(self, fresh_obs, heterogeneous_trio):
        # Structural counters are always on — no obs.enable() here.  Warm
        # starts are removed: every computed plan counts as cold.
        planner = Planner(Fleet(heterogeneous_trio, name="obs-test"))
        planner.plan(N)
        planner.plan(N + 500)
        planner.plan(N + 1000)
        stats = planner.stats()
        assert stats.plans_computed == stats.cold_plans == 3
        assert stats.warm_plans == 0

    def test_enabled_planner_emits_solve_spans(self, fresh_obs, heterogeneous_trio):
        planner = Planner(Fleet(heterogeneous_trio, name="obs-test"))
        obs.enable()
        planner.plan(N)
        planner.plan(N)  # cache hit: deliberately span-free
        roots = obs.get_tracer().roots()
        assert [r.name for r in roots] == ["planner.solve"]
        assert roots[0].attrs["n"] == N
        hist = obs.get_registry().get("planner.solve.seconds")
        assert hist.count == 1

    def test_two_planners_do_not_share_counters(self, fresh_obs, heterogeneous_trio):
        a = Planner(Fleet(heterogeneous_trio, name="obs-test"))
        b = Planner(Fleet(heterogeneous_trio, name="obs-test"))
        a.plan(N)
        assert a.cache.stats().misses == 1
        assert b.cache.stats().misses == 0
        assert a.cache.name != b.cache.name


class TestSimulatorMetrics:
    def test_lu_spans_match_simulation_trace(self, fresh_obs):
        sfs = [ConstantSpeedFunction(1.0), ConstantSpeedFunction(3.0)]
        dist = variable_group_block(256, 32, sfs)
        obs.enable()
        sim = simulate_lu(dist, sfs)
        (root,) = obs.get_tracer().roots()
        assert root.name == "simulate.lu"
        steps = [s for s in root.walk() if s.name == "simulate.lu.step"]
        assert len(steps) == len(sim.trace) == sim.steps
        modelled = sum(s.seconds for s in steps)
        assert modelled == pytest.approx(sim.total_seconds)
        # Each step decomposes into panel/comm/update sim children.
        names = {c.name for c in steps[0].children}
        assert names == {"simulate.lu.panel", "simulate.lu.comm", "simulate.lu.update"}
        assert _counter_value("simulate.lu.calls") == 1
        assert _counter_value("simulate.lu.steps.total") == sim.steps

    def test_lu_disabled_keeps_simulation_identical(self, fresh_obs):
        sfs = [ConstantSpeedFunction(1.0), ConstantSpeedFunction(3.0)]
        dist = variable_group_block(256, 32, sfs)
        baseline = simulate_lu(dist, sfs)
        with obs.enabled(True):
            instrumented = simulate_lu(dist, sfs)
        assert instrumented.total_seconds == baseline.total_seconds
        assert obs.get_registry().get("simulate.lu.calls").value == 1
