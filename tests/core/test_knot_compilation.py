"""Knot compilation: every model family lowers into the shared pack.

The compilation protocol (``SpeedFunction.as_knots``) promises that a
pack built from *any* mix of compilable models evaluates bit-identically
to the per-object path — except comm-aware rows, whose closed-form
segment solve replaces the per-object bisection and is documented to the
1e-9 class.  These tests pin that contract per family, for every pack
entry point (``allocations``, ``allocations_many``, ``speeds``,
``times``, ``time_one``), plus the O(p) rescale clone and the
fallback/fast-path counters.  Fleets that do not compile get the
per-object :class:`~repro.core.vectorized.ObjectSet` evaluator, which must
drive every solver to the optimum and stay independent of any compiled
solve running beside it.
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AnalyticSpeedFunction,
    ConstantSpeedFunction,
    PiecewiseLinearSpeedFunction,
)
from repro.core.bounded import TruncatedSpeedFunction
from repro.core.comm_aware import CommAwareSpeedFunction
from repro.core.bisection import partition_bisection, partition_bisection_many
from repro.core.combined import partition_combined
from repro.core.exact import partition_exact
from repro.core.geometry import SlopeRegion, ensure_bracket
from repro.core.modified import partition_modified
from repro.core.refine import refine_greedy
from repro.core.step_model import StepSpeedFunction
from repro.core.vectorized import (
    ObjectSet,
    PiecewiseLinearSet,
    pack_speed_functions,
)
from repro.planner import Fleet, Planner
from repro.verify import check_allocation
from tests.conftest import make_hump_pwl, make_pwl

SLOPES = [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 1e3]


@pytest.fixture
def fresh_obs():
    """Throwaway obs registry/tracer so counter tests never leak state."""
    from repro import obs

    previous_registry = obs.set_registry(obs.MetricsRegistry())
    previous_tracer = obs.set_tracer(obs.Tracer())
    obs.disable()
    try:
        yield obs
    finally:
        obs.disable()
        obs.set_registry(previous_registry)
        obs.set_tracer(previous_tracer)


def _reference_allocations(sfs, slope):
    return np.array([sf.intersect_ray(slope) for sf in sfs], dtype=float)


def _reference_speeds(sfs, xs):
    return np.array([sf.speed(float(x)) for sf, x in zip(sfs, xs)], dtype=float)


def _reference_times(sfs, xs):
    return np.array([sf.time(float(x)) for sf, x in zip(sfs, xs)], dtype=float)


def _probe_sizes(pack):
    """Per-row probe sizes spanning zero, interior and the bound."""
    caps = np.where(np.isfinite(pack.max_sizes), pack.max_sizes, 4e6)
    return [
        np.zeros(pack.p),
        caps * 0.001,
        caps * 0.37,
        caps * 0.999,
        np.floor(caps),
    ]


def _random_exact_fleet(rng):
    """2-6 machines drawn from the exact-class families."""
    sfs = []
    for _ in range(int(rng.integers(2, 7))):
        roll = rng.random()
        peak = float(10.0 ** rng.uniform(1.0, 2.5))
        if roll < 0.25:
            sfs.append(make_pwl(peak, scale=float(rng.uniform(0.5, 4.0))))
        elif roll < 0.45:
            m = int(rng.integers(1, 5))
            bs = np.sort(10.0 ** rng.uniform(3.0, 6.5, m))
            while np.any(np.diff(bs) <= 0):
                bs = np.sort(10.0 ** rng.uniform(3.0, 6.5, m))
            ss = peak * np.sort(rng.uniform(0.05, 1.0, m))[::-1]
            while np.any(np.diff(ss) >= 0):
                ss = peak * np.sort(rng.uniform(0.05, 1.0, m))[::-1]
            sfs.append(StepSpeedFunction(bs, ss))
        elif roll < 0.65:
            base = make_pwl(peak)
            sfs.append(
                TruncatedSpeedFunction(base, float(rng.uniform(2e3, 1.9e6)))
            )
        elif roll < 0.85:
            sfs.append(make_pwl(peak).scaled(float(rng.uniform(0.2, 5.0))))
        else:
            cap = float(10.0 ** rng.uniform(4.0, 6.5)) if rng.random() < 0.7 else np.inf
            sfs.append(
                ConstantSpeedFunction(peak, max_size=cap)
                if np.isfinite(cap)
                else ConstantSpeedFunction(peak)
            )
    return sfs


def _analytic(peak: float, knee: float, max_size: float) -> AnalyticSpeedFunction:
    """A raw analytic model: no knot lowering, so it blocks compilation."""
    return AnalyticSpeedFunction(
        lambda x: peak / (1.0 + np.asarray(x, dtype=float) / knee),
        max_size=max_size,
    )


def assert_pack_matches(sfs, *, exact=True, rtol=0.0):
    """The family contract: every pack entry point vs the object path."""
    pack = pack_speed_functions(sfs)
    assert isinstance(pack, PiecewiseLinearSet), "fleet unexpectedly failed to compile"
    assert pack.exact == exact

    for slope in SLOPES:
        got = pack.allocations(slope)
        want = _reference_allocations(sfs, slope)
        if exact:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol)

    # Batched rows are bitwise the sequential single-slope answers.
    many = pack.allocations_many(np.asarray(SLOPES))
    for i, slope in enumerate(SLOPES):
        np.testing.assert_array_equal(many[i], pack.allocations(slope))

    for xs in _probe_sizes(pack):
        np.testing.assert_array_equal(pack.speeds(xs), _reference_speeds(sfs, xs))
        got_t = pack.times(xs)
        np.testing.assert_array_equal(got_t, _reference_times(sfs, xs))
        for i in range(pack.p):
            assert pack.time_one(i, float(xs[i])) == got_t[i]
    return pack


class TestPerFamilyConformance:
    def test_constant(self):
        assert_pack_matches([
            make_pwl(100.0),
            ConstantSpeedFunction(70.0, max_size=3e6),
            ConstantSpeedFunction(55.0),  # unbounded memory
        ])

    def test_step(self):
        assert_pack_matches([
            make_pwl(90.0),
            StepSpeedFunction([1e4, 1e5, 2e6], [120.0, 60.0, 6.0]),
            StepSpeedFunction([5e5], [80.0]),  # single segment
        ])

    def test_analytic_tabulated(self):
        def f(x):
            x = np.asarray(x, dtype=float)
            return 150.0 / (1.0 + x / 2e5)

        analytic = AnalyticSpeedFunction(f, max_size=2e6)
        tab = analytic.tabulate(np.geomspace(1e3, 2e6, 24))
        assert_pack_matches([make_pwl(100.0), tab])

    def test_truncated(self):
        assert_pack_matches([
            TruncatedSpeedFunction(make_pwl(100.0), 4.2e5),
            TruncatedSpeedFunction(StepSpeedFunction([1e4, 1e6], [90.0, 9.0]), 7e5),
            TruncatedSpeedFunction(ConstantSpeedFunction(60.0), 1e5),
            make_hump_pwl(200.0),
        ])

    def test_truncated_nonbinding_bound_adds_no_cap(self):
        sf = TruncatedSpeedFunction(make_pwl(100.0), 1e9)
        row = sf.as_knots()
        assert row.x_cap is None and row.s_cap is None and row.exact

    def test_scaled(self):
        assert_pack_matches([
            make_pwl(100.0).scaled(1.75),
            StepSpeedFunction([2e4, 5e5], [100.0, 20.0]).scaled(0.4),
            ConstantSpeedFunction(80.0, max_size=1e6).scaled(3.0),
        ])

    def test_comm_aware_is_1e9_class(self):
        sfs = [
            CommAwareSpeedFunction(
                make_pwl(100.0), startup_s=2e-4, seconds_per_element=3e-7
            ),
            CommAwareSpeedFunction(ConstantSpeedFunction(50.0, max_size=2e6),
                                   seconds_per_element=1e-6),
            make_pwl(150.0),
        ]
        pack = pack_speed_functions(sfs)
        assert isinstance(pack, PiecewiseLinearSet) and pack.exact is False
        for slope in SLOPES:
            np.testing.assert_allclose(
                pack.allocations(slope),
                _reference_allocations(sfs, slope),
                rtol=1e-9, atol=1e-9,
            )
        many = pack.allocations_many(np.asarray(SLOPES))
        for i, slope in enumerate(SLOPES):
            np.testing.assert_array_equal(many[i], pack.allocations(slope))
        for xs in _probe_sizes(pack):
            np.testing.assert_allclose(
                pack.speeds(xs), _reference_speeds(sfs, xs), rtol=1e-12
            )
            np.testing.assert_allclose(
                pack.times(xs), _reference_times(sfs, xs), rtol=1e-12
            )

    def test_comm_over_comm_blocks_compilation(self):
        inner = CommAwareSpeedFunction(make_pwl(100.0), startup_s=1e-4)
        outer = CommAwareSpeedFunction(inner, seconds_per_element=1e-7)
        assert outer.as_knots() is None
        assert isinstance(pack_speed_functions([outer, make_pwl(50.0)]), ObjectSet)

    def test_analytic_blocks_compilation(self):
        analytic = AnalyticSpeedFunction(
            lambda x: 100.0 / (1.0 + np.asarray(x, dtype=float) / 1e5),
            max_size=1e6,
        )
        assert isinstance(pack_speed_functions([analytic, make_pwl(50.0)]), ObjectSet)


class TestPropertyConformance:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_mixed_fleet_bit_identity(self, seed):
        rng = np.random.default_rng(seed)
        sfs = _random_exact_fleet(rng)
        pack = pack_speed_functions(sfs)
        assert isinstance(pack, PiecewiseLinearSet)
        for slope in 10.0 ** rng.uniform(-7, 2, 8):
            np.testing.assert_array_equal(
                pack.allocations(float(slope)),
                _reference_allocations(sfs, float(slope)),
            )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=3_000_000),
    )
    def test_end_to_end_solver_matches_per_object_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        sfs = [
            make_pwl(float(rng.uniform(20.0, 200.0))),
            StepSpeedFunction([1e4, 1e5, 2e6], [110.0, 55.0, 5.0]),
            ConstantSpeedFunction(float(rng.uniform(10.0, 90.0)), max_size=3e6),
            TruncatedSpeedFunction(make_hump_pwl(180.0), 9e5),
        ]
        packed = partition_bisection(n, sfs)
        pure = partition_bisection(n, sfs, pack=ObjectSet(sfs))
        np.testing.assert_array_equal(packed.allocation, pure.allocation)
        assert float(packed.makespan) == float(pure.makespan)


class TestRescaleClone:
    def test_rescaled_pack_matches_scaled_objects(self):
        sfs = [make_pwl(100.0), StepSpeedFunction([1e5, 1e6], [90.0, 9.0]),
               ConstantSpeedFunction(40.0, max_size=2e6)]
        pack = pack_speed_functions(sfs)
        factors = np.array([1.25, 0.8, 2.0])
        clone = pack.rescaled(factors)
        scaled = [sf.scaled(float(f)) for sf, f in zip(sfs, factors)]
        for slope in SLOPES:
            np.testing.assert_array_equal(
                clone.allocations(slope), _reference_allocations(scaled, slope)
            )
        for xs in _probe_sizes(clone):
            np.testing.assert_array_equal(
                clone.speeds(xs), _reference_speeds(scaled, xs)
            )
            np.testing.assert_array_equal(
                clone.times(xs), _reference_times(scaled, xs)
            )

    def test_rescaled_rejects_bad_factors(self):
        pack = pack_speed_functions([make_pwl(100.0), make_pwl(50.0)])
        with pytest.raises(ValueError):
            pack.rescaled(np.array([1.0]))
        with pytest.raises(ValueError):
            pack.rescaled(np.array([1.0, -2.0]))

    def test_rescaled_comm_rows_refuse(self):
        sfs = [CommAwareSpeedFunction(make_pwl(100.0), startup_s=1e-4),
               make_pwl(60.0)]
        pack = pack_speed_functions(sfs)
        with pytest.raises(ValueError):
            pack.rescaled(np.array([2.0, 1.0]))

    def test_fingerprint_changes_with_scale_only(self):
        pack = pack_speed_functions([make_pwl(100.0), make_pwl(50.0)])
        same = pack.rescaled(np.array([1.0, 1.0]))
        other = pack.rescaled(np.array([2.0, 1.0]))
        assert same.fingerprint == pack.fingerprint
        assert other.fingerprint != pack.fingerprint


class TestRowReplacement:
    """``with_rows`` is a from-scratch build over the new rows."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "swap",
        [
            {0: 6},  # a narrow row takes the other table's width
            {6: 0},  # the widest row (the table) narrows
            {2: 2, 4: 4},  # step drops and comm terms
            {3: 3, 5: 5},  # a truncation cap and a constant
            {i: i for i in range(7)},
        ],
    )
    def test_matches_a_full_build(self, seed, swap):
        rng = np.random.default_rng(seed)
        old, new = _decorated_fleet(rng), _decorated_fleet(rng)
        sfs = list(old)
        for i, j in swap.items():
            sfs[i] = new[j]
        patched = pack_speed_functions(old).with_rows(
            {i: sfs[i].as_knots() for i in swap}
        )
        full = pack_speed_functions(sfs)
        assert patched.fingerprint == full.fingerprint
        for name, value in vars(full).items():
            if isinstance(value, np.ndarray):
                got = getattr(patched, name)
                assert got.dtype == value.dtype, name
                np.testing.assert_array_equal(got, value, err_msg=name)
            elif name not in ("_fingerprint", "_static_digest_box"):
                assert getattr(patched, name) == value, name
        for slope in SLOPES:
            np.testing.assert_array_equal(
                patched.allocations(slope), full.allocations(slope)
            )


class TestCounters:
    def test_fast_path_and_fallback_labels(self, fresh_obs):
        from repro import obs

        obs.enable()
        pack_speed_functions([make_pwl(100.0), StepSpeedFunction([1e5], [50.0])])
        analytic = AnalyticSpeedFunction(
            lambda x: 100.0 / (1.0 + np.asarray(x, dtype=float) / 1e5),
            max_size=1e6,
        )
        pack_speed_functions([make_pwl(100.0), analytic])
        pack_speed_functions([make_pwl(100.0)])  # fleet of one: fallback

        reg = obs.get_registry()
        assert reg.get("core.pack.fast_path", None).value == 1
        assert reg.get(
            "core.pack.fallback", {"blocked_by": "AnalyticSpeedFunction"}
        ).value == 1
        assert reg.get(
            "core.pack.fallback", {"blocked_by": "fleet_too_small"}
        ).value == 1

    def test_drift_rescale_is_o_p_not_a_repack(self, fresh_obs):
        """adapt-style drift correction must clone, never rebuild."""
        from repro import obs
        from repro.adapt.replanner import Replanner

        sfs = [make_pwl(100.0), make_pwl(60.0), make_pwl(30.0)]
        obs.enable()
        rp = Replanner(sfs)  # builds the base fleet: exactly one pack build
        reg = obs.get_registry()
        builds_after_init = reg.get("core.pack.build", None).value
        assert builds_after_init >= 1

        rp.planner_for([1.1, 0.9, 1.0])
        rp.planner_for([1.3, 0.7, 1.0])
        rp.planner_for([1.1, 0.9, 1.0])  # LRU hit: no new fleet at all

        assert reg.get("core.pack.build", None).value == builds_after_init
        assert reg.get("core.pack.rescale", None).value == 2

    def test_fleet_rescaled_reuses_pack(self):
        fleet = Fleet([make_pwl(100.0), make_pwl(60.0)])
        scaled = fleet.rescaled([2.0, 1.0])
        assert isinstance(scaled.pack, PiecewiseLinearSet)
        assert scaled.pack is not fleet.pack
        # The knot arrays are shared, only the scale vector is new.
        assert scaled.pack._xs is fleet.pack._xs
        np.testing.assert_array_equal(scaled.pack.scales, [2.0, 1.0])


class TestObjectSetEvaluator:
    """The per-object evaluator: same surface, same answers, no globals."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_agrees_bit_for_bit_with_exact_pack(self, seed):
        rng = np.random.default_rng(seed)
        sfs = _random_exact_fleet(rng)
        pack = pack_speed_functions(sfs)
        objects = ObjectSet(sfs)
        assert isinstance(pack, PiecewiseLinearSet) and pack.exact
        assert objects.p == pack.p and objects.exact
        np.testing.assert_array_equal(objects.max_sizes, pack.max_sizes)
        slopes = 10.0 ** rng.uniform(-7, 2, 6)
        for slope in slopes:
            np.testing.assert_array_equal(
                objects.allocations(float(slope)), pack.allocations(float(slope))
            )
        many = objects.allocations_many(slopes)
        np.testing.assert_array_equal(many, pack.allocations_many(slopes))
        for r, slope in enumerate(slopes):
            np.testing.assert_array_equal(many[r], pack.allocations(float(slope)))
        for xs in _probe_sizes(pack):
            np.testing.assert_array_equal(objects.speeds(xs), pack.speeds(xs))
            t = objects.times(xs)
            np.testing.assert_array_equal(t, pack.times(xs))
            for i in range(pack.p):
                assert objects.time_one(i, float(xs[i])) == t[i]
                assert pack.time_one(i, float(xs[i])) == t[i]

    def test_rescaled_refuses(self):
        with pytest.raises(ValueError):
            ObjectSet([make_pwl(100.0), make_pwl(50.0)]).rescaled([2.0, 1.0])

    def test_object_set_evaluates_no_speculative_rows(self, monkeypatch):
        """Per-object ladders probe one slope at a time and the handout is
        the heap: no object call is spent on a row or candidate that the
        sequential algorithm would not have evaluated."""
        calls = {"intersect_ray": 0, "time": 0}
        for name in calls:
            original = getattr(AnalyticSpeedFunction, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(AnalyticSpeedFunction, name, counted)
        sfs = [_analytic(peak, 1e5, 1e9) for peak in (50.0, 120.0, 300.0)]
        objects = ObjectSet(sfs)
        assert objects.speculative_rows == 1
        assert pack_speed_functions([make_pwl(1.0), make_pwl(2.0)]).speculative_rows > 1
        stale = SlopeRegion(upper=1e3, lower=1e2)
        _, probes = ensure_bracket(stale, 10**8, sfs, pack=objects)
        assert probes > 3  # the ladder had to walk several steps
        assert calls["intersect_ray"] == probes * len(sfs)
        base = np.array([100.0, 200.0, 300.0])
        refine_greedy(620, sfs, base, pack=objects)
        assert calls["time"] == len(sfs) + 20  # the heap build, one per element

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        fill=st.floats(min_value=1e-4, max_value=0.95),
    )
    def test_analytic_fleets_reach_the_exact_optimum(self, seed, fill):
        rng = np.random.default_rng(seed)
        sfs = [
            _analytic(float(rng.uniform(50.0, 200.0)),
                      float(10.0 ** rng.uniform(4.0, 5.5)), 2e6),
            make_pwl(float(rng.uniform(20.0, 200.0))),
            StepSpeedFunction([1e4, 1e5, 2e6], [110.0, 55.0, 5.0]),
        ]
        if rng.random() < 0.5:
            sfs.append(_analytic(float(rng.uniform(10.0, 90.0)), 3e5, 1e6))
        assert isinstance(pack_speed_functions(sfs), ObjectSet)
        capacity = sum(sf.max_size for sf in sfs)
        n = max(1, int(fill * capacity))
        m = max(1, n // 3)
        optimum = partition_exact(n, sfs).makespan
        fleet = Fleet(sfs)
        plans = {
            "bisection": partition_bisection(n, sfs),
            "bisection_many": partition_bisection_many([m, n], sfs)[1],
            "modified": partition_modified(n, sfs),
            "combined": partition_combined(n, sfs),
            "plan_many": Planner(fleet, algorithm="bisection").plan_many([m, n])[1],
        }
        for name, plan in plans.items():
            assert int(plan.allocation.sum()) == n, name
            assert math.isclose(plan.makespan, optimum, rel_tol=1e-9), name
            cert = check_allocation(plan.allocation, sfs, n=n, makespan=plan.makespan)
            assert cert.ok, (name, cert.violations)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=2_000_000),
    )
    def test_concurrent_packed_and_object_solves_are_independent(self, seed, n):
        rng = np.random.default_rng(seed)
        sfs = _random_exact_fleet(rng)
        n = min(n, int(sum(min(sf.max_size, 4e6) for sf in sfs)))
        pack = pack_speed_functions(sfs)
        evaluators = {"packed": pack, "objects": ObjectSet(sfs)}
        serial = {
            name: partition_bisection(n, sfs, pack=ev)
            for name, ev in evaluators.items()
        }
        barrier = threading.Barrier(len(evaluators))
        concurrent: dict = {}

        def solve(name):
            barrier.wait()
            for _ in range(3):
                concurrent.setdefault(name, []).append(
                    partition_bisection(n, sfs, pack=evaluators[name])
                )

        threads = [threading.Thread(target=solve, args=(k,)) for k in evaluators]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two solves finely
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert set(concurrent) == set(evaluators)
        for name, results in concurrent.items():
            assert len(results) == 3
            for r in results:
                np.testing.assert_array_equal(r.allocation, serial[name].allocation)
                assert r.makespan == serial[name].makespan
        # Exact-class rows: the two evaluators agree with each other too.
        np.testing.assert_array_equal(
            serial["packed"].allocation, serial["objects"].allocation
        )


def _decorated_fleet(rng):
    """One row per pack decoration: scale, comm, truncation, step drops,
    and knot widths from 2 to 23 (narrow rows are padded)."""

    def peak() -> float:
        return float(10.0 ** rng.uniform(1.0, 2.5))

    bs = np.sort(10.0 ** rng.uniform(3.0, 6.3, 3))
    knee, top = float(10.0 ** rng.uniform(4.0, 5.5)), peak()
    table = AnalyticSpeedFunction(
        lambda x: top / (1.0 + np.asarray(x, dtype=float) / knee), max_size=2e6
    ).tabulate(np.geomspace(1e3, 2e6, int(rng.integers(8, 24))))
    comm_base = make_pwl(peak())
    unit = 1.0 / float(comm_base.speed(1e3))
    return [
        make_pwl(peak(), scale=float(rng.uniform(0.5, 4.0))),
        make_pwl(peak()).scaled(float(rng.uniform(0.2, 5.0))),
        StepSpeedFunction(bs, peak() * np.array([1.0, 0.5, 0.05])),
        TruncatedSpeedFunction(make_hump_pwl(peak()), float(rng.uniform(2e4, 1.9e6))),
        CommAwareSpeedFunction(
            comm_base,
            startup_s=float(rng.uniform(0.0, 50.0)) * unit,
            seconds_per_element=float(rng.uniform(0.0, 0.5)) * unit,
        ),
        ConstantSpeedFunction(peak(), max_size=float(10.0 ** rng.uniform(4.0, 6.5))),
        table,
    ]


class TestActiveSetSteps:
    """``rays`` inside a bracket searches only the undecided rows, and
    nothing it returns differs from a full search."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_active_set_step_equals_the_plain_step(self, seed):
        rng = np.random.default_rng(seed)
        pack = pack_speed_functions(_decorated_fleet(rng))
        assert isinstance(pack, PiecewiseLinearSet)
        assert pack._has_scale and pack._has_comm and pack._has_trunc
        for _ in range(4):
            lower, upper = (float(c) for c in np.sort(10.0 ** rng.uniform(-7, 2, 2)))
            region = SlopeRegion(upper=upper, lower=lower)
            _, (steep, shallow) = pack.rays([upper, lower])
            inside = min(max(lower + (upper - lower) * rng.random(), lower), upper)
            mids = [lower, upper, inside, region.midpoint(), region.midpoint("angle")]
            for mid in mids:
                got, seg = pack.rays(mid, steep, shallow)
                np.testing.assert_array_equal(got, pack.allocations(mid))
                np.testing.assert_array_equal(seg, pack.rays(mid)[1])
            # The lockstep form: one bracket per batch row.
            got, _ = pack.rays(mids, np.tile(steep, (5, 1)), np.tile(shallow, (5, 1)))
            np.testing.assert_array_equal(got, pack.allocations_many(mids))
        for slope in 10.0 ** rng.uniform(-7, 2, 8):
            np.testing.assert_array_equal(
                pack.allocations(float(slope)), pack.allocations_many([slope])[0]
            )

    def test_large_batches_are_evaluated_in_slices(self, monkeypatch):
        import repro.core.vectorized as vectorized

        rng = np.random.default_rng(7)
        pack = pack_speed_functions(_decorated_fleet(rng))
        slopes = np.sort(10.0 ** rng.uniform(-7, 2, 7))
        whole, segs = pack.rays(slopes)
        steep, shallow = np.repeat(segs[-1:], 7, axis=0), np.repeat(segs[:1], 7, axis=0)
        sizes = np.outer(np.geomspace(0.01, 0.99, 7), pack.max_sizes)
        speeds = pack.speeds(sizes)
        monkeypatch.setattr(vectorized, "_BATCH_PAIRS", 2 * pack.p)
        np.testing.assert_array_equal(pack.allocations_many(slopes), whole)
        np.testing.assert_array_equal(pack.rays(slopes, steep, shallow)[0], whole)
        np.testing.assert_array_equal(pack.speeds(sizes), speeds)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_speeds_and_times_keep_knot_pad_and_bound_sizes(self, seed):
        rng = np.random.default_rng(seed)
        sfs = _decorated_fleet(rng)
        pack = pack_speed_functions(sfs)
        knots = [sf.as_knots().sizes for sf in sfs]
        probes = [
            np.array([k[rng.integers(k.size)] for k in knots]),  # knot-exact
            np.array([k[-1] for k in knots]),  # the size every pad column repeats
            np.array([np.nextafter(k[rng.integers(k.size)], np.inf) for k in knots]),
            pack.max_sizes * 1.5,  # past the bound
        ]
        objects = ObjectSet(sfs)
        comm = pack._comm_mask
        for xs in probes:
            speeds, times = pack.speeds(xs), pack.times(xs)
            np.testing.assert_array_equal(speeds[~comm], objects.speeds(xs)[~comm])
            np.testing.assert_array_equal(times[~comm], objects.times(xs)[~comm])
            for i in range(pack.p):
                assert pack.time_one(i, float(xs[i])) == times[i]
            # Batched sizes evaluate row by row, bit for bit.
            np.testing.assert_array_equal(pack.speeds(np.stack([xs, xs]))[1], speeds)

    def test_cold_solves_search_at_most_half_the_rows(self, monkeypatch):
        from repro.experiments import build_network_models, tile_speed_functions
        from repro.machines import table2_network

        sfs = tile_speed_functions(
            build_network_models(table2_network(), "matmul"), 1080
        )
        pack = pack_speed_functions(sfs)
        searched = []
        search = PiecewiseLinearSet._segments

        def counted(self, cq, rows=None):
            k = search(self, cq, rows)
            searched.append(k.size)
            return k

        monkeypatch.setattr(PiecewiseLinearSet, "_segments", counted)
        rng = np.random.default_rng(2004)
        evaluations = 0
        for n in rng.integers(int(0.02 * pack.max_total), int(0.9 * pack.max_total), 50):
            result = partition_bisection(int(n), sfs, pack=pack)
            evaluations += pack.p * (result.iterations + 2)
        # Full-fleet searches on every step would send all of them.
        assert sum(searched) <= evaluations / 2
