"""OnlineBandRefitter: escape detection, interval refit, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ConfigurationError,
    ConstantSpeedFunction,
    Observation,
    PiecewiseLinearSpeedFunction,
)
from repro.model import ModelBuildOptions, OnlineBandRefitter
from repro.model.builder import within_band

from ..conftest import make_pwl


def steps(machine, sizes, speed_fn, *, t0=0.0):
    """Observation records for ``machine`` with speeds from ``speed_fn``."""
    return [
        Observation.from_step(machine, float(x), float(speed_fn(x)), time=t0 + i)
        for i, x in enumerate(sizes)
    ]


def drifted(fn, factor, above):
    """The truth after a band-shape drift: ``factor``× at and above ``above``."""
    def speed(x):
        s = float(fn.speed(x))
        return s * factor if x >= above else s
    return speed


class TestConstruction:
    def test_requires_functions(self):
        with pytest.raises(ConfigurationError):
            OnlineBandRefitter([])

    def test_requires_positive_patience(self):
        with pytest.raises(ConfigurationError):
            OnlineBandRefitter([make_pwl(100.0)], min_escaped=0)

    def test_fingerprint_matches_fleet(self):
        from repro import Fleet

        fns = [make_pwl(100.0), make_pwl(300.0)]
        refitter = OnlineBandRefitter(fns, name="t")
        assert refitter.fingerprint == Fleet(fns, name="t").fingerprint


class TestNoDrift:
    def test_in_band_observations_change_nothing(self):
        fn = make_pwl(200.0)
        refitter = OnlineBandRefitter([fn])
        sizes = np.linspace(2e3, 1.9e6, 50)
        refit = refitter.refit(steps(0, sizes, fn.speed))
        assert not refit.changed
        assert refit.fingerprint_after == refit.fingerprint_before
        assert refit.refitted_machines == ()
        assert refit.machines[0].escaped == 0

    def test_patience_absorbs_sparse_escapes(self):
        fn = make_pwl(200.0)
        refitter = OnlineBandRefitter([fn], min_escaped=3)
        # Two escaping points in one segment: below the patience threshold.
        recs = steps(0, [6e5, 7e5], lambda x: 2.0 * fn.speed(x))
        refit = refitter.refit(recs)
        assert not refit.changed
        assert refit.machines[0].escaped == 2

    def test_untouched_machines_are_not_listed(self):
        fns = [make_pwl(200.0), make_pwl(300.0)]
        refitter = OnlineBandRefitter(fns, min_escaped=3)
        recs = steps(1, np.linspace(2e4, 1.9e6, 30), fns[1].speed)
        refit = refitter.refit(recs)
        assert [m.machine for m in refit.machines] == [1]
        assert refit.functions[0] is fns[0]

    def test_no_change_pass_reuses_the_prebuilt_fleet(self):
        fn = make_pwl(200.0)
        refitter = OnlineBandRefitter([fn], min_escaped=3)
        recs = steps(0, np.linspace(2e4, 1.9e6, 30), fn.speed)
        first = refitter.refit(recs)
        second = refitter.refit(recs)
        # Steady state costs no repack: both passes hand back the same
        # prebuilt fleet object.
        assert first.fleet is second.fleet

    def test_foreign_and_solve_records_ignored(self):
        fn = make_pwl(200.0)
        refitter = OnlineBandRefitter([fn])
        recs = [
            Observation(machine=-1, size=1e5, duration=0.5, source="solve"),
            Observation(machine=7, size=1e5, speed=999.0),
        ]
        refit = refitter.refit(recs)
        assert not refit.changed
        assert refit.observations == 2


class TestEscapeCount:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_scalar_band_test(self, seed):
        rng = np.random.default_rng(seed)
        fn = make_pwl(200.0)
        xs, ss = fn.knot_sizes, fn.knot_speeds
        sizes = np.unique(
            np.concatenate([rng.uniform(xs[0], xs[-1], 60), xs[:-1]])
        )
        eps = ModelBuildOptions().eps
        # Points inside, on and just past either edge of the band.
        offset = rng.choice([0.0, 0.5, 0.999, 1.0, 1.001, 2.0], sizes.size)
        sign = rng.choice([-1.0, 1.0], sizes.size)
        speeds = np.interp(sizes, xs, ss) * (1.0 + sign * offset * eps)
        recs = [
            Observation.from_step(0, float(x), float(s), time=float(i))
            for i, (x, s) in enumerate(zip(sizes, speeds))
        ]
        refit = OnlineBandRefitter([fn], min_escaped=10**6).refit(recs)

        want = 0
        for x, s in zip(sizes, speeds):
            k = min(max(int(np.searchsorted(xs, x, side="right")) - 1, 0), xs.size - 2)
            want += not within_band(
                float(x), float(s),
                float(xs[k]), float(ss[k]), float(xs[k + 1]), float(ss[k + 1]),
                eps=eps, floor=float(ss[0]),
            )
        assert 0 < want < sizes.size
        assert refit.machines[0].escaped == want


class TestShapeDrift:
    def test_refit_closes_band_shape_drift(self):
        fn = make_pwl(200.0)
        truth = drifted(fn, 2.0, 5e5)
        refitter = OnlineBandRefitter([fn], min_escaped=3)
        sizes = np.linspace(2e4, 2e6, 120)
        refit = refitter.refit(steps(0, sizes, truth))

        assert refit.changed and refit.shape_changed and not refit.scale_only
        assert refit.refitted_machines == (0,)
        m = refit.machines[0]
        assert m.intervals and m.observations_used > 0 and m.measurements == 0

        # Judge at the observed sizes well inside the drifted region (the
        # truth is discontinuous at the drift edge itself, which no
        # piecewise-linear model can track through the jump).
        new_fn = refit.functions[0]
        probe = sizes[sizes >= 6e5]
        want = np.array([truth(x) for x in probe])
        got = np.array([new_fn.speed(x) for x in probe])
        rel = np.abs(got - want) / want
        assert float(rel.max()) <= 0.05

    def test_only_drifted_machine_is_refitted(self):
        fns = [make_pwl(200.0), make_pwl(300.0)]
        truth = drifted(fns[0], 2.0, 5e5)
        refitter = OnlineBandRefitter(fns, min_escaped=3)
        sizes = np.linspace(2e4, 1.9e6, 60)
        recs = steps(0, sizes, truth) + steps(1, sizes, fns[1].speed)
        refit = refitter.refit(recs)
        assert refit.refitted_machines == (0,)
        assert refit.functions[1] is fns[1]

    def test_refitted_fleet_equals_a_from_scratch_build(self):
        from repro import Fleet

        fns = [make_pwl(100.0 + 10.0 * i) for i in range(12)]
        truth = drifted(fns[5], 2.0, 5e5)
        refitter = OnlineBandRefitter(fns, min_escaped=3, name="t")
        refit = refitter.refit(steps(5, np.linspace(2e4, 1.9e6, 60), truth))
        assert refit.refitted_machines == (5,)
        full = Fleet(refit.functions, name="t")
        assert refit.fingerprint_after == full.fingerprint
        assert refit.fleet.capacity == full.capacity
        for slope in (1e-5, 1e-3, 1e-1):
            assert np.array_equal(
                refit.fleet.pack.allocations(slope), full.pack.allocations(slope)
            )

    def test_refit_is_deterministic(self):
        fn = make_pwl(200.0)
        truth = drifted(fn, 2.0, 5e5)
        sizes = np.linspace(2e4, 1.9e6, 60)
        recs = steps(0, sizes, truth)

        first = OnlineBandRefitter([fn], min_escaped=3).refit(recs)
        second = OnlineBandRefitter([fn], min_escaped=3).refit(list(recs))
        assert first.fingerprint_after == second.fingerprint_after
        fa, fb = first.functions[0], second.functions[0]
        assert np.array_equal(fa.knot_sizes, fb.knot_sizes)
        assert np.array_equal(fa.knot_speeds, fb.knot_speeds)

    def test_pinned_zero_at_b_survives_refit(self):
        xs = np.array([1e3, 1e4, 1e5, 1e6])
        ss = np.array([100.0, 95.0, 60.0, 0.0])
        fn = PiecewiseLinearSpeedFunction(xs, ss)
        truth = drifted(fn, 2.0, 2e4)
        refitter = OnlineBandRefitter([fn], min_escaped=3)
        sizes = np.linspace(2e3, 9.9e5, 70)
        refit = refitter.refit(steps(0, sizes, truth))
        assert refit.changed
        new_fn = refit.functions[0]
        assert new_fn.knot_sizes[-1] == pytest.approx(1e6)
        assert new_fn.knot_speeds[-1] == 0.0


class TestScaleOnly:
    def test_uniform_rescale_is_classified_scale_only(self):
        fn = PiecewiseLinearSpeedFunction([1e3, 1e6], [100.0, 50.0])
        refitter = OnlineBandRefitter([fn], min_escaped=3)
        sizes = np.linspace(1e3, 1e6, 30)
        refit = refitter.refit(steps(0, sizes, lambda x: 1.2 * fn.speed(x)))
        assert refit.changed
        assert refit.scale_only and not refit.shape_changed
        new_fn = refit.functions[0]
        assert np.array_equal(new_fn.knot_sizes, fn.knot_sizes)
        assert np.allclose(new_fn.knot_speeds, 1.2 * fn.knot_speeds)


class TestPassThrough:
    def test_non_pwl_machines_pass_through(self):
        fns = [ConstantSpeedFunction(100.0), make_pwl(200.0)]
        refitter = OnlineBandRefitter(fns)
        recs = steps(0, np.linspace(1e4, 1e6, 20), lambda x: 250.0)
        refit = refitter.refit(recs)
        assert not refit.changed
        assert refit.functions[0] is fns[0]


class TestMeasureFallback:
    def test_probes_outside_observed_range_use_measure(self):
        fn = make_pwl(200.0)
        truth = drifted(fn, 2.0, 5e5)
        calls = []

        def bench(x):
            calls.append(x)
            return truth(x)

        refitter = OnlineBandRefitter([fn], measure=[bench], min_escaped=3)
        # Observations cluster strictly inside the [5e5, 1e6] segment, so
        # the dirty interval's endpoints must come from the benchmark.
        sizes = np.linspace(6e5, 9e5, 20)
        refit = refitter.refit(steps(0, sizes, truth))
        assert refit.changed
        assert refit.machines[0].measurements == len(calls) > 0

    def test_without_measure_fallback_reuses_midline(self):
        fn = make_pwl(200.0)
        truth = drifted(fn, 2.0, 5e5)
        refitter = OnlineBandRefitter([fn], min_escaped=3)
        sizes = np.linspace(6e5, 9e5, 20)
        refit = refitter.refit(steps(0, sizes, truth))
        assert refit.machines[0].measurements == 0


class TestCounters:
    def test_refit_counters_advance(self):
        from repro import obs

        reg = obs.get_registry()
        checks0 = reg.counter("model.refit.checks").value
        applied0 = reg.counter("model.refit.applied").value
        obs0 = reg.counter("model.refit.observations").value

        fn = make_pwl(200.0)
        truth = drifted(fn, 2.0, 5e5)
        refitter = OnlineBandRefitter([fn], min_escaped=3)
        recs = steps(0, np.linspace(2e4, 1.9e6, 40), truth)
        refit = refitter.refit(recs)
        assert refit.changed

        assert reg.counter("model.refit.checks").value == checks0 + 1
        assert reg.counter("model.refit.applied").value == applied0 + 1
        assert reg.counter("model.refit.observations").value == obs0 + 40


class TestModelBuildOptionsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps": 0.0},
            {"eps": 1.0},
            {"min_gap": 0.0},
            {"max_depth": 0},
            {"spacing": "cubic"},
            {"min_ratio": 1.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ModelBuildOptions(**kwargs)

    def test_replace_rejects_unknown_option(self):
        with pytest.raises(ConfigurationError, match="unknown model-build option"):
            ModelBuildOptions().replace(nope=1)

    def test_replace_roundtrip(self):
        opts = ModelBuildOptions().replace(eps=0.02, spacing="log")
        assert opts.eps == 0.02 and opts.spacing == "log"
        assert ModelBuildOptions().eps == 0.05
