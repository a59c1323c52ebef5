"""Online speed-band re-fitting from observed telemetry.

The paper builds each machine's piecewise-linear band once, offline
(section 3.1); the self-adaptability follow-on
(Lastovetsky/Reddy/Rychkov/Clarke, arXiv:1109.3074) argues the model
must be refined *during* execution.  This module closes that loop:
:class:`OnlineBandRefitter` consumes observed ``(size, measured speed)``
points — the unified :class:`repro.adapt.Observation` records collected
by :class:`repro.obs.FleetTelemetrySink` — finds the size intervals
where observations escape the ``±eps`` acceptance band (the *same*
escape test the offline builder applies, :func:`~.builder.within_band`),
and re-runs the section-3.1 trisection over **only those intervals**,
answering each probe from the observations themselves instead of a
fresh benchmark.  Probes outside the observed range fall back to the
model's ``measure`` callable when one is configured, else to the old
midline.  The repaired knots (:func:`~.builder.repair_monotone_g`)
yield an updated :class:`~repro.core.speed_function.PiecewiseLinearSpeedFunction`
per drifted machine and a new fleet fingerprint, which downstream
consumers use for exact plan-cache invalidation
(:meth:`repro.planner.PlanCache.invalidate`) and replanning
(:meth:`repro.adapt.Replanner.apply_refit`).

A refit is *free* in the paper's cost metric when it only replays
observations: the ``experiments`` budget the paper counts is spent only
on ``measure`` fallback calls, reported as ``measurements``.

Counters (always on, like the planner's structural counters):
``model.refit.checks``, ``model.refit.applied``,
``model.refit.machines``, ``model.refit.intervals``,
``model.refit.observations``, ``model.refit.measurements``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..core.band import SpeedBand, constant_width_schedule
from ..core.speed_function import PiecewiseLinearSpeedFunction, SpeedFunction
from ..core.vectorized import PiecewiseLinearSet
from ..exceptions import ConfigurationError, MeasurementError
from ..obs import get_registry
from ..obs.sink import Observation
from ..planner import Fleet
from .builder import ModelBuildOptions, _trisect, repair_monotone_g

__all__ = ["FleetRefit", "MachineRefit", "OnlineBandRefitter"]


@dataclass(frozen=True)
class MachineRefit:
    """Refit outcome for one machine.

    ``intervals`` are the dirty ``[lo, hi]`` size ranges that were
    re-trisected; ``observations_used`` counts probe answers taken from
    the observation interpolant, ``measurements`` counts ``measure``
    fallback calls (the paper's experiment budget), ``escaped`` the
    observations that fell outside the ``±eps`` band.
    """

    machine: int
    refitted: bool
    function: SpeedFunction
    band: SpeedBand | None = None
    intervals: tuple[tuple[float, float], ...] = ()
    observations_used: int = 0
    measurements: int = 0
    escaped: int = 0


@dataclass(frozen=True)
class FleetRefit:
    """Outcome of one :meth:`OnlineBandRefitter.refit` pass.

    ``fleet`` packs the (possibly updated) functions, so
    ``fleet.fingerprint == fingerprint_after`` — the key downstream
    consumers invalidate plan caches by.  ``machines`` holds one
    :class:`MachineRefit` per machine that contributed observations, in
    machine order; machines the batch never mentioned pass through
    untouched and are not listed (the pass never visits them, which is
    what keeps a steady-state check cheap on large fleets).
    """

    fingerprint_before: str
    fingerprint_after: str
    functions: tuple[SpeedFunction, ...]
    machines: tuple[MachineRefit, ...]
    observations: int
    fleet: Fleet

    @property
    def changed(self) -> bool:
        """Did the refit produce a different model (new fingerprint)?"""
        return self.fingerprint_after != self.fingerprint_before

    @property
    def refitted_machines(self) -> tuple[int, ...]:
        return tuple(m.machine for m in self.machines if m.refitted)

    @property
    def scale_only(self) -> bool:
        """Every refitted machine kept its knot positions with a uniform
        speed ratio — i.e. an EWMA rescale would have captured it."""
        if not self.changed:
            return False
        for m in self.machines:
            if not m.refitted:
                continue
            old = self._old_function(m.machine)
            new = m.function
            if not isinstance(old, PiecewiseLinearSpeedFunction) or not isinstance(
                new, PiecewiseLinearSpeedFunction
            ):
                return False
            if not np.array_equal(old.knot_sizes, new.knot_sizes):
                return False
            os, ns = old.knot_speeds, new.knot_speeds
            pos = os > 0
            if np.any((os == 0) != (ns == 0)):
                return False
            ratios = ns[pos] / os[pos]
            if ratios.size and not np.allclose(
                ratios, ratios[0], rtol=1e-9, atol=0.0
            ):
                return False
        return True

    @property
    def shape_changed(self) -> bool:
        """The band's *shape* moved — a rescale cannot express the drift."""
        return self.changed and not self.scale_only

    def _old_function(self, machine: int) -> SpeedFunction:
        # The refitter stores the pre-refit functions on the result so
        # scale/shape classification needs no back-reference to it.
        return self._before[machine]

    # set via object.__setattr__ in OnlineBandRefitter.refit
    _before: tuple[SpeedFunction, ...] = ()


class OnlineBandRefitter:
    """Re-fit drifted speed bands from observed telemetry (section 3.1 online).

    Parameters
    ----------
    speed_functions:
        The fleet's current per-machine models.  Only
        :class:`PiecewiseLinearSpeedFunction` machines are refitted;
        other models pass through unchanged.
    options:
        A :class:`~.builder.ModelBuildOptions` bag (``eps`` is the
        acceptance band's half-width, the trisection knobs apply to the
        dirty-interval refinement).
    measure:
        Optional per-machine benchmark callables (a sequence or a
        ``{machine: callable}`` mapping).  Consulted only for trisection
        probes the observations cannot answer; when absent, such probes
        reuse the old midline.
    min_escaped:
        A band segment is re-fitted only once at least this many
        observations escaped it — the patience that keeps one noisy
        measurement from rebuilding the model.
    name:
        Name given to the refitted :class:`~repro.planner.Fleet`.
    """

    def __init__(
        self,
        speed_functions: Sequence[SpeedFunction],
        *,
        options: ModelBuildOptions | None = None,
        measure: Sequence[Callable[[float], float]]
        | Mapping[int, Callable[[float], float]]
        | None = None,
        min_escaped: int = 3,
        name: str = "online-refit",
    ):
        if not speed_functions:
            raise ConfigurationError("at least one speed function is required")
        if min_escaped < 1:
            raise ConfigurationError(
                f"min_escaped must be at least 1, got {min_escaped!r}"
            )
        self._functions = tuple(speed_functions)
        self._options = options if options is not None else ModelBuildOptions()
        self._measure = measure
        self._min_escaped = int(min_escaped)
        self._name = str(name)
        self._base_fleet = Fleet(self._functions, name=self._name)
        reg = get_registry()
        self._checks = reg.counter(
            "model.refit.checks", help="online refit passes evaluated"
        )
        self._applied = reg.counter(
            "model.refit.applied", help="refit passes that changed the model"
        )
        self._machines_ctr = reg.counter(
            "model.refit.machines", help="machines whose band was re-fitted"
        )
        self._intervals_ctr = reg.counter(
            "model.refit.intervals", help="dirty band intervals re-trisected"
        )
        self._observations_ctr = reg.counter(
            "model.refit.observations", help="observations consumed by refit passes"
        )
        self._measurements_ctr = reg.counter(
            "model.refit.measurements",
            help="measure-callable fallback probes spent by refit passes",
        )

    @property
    def fingerprint(self) -> str:
        """Fingerprint of the current (pre-refit) fleet."""
        return self._base_fleet.fingerprint

    @property
    def options(self) -> ModelBuildOptions:
        return self._options

    @property
    def min_escaped(self) -> int:
        """Observations a segment must leak before it is re-fitted."""
        return self._min_escaped

    def _measure_for(self, machine: int) -> Callable[[float], float] | None:
        if self._measure is None:
            return None
        if isinstance(self._measure, Mapping):
            return self._measure.get(machine)
        if 0 <= machine < len(self._measure):
            return self._measure[machine]
        return None

    # -- the refit pass -------------------------------------------------
    def refit(self, observations: Iterable[Observation]) -> FleetRefit:
        """One refit pass over a batch of observations.

        Deterministic: the same observation multiset yields bit-identical
        refitted knots (observations are grouped per machine, repeated
        sizes averaged, and probes answered by linear interpolation over
        the observed points in sorted size order).
        """
        p = len(self._functions)
        by_machine: dict[int, list[Observation]] = {}
        total = 0
        for rec in observations:
            total += 1
            machine = int(rec.machine)
            if 0 <= machine < p and float(rec.speed) > 0.0:
                by_machine.setdefault(machine, []).append(rec)

        results: list[MachineRefit] = []
        functions: list[SpeedFunction] = list(self._functions)
        changed_machines: list[int] = []
        for machine in sorted(by_machine):
            fn = self._functions[machine]
            outcome = self._refit_machine(machine, fn, by_machine[machine])
            results.append(outcome)
            if outcome.function is not fn:
                functions[machine] = outcome.function
                changed_machines.append(machine)

        # Steady state — nothing escaped — reuses the prebuilt fleet
        # outright: no repack, no re-fingerprint, O(observations) total.
        if changed_machines:
            fleet = self._updated_fleet(tuple(functions), changed_machines)
        else:
            fleet = self._base_fleet
        result = FleetRefit(
            fingerprint_before=self._base_fleet.fingerprint,
            fingerprint_after=fleet.fingerprint,
            functions=tuple(functions),
            machines=tuple(results),
            observations=total,
            fleet=fleet,
        )
        object.__setattr__(result, "_before", self._functions)

        self._checks.inc()
        self._observations_ctr.inc(total)
        refitted = [m for m in results if m.refitted]
        if refitted:
            self._machines_ctr.inc(len(refitted))
            self._intervals_ctr.inc(sum(len(m.intervals) for m in refitted))
            self._measurements_ctr.inc(sum(m.measurements for m in refitted))
        if result.changed:
            self._applied.inc()
        return result

    def _updated_fleet(
        self, functions: tuple[SpeedFunction, ...], changed: Sequence[int]
    ) -> Fleet:
        """Fleet over ``functions``, re-lowering only the re-fitted rows.

        When the base fleet compiled, its pack answers for every
        untouched machine and only the changed machines go through
        ``as_knots`` again (:meth:`PiecewiseLinearSet.with_rows`), so an
        applied refit costs ``O(changed)`` lowering plus array copies
        instead of a full build.  The fingerprint is identical to a
        from-scratch build because the pack digests knot *content*, not
        construction history.
        """
        base = self._base_fleet.pack
        if isinstance(base, PiecewiseLinearSet):
            rows = {i: functions[i].as_knots() for i in changed}
            if all(row is not None for row in rows.values()):
                return Fleet(functions, name=self._name, pack=base.with_rows(rows))
        return Fleet(functions, name=self._name)

    def _refit_machine(
        self, machine: int, fn: SpeedFunction, recs: list[Observation]
    ) -> MachineRefit:
        if not isinstance(fn, PiecewiseLinearSpeedFunction) or fn.num_knots < 2:
            return MachineRefit(machine=machine, refitted=False, function=fn)
        xs = fn.knot_sizes
        ss = fn.knot_speeds
        a, b = float(xs[0]), float(xs[-1])
        pts: dict[float, list[float]] = {}
        for rec in recs:
            size = float(rec.size)
            if a <= size <= b:
                pts.setdefault(size, []).append(float(rec.speed))
        if not pts:
            return MachineRefit(machine=machine, refitted=False, function=fn)
        obs_xs = np.array(sorted(pts), dtype=float)
        obs_ss = np.array(
            [sum(pts[x]) / len(pts[x]) for x in obs_xs], dtype=float
        )

        options = self._options
        eps = options.eps
        floor = float(ss[0])

        # The escape test, per observation, against its band segment:
        # within_band's arithmetic, one array operation per step.
        seg = np.clip(
            np.searchsorted(xs, obs_xs, side="right") - 1, 0, xs.size - 2
        )
        xl, sl, xr, sr = xs[seg], ss[seg], xs[seg + 1], ss[seg + 1]
        interp = sl + (sr - sl) * (obs_xs - xl) / (xr - xl)
        tol = eps * np.maximum(np.abs(interp), eps * floor)
        out = ~(np.abs(obs_ss - interp) <= tol)
        escaped_per_seg = np.bincount(seg[out], minlength=xs.size - 1)
        escaped = int(out.sum())

        dirty = escaped_per_seg >= self._min_escaped
        if not dirty.any():
            return MachineRefit(
                machine=machine, refitted=False, function=fn, escaped=escaped
            )

        # Merge adjacent dirty segments into maximal [lo, hi] intervals.
        intervals: list[tuple[float, float]] = []
        k = 0
        while k < dirty.size:
            if dirty[k]:
                j = k
                while j + 1 < dirty.size and dirty[j + 1]:
                    j += 1
                intervals.append((float(xs[k]), float(xs[j + 1])))
                k = j + 1
            k += 1

        # Probe answers: observations first (free), then the measure
        # callable (a real experiment), then the stale midline.
        used = 0
        measured = 0
        fallback = self._measure_for(machine)

        def emp(x: float) -> float:
            nonlocal used, measured
            if obs_xs[0] <= x <= obs_xs[-1]:
                used += 1
                return float(np.interp(x, obs_xs, obs_ss))
            if fallback is not None:
                measured += 1
                s = float(fallback(x))
                if s < 0 or not np.isfinite(s):
                    raise MeasurementError(
                        f"benchmark returned invalid speed {s!r} at {x:g}"
                    )
                return s
            return float(fn.speed(x))

        knots: dict[float, float] = {
            float(x): float(s) for x, s in zip(xs, ss)
        }
        for lo, hi in intervals:
            for x in list(knots):
                if lo < x < hi:
                    del knots[x]
        # Endpoint speeds come from the observations; the pinned zero at
        # ``b`` is preserved (no observation can sit at speed zero).
        for lo, hi in intervals:
            knots[lo] = emp(lo)
            knots[hi] = float(ss[-1]) if hi >= b and ss[-1] == 0.0 else emp(hi)
        gap = options.gap_for(a, b)
        for lo, hi in intervals:
            _trisect(
                emp, knots, lo, knots[lo], hi, knots[hi], 0,
                eps=eps, floor=floor, gap=gap, max_depth=options.max_depth,
                spacing=options.spacing, min_ratio=options.min_ratio,
            )

        new_xs = np.array(sorted(knots), dtype=float)
        new_ss = np.array([knots[x] for x in new_xs], dtype=float)
        new_xs, new_ss = repair_monotone_g(new_xs, new_ss)
        if np.array_equal(new_xs, xs) and np.array_equal(new_ss, ss):
            return MachineRefit(
                machine=machine, refitted=False, function=fn,
                intervals=tuple(intervals), observations_used=used,
                measurements=measured, escaped=escaped,
            )
        function = PiecewiseLinearSpeedFunction(new_xs, new_ss)
        band = SpeedBand(
            function, constant_width_schedule(min(2 * eps, 0.99))
        )
        return MachineRefit(
            machine=machine, refitted=True, function=function, band=band,
            intervals=tuple(intervals), observations_used=used,
            measurements=measured, escaped=escaped,
        )
