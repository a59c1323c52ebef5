"""Replanning: rebuild the fleet from observed speeds and weigh a migration.

When the :class:`~repro.adapt.detector.DriftDetector` confirms that a
machine has left its performance band, the model the current plan was
derived from is wrong.  The :class:`Replanner` then

1. rescales every machine's model speed function by the detector's
   smoothed observed/predicted factor (exact knot scaling for piecewise
   representations, so the rescaled fleet stays packable);
2. asks a cached :class:`~repro.planner.Planner` for the optimal
   partition of the *remaining* work over the rescaled fleet;
3. derives the minimal :class:`~repro.adapt.migration.MigrationPlan` and
   applies the decision rule — **replan only when the projected makespan
   savings exceed the modelled migration cost** (scaled by
   ``AdaptivePolicy.min_savings_factor``).

Failure handling rides the same machinery: :meth:`Replanner.recover_dropout`
redistributes a dead processor's elements over the survivors with
:func:`~repro.core.bounded.partition_bounded` (bounds = each survivor's
residual memory), touching none of the data the survivors already hold.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..core.bounded import partition_bounded
from ..core.result import PartitionResult
from ..core.speed_function import (
    ConstantSpeedFunction,
    PiecewiseLinearSpeedFunction,
    SpeedFunction,
)
from ..exceptions import ConfigurationError, InfeasiblePartitionError
from ..machines.comm import CommModel
from ..planner.fleet import Fleet
from ..planner.planner import Planner
from .migration import EMPTY_PLAN, MigrationPlan, plan_migration

__all__ = [
    "DISABLED",
    "AdaptivePolicy",
    "ReplanDecision",
    "Replanner",
    "scale_speed_function",
]


@dataclass(frozen=True)
class AdaptivePolicy:
    """Knobs of the adaptive execution layer, in one frozen bundle.

    Attributes
    ----------
    enabled:
        Master switch.  When false, executors take the static path:
        drift is never checked and replanning never happens (failure
        recovery still degrades gracefully, just without the functional
        model).
    slack / patience / smoothing / band_width:
        Forwarded to the :class:`~repro.adapt.detector.DriftDetector`.
    min_savings_factor:
        A replan is applied only when the projected makespan savings
        exceed ``min_savings_factor`` times the modelled migration cost.
        Raise it to make migration more reluctant; 0 migrates on any
        projected improvement.
    max_replans:
        Hard cap on applied replans per execution (runaway guard).
    cooldown_steps:
        Steps after an applied replan during which drift checks are
        suspended (the new plan needs time to show its behaviour).
    """

    enabled: bool = True
    slack: float = 0.05
    patience: int = 3
    smoothing: float = 0.5
    band_width: float = 0.10
    min_savings_factor: float = 1.0
    max_replans: int = 8
    cooldown_steps: int = 2

    def __post_init__(self) -> None:
        if self.slack < 0 or self.min_savings_factor < 0:
            raise ConfigurationError(f"invalid adaptive policy {self!r}")
        if self.patience < 1 or self.max_replans < 0 or self.cooldown_steps < 0:
            raise ConfigurationError(f"invalid adaptive policy {self!r}")
        if not (0 < self.smoothing <= 1) or not (0 <= self.band_width < 1):
            raise ConfigurationError(f"invalid adaptive policy {self!r}")


#: The static-execution policy: no drift detection, no replanning.
DISABLED = AdaptivePolicy(enabled=False)


@dataclass(frozen=True)
class ReplanDecision:
    """Outcome of one replan consideration.

    ``apply`` is the decision; ``projected_current`` / ``projected_new``
    are the modelled remaining makespans of keeping versus migrating
    (both evaluated under the *observed* speeds); ``migration`` carries
    the moves and their cost; ``allocation`` is the post-migration
    allocation when ``apply`` (otherwise ``None``).
    """

    apply: bool
    reason: str
    projected_current: float
    projected_new: float
    migration: MigrationPlan
    allocation: np.ndarray | None = None
    result: PartitionResult | None = None

    @property
    def savings(self) -> float:
        return self.projected_current - self.projected_new


def scale_speed_function(sf: SpeedFunction, factor: float) -> SpeedFunction:
    """``sf`` with every speed multiplied by ``factor``.

    Piecewise-linear and constant representations are rebuilt exactly
    (scaling preserves the single-intersection invariant), so a rescaled
    fleet packs and fingerprints like the original; opaque
    representations fall back to the generic
    :meth:`~repro.core.speed_function.SpeedFunction.scaled` wrapper.
    """
    if factor <= 0 or not math.isfinite(factor):
        raise ConfigurationError(f"scale factor must be positive finite, got {factor!r}")
    if factor == 1.0:
        return sf
    if type(sf) is PiecewiseLinearSpeedFunction:
        return PiecewiseLinearSpeedFunction(sf.knot_sizes, sf.knot_speeds * factor)
    if type(sf) is ConstantSpeedFunction:
        return ConstantSpeedFunction(sf.value * factor, sf.max_size)
    return sf.scaled(factor)


def _projected_finish(
    allocation: np.ndarray,
    speed_functions: Sequence[SpeedFunction],
    work: Callable[[float], float],
) -> float:
    """Remaining makespan of an allocation under the given speeds."""
    worst = 0.0
    for sf, x in zip(speed_functions, allocation):
        x = float(x)
        if x <= 0:
            continue
        speed = float(sf.speed(min(x, sf.max_size)))
        if speed <= 0:
            return float("inf")
        worst = max(worst, work(x) / (1e6 * speed))
    return worst


class Replanner:
    """Observed-speed replanning over a base model fleet.

    Parameters
    ----------
    speed_functions:
        The *model* speed functions the original plan was derived from.
    policy:
        The :class:`AdaptivePolicy` (defaults to an enabled policy).
    algorithm / mode / refine:
        Forwarded to the underlying :class:`~repro.planner.Planner`.
    comm:
        Optional link model pricing migrations; without one a flat
        Ethernet rate is assumed (see :mod:`repro.adapt.migration`).
    work:
        Maps an element count to the flops it represents (identity by
        default); executors pass their kernel's cost function so the
        savings-versus-cost comparison is in real seconds.
    """

    def __init__(
        self,
        speed_functions: Sequence[SpeedFunction],
        *,
        policy: AdaptivePolicy | None = None,
        algorithm: str = "bisection",
        mode: str = "tangent",
        refine: str = "greedy",
        comm: CommModel | None = None,
        work: Callable[[float], float] | None = None,
        max_fleets: int = 8,
    ):
        self._base = tuple(speed_functions)
        if not self._base:
            raise ConfigurationError("at least one speed function is required")
        self.policy = policy if policy is not None else AdaptivePolicy()
        self._algorithm = algorithm
        self._mode = mode
        self._refine = refine
        self._comm = comm
        self._work = work if work is not None else (lambda x: x)
        self._max_fleets = max(int(max_fleets), 1)
        #: The unit-factor fleet, packed once; every observed-speed regime
        #: derives from it through :meth:`Fleet.rescaled` (an O(p)
        #: scale-vector clone of the shared pack), so drift corrections
        #: never pay the O(p*m) repack again.
        self._base_fleet = Fleet(self._base, name="adapt")
        #: fleet-factor key -> cached Planner (LRU).
        self._planners: OrderedDict[tuple, Planner] = OrderedDict()
        self.replans_applied = 0
        self.replans_considered = 0
        self.refits_applied = 0

    @property
    def p(self) -> int:
        return len(self._base)

    # -- fleet management ----------------------------------------------
    @staticmethod
    def _factor_key(factors: Sequence[float] | None, p: int) -> tuple[float, ...]:
        if factors is None:
            return (1.0,) * p
        if len(factors) != p:
            raise ConfigurationError(
                f"got {len(factors)} factors for {p} processors"
            )
        # Rounding keeps the planner cache effective across the tiny EWMA
        # jitter between consecutive observations of the same regime.
        return tuple(round(float(f), 6) for f in factors)

    def scaled_speed_functions(
        self, factors: Sequence[float] | None = None
    ) -> tuple[SpeedFunction, ...]:
        key = self._factor_key(factors, self.p)
        return tuple(
            scale_speed_function(sf, f) for sf, f in zip(self._base, key)
        )

    def planner_for(self, factors: Sequence[float] | None = None) -> Planner:
        """The planner for one observed-speed regime (cached)."""
        key = self._factor_key(factors, self.p)
        planner = self._planners.get(key)
        if planner is None:
            if all(f == 1.0 for f in key):
                fleet = self._base_fleet
            else:
                fleet = self._base_fleet.rescaled(np.asarray(key, dtype=float))
            planner = Planner(
                fleet,
                algorithm=self._algorithm,
                mode=self._mode,
                refine=self._refine,
            )
            self._planners[key] = planner
            while len(self._planners) > self._max_fleets:
                self._planners.popitem(last=False)
        else:
            self._planners.move_to_end(key)
        return planner

    def plan(
        self, n: int, factors: Sequence[float] | None = None
    ) -> PartitionResult:
        """Optimal partition of ``n`` elements under the observed speeds."""
        return self.planner_for(factors).plan(n)

    def apply_refit(self, refit) -> bool:
        """Adopt an online band refit as the new base model.

        ``refit`` is a :class:`repro.model.FleetRefit` (duck-typed: any
        object with ``changed`` / ``shape_changed`` / ``functions`` /
        ``fleet``).  The refit is adopted only when the band **shape**
        drifted — a scale-only drift is already captured, cheaper, by
        the EWMA correction factors feeding :meth:`planner_for`, so
        swapping the base fleet (and dropping every warm planner) would
        cost more than it buys.  Returns whether the refit was applied.
        """
        if not getattr(refit, "changed", False):
            return False
        if not getattr(refit, "shape_changed", True):
            return False
        functions = tuple(refit.functions)
        if len(functions) != self.p:
            raise ConfigurationError(
                f"refit carries {len(functions)} functions for {self.p} processors"
            )
        self._base = functions
        self._base_fleet = refit.fleet
        self._planners.clear()
        self.refits_applied += 1
        return True

    # -- decisions ------------------------------------------------------
    def consider(
        self,
        current_allocation: Sequence[int],
        factors: Sequence[float],
        *,
        work: Callable[[float], float] | None = None,
    ) -> ReplanDecision:
        """Weigh migrating the remaining work against keeping the plan.

        ``current_allocation`` is the *remaining* element count per
        processor; ``factors`` the detector's smoothed observed/predicted
        speed ratios.  The new allocation comes from the cached
        planner over the rescaled fleet; the decision applies the
        savings-versus-migration-cost rule and, when positive, is counted
        on the ``adapt.replans`` / ``adapt.migrated.elements`` metrics.
        """
        self.replans_considered += 1
        work = work if work is not None else self._work
        old = np.asarray(current_allocation, dtype=np.int64)
        n_remaining = int(old.sum())
        scaled = self.scaled_speed_functions(factors)
        projected_current = _projected_finish(old, scaled, work)
        if n_remaining <= 0:
            return ReplanDecision(
                apply=False, reason="nothing left to distribute",
                projected_current=projected_current,
                projected_new=projected_current, migration=EMPTY_PLAN,
            )
        if self.replans_applied >= self.policy.max_replans:
            return ReplanDecision(
                apply=False, reason="replan budget exhausted",
                projected_current=projected_current,
                projected_new=projected_current, migration=EMPTY_PLAN,
            )
        result = self.plan(n_remaining, factors)
        migration = plan_migration(old, result.allocation, comm=self._comm)
        finish_new = _projected_finish(result.allocation, scaled, work)
        projected_new = finish_new + migration.cost_seconds
        # The rule of the module docstring: gross savings must exceed the
        # migration cost (scaled by the policy's reluctance factor).
        savings = projected_current - finish_new
        threshold = self.policy.min_savings_factor * migration.cost_seconds
        if migration.empty or savings <= threshold:
            reason = (
                "new plan identical" if migration.empty
                else f"savings {savings:.3g}s below threshold {threshold:.3g}s"
            )
            return ReplanDecision(
                apply=False, reason=reason,
                projected_current=projected_current,
                projected_new=projected_new,
                migration=migration, result=result,
            )
        self.replans_applied += 1
        if obs.is_enabled():
            obs.record_adapt(
                replans=1, migrated_elements=migration.total_elements
            )
        return ReplanDecision(
            apply=True,
            reason=f"projected savings {savings:.3g}s over migration cost",
            projected_current=projected_current,
            projected_new=projected_new,
            migration=migration,
            allocation=result.allocation.copy(),
            result=result,
        )

    def recover_dropout(
        self,
        current_allocation: Sequence[int],
        dead: Sequence[int],
        factors: Sequence[float] | None = None,
        *,
        work: Callable[[float], float] | None = None,
    ) -> ReplanDecision:
        """Redistribute dead processors' remaining elements over survivors.

        Survivors keep everything they already hold — only the dead
        processors' elements move, split over the survivors by
        :func:`~repro.core.bounded.partition_bounded` with each
        survivor's *residual* memory as its bound, the rescaled model
        evaluated at each survivor's new total size.  Raises
        :class:`~repro.exceptions.InfeasiblePartitionError` when the
        survivors cannot absorb the load.
        """
        work = work if work is not None else self._work
        old = np.asarray(current_allocation, dtype=np.int64)
        dead_set = sorted({int(d) for d in dead})
        for d in dead_set:
            if not (0 <= d < self.p):
                raise ConfigurationError(
                    f"no processor {d} in a {self.p}-processor replanner"
                )
        survivors = [i for i in range(self.p) if i not in dead_set]
        if not survivors:
            raise InfeasiblePartitionError("no survivors to redistribute over")
        scaled = self.scaled_speed_functions(factors)
        orphaned = int(old[dead_set].sum())
        new = old.copy()
        new[dead_set] = 0
        if orphaned > 0:
            # A survivor's speed function is shifted by what it already
            # holds: the extra elements land on top of its existing
            # stripe, so the bound is its residual capacity.
            survivor_sfs = [scaled[i] for i in survivors]
            bounds = [
                max(scaled[i].max_size - float(old[i]), 0.0) for i in survivors
            ]
            extra = partition_bounded(orphaned, survivor_sfs, bounds)
            for j, i in enumerate(survivors):
                new[i] += int(extra.allocation[j])
        migration = plan_migration(old, new, comm=self._comm)
        projected_current = float("inf")  # a dead processor never finishes
        projected_new = (
            _projected_finish(new, scaled, work) + migration.cost_seconds
        )
        self.replans_applied += 1
        if obs.is_enabled():
            obs.record_adapt(
                replans=1,
                dropouts=len(dead_set),
                migrated_elements=migration.total_elements,
            )
        return ReplanDecision(
            apply=True,
            reason=f"dropout of processor(s) {dead_set}",
            projected_current=projected_current,
            projected_new=projected_new,
            migration=migration,
            allocation=new,
        )
