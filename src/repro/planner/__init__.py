"""High-throughput partition planning over stable fleets.

This package turns the one-shot geometric algorithms of
:mod:`repro.core` into a query layer for repeated use:

* :class:`~repro.planner.fleet.Fleet` — packs a set of speed functions
  once (shared :class:`~repro.core.vectorized.PiecewiseLinearSet`) and
  fingerprints their content for cache keying;
* :class:`~repro.planner.cache.PlanCache` — thread-safe LRU of computed
  plans with hit/miss/eviction counters;
* :class:`~repro.planner.planner.Planner` — cached single queries
  (:meth:`~repro.planner.planner.Planner.plan`) and batched lockstep
  sweeps (:meth:`~repro.planner.planner.Planner.plan_many`), all
  bit-identical to cold
  :func:`~repro.core.bisection.partition_bisection` runs.
"""

from .cache import CacheStats, PlanCache
from .fleet import Fleet
from .planner import Planner, PlannerStats
from .tiered import TieredPlanCache, WarmPlanStore

__all__ = [
    "CacheStats",
    "Fleet",
    "PlanCache",
    "Planner",
    "PlannerStats",
    "TieredPlanCache",
    "WarmPlanStore",
]
