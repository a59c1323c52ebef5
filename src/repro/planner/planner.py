"""The partition planner: cached and batched plan queries.

The geometric algorithms in :mod:`repro.core` solve one problem from
scratch in ``O(p log n)``.  Production fleets answer a *stream* of
partition queries over largely-stable models.  :class:`Planner` serves
that stream two ways:

1. **plan cache** — an exact repeat of ``(fleet, n, algorithm, refine,
   mode)`` is a dictionary lookup (:class:`~repro.planner.cache.PlanCache`);
2. **batched lockstep sweep** — :meth:`Planner.plan_many` gives each
   queried size its own figure-18 bracket in one batched evaluation and
   advances every size together, one vectorised ray evaluation per
   bisection step for the whole batch.

Every computed plan is a cold solve on the fleet's prebuilt evaluator,
whose bisection steps search only the rows whose knot segment is still
undecided (:meth:`~repro.core.vectorized.PiecewiseLinearSet.rays`).  Plans
are therefore **bit-identical** to a cold
:func:`~repro.core.bisection.partition_bisection` run — allocation,
makespan and iteration count — which the planner test-suite asserts
property-style over random fleets.  There are no warm starts: seeding a
solve from a nearby size's converged bracket measured no faster than a
cold solve.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Iterable

from .. import obs
from ..core.bisection import partition_bisection, partition_bisection_many
from ..core.combined import partition_combined
from ..core.modified import partition_modified
from ..core.result import PartitionResult
from ..exceptions import ConfigurationError
from .cache import CacheStats, PlanCache
from .fleet import Fleet

__all__ = ["Planner", "PlannerStats"]

logger = logging.getLogger(__name__)

#: Algorithms the planner can drive (they accept ``pack=``).
_PLANNER_ALGORITHMS = ("bisection", "combined", "modified")

#: Distinguishes planner instances in the metrics registry.
_PLANNER_SEQ = itertools.count(1)


@dataclass(frozen=True)
class PlannerStats:
    """Immutable snapshot of a planner's activity counters.

    ``cold_plans`` counts every computed plan; ``warm_plans`` is always 0
    (the planner has no warm starts; the field stays for existing readers).
    ``cache`` aggregates the underlying
    :class:`~repro.planner.cache.PlanCache` counters.
    """

    cold_plans: int
    warm_plans: int
    cache: CacheStats

    @property
    def plans_computed(self) -> int:
        return self.cold_plans + self.warm_plans

    def __str__(self) -> str:
        return f"plans={self.plans_computed} cache[{self.cache}]"


class Planner:
    """High-throughput partition-query layer over a fixed :class:`Fleet`.

    Parameters
    ----------
    fleet:
        The (packed-once) fleet to answer queries for.
    algorithm:
        ``"bisection"`` (default — the planner's equivalence guarantees
        are stated against it), ``"combined"`` or ``"modified"``.
    mode / refine:
        Forwarded to the algorithm (see
        :func:`~repro.core.bisection.partition_bisection`).
    cache_size:
        Capacity of the LRU plan cache.
    cache:
        An externally constructed :class:`~repro.planner.cache.PlanCache`
        to use instead of building one (``cache_size`` is then ignored).
        This is how the serve layer hands shards a
        :class:`~repro.planner.tiered.TieredPlanCache` backed by the
        pool's shared warm store.

    Thread safety: :meth:`plan` and :meth:`plan_many` may be called
    concurrently; the cache is lock-protected, and the solvers themselves
    are pure.  Two racing misses for the same key both solve and both
    store the same (bit-identical) plan.
    """

    def __init__(
        self,
        fleet: Fleet,
        *,
        algorithm: str = "bisection",
        mode: str = "tangent",
        refine: str = "greedy",
        cache_size: int = 1024,
        cache: PlanCache | None = None,
    ):
        if algorithm not in _PLANNER_ALGORITHMS:
            raise ConfigurationError(
                f"unknown planner algorithm {algorithm!r}; expected one of "
                f"{sorted(_PLANNER_ALGORITHMS)}"
            )
        self._fleet = fleet
        self._algorithm = algorithm
        self._mode = mode
        self._refine = refine
        instance = f"{fleet.name}#{next(_PLANNER_SEQ)}"
        self._cache = cache if cache is not None else PlanCache(cache_size, name=instance)
        self._plans = obs.get_registry().counter(
            "planner.plans.cold", labels={"planner": instance},
            help="plans computed (every plan is a cold solve)",
        )
        logger.debug(
            "planner created", extra={
                "fleet": fleet.name, "p": fleet.p, "algorithm": algorithm,
                "cache_size": cache_size,
            },
        )

    # -- accessors ------------------------------------------------------
    @property
    def fleet(self) -> Fleet:
        return self._fleet

    @property
    def algorithm(self) -> str:
        return self._algorithm

    @property
    def cache(self) -> PlanCache:
        return self._cache

    def stats(self) -> PlannerStats:
        return PlannerStats(
            cold_plans=self._plans.value, warm_plans=0, cache=self._cache.stats()
        )

    # -- internals ------------------------------------------------------
    def _key(self, n: int) -> tuple:
        return (
            self._fleet.fingerprint,
            n,
            self._algorithm,
            self._refine,
            self._mode,
        )

    def _solve(self, n: int) -> PartitionResult:
        sfs = self._fleet.speed_functions
        pack = self._fleet.pack
        with obs.span("planner.solve", n=n, algorithm=self._algorithm):
            if self._algorithm == "bisection":
                result = partition_bisection(
                    n, sfs, mode=self._mode, refine=self._refine, pack=pack
                )
            elif self._algorithm == "combined":
                result = partition_combined(
                    n, sfs, mode=self._mode, refine=self._refine, pack=pack
                )
            else:
                result = partition_modified(n, sfs, refine=self._refine, pack=pack)
        self._plans.inc()
        logger.debug(
            "plan solved", extra={"n": n, "iterations": result.iterations}
        )
        return result

    # -- queries --------------------------------------------------------
    def plan(self, n: int) -> PartitionResult:
        """Answer one partition query: the cached plan, or a cold solve.

        Cache hit → stored plan (treat it as immutable).  Miss → solve on
        the fleet's prebuilt evaluator and remember the plan.
        """
        n = int(n)
        cached = self._cache.get(self._key(n))
        if cached is not None:
            return cached
        result = self._solve(n)
        self._cache.put(self._key(n), result)
        return result

    def plan_many(self, ns: Iterable[int]) -> list[PartitionResult]:
        """Answer a batch of queries in one lockstep sweep.

        Uncached sizes are handed to
        :func:`~repro.core.bisection.partition_bisection_many`, which gives
        each size its own figure-18 bracket from one batched evaluation
        and advances all of them in lockstep, evaluating every pending
        midpoint ray in a single vectorised call per bisection step.
        Results come back in the order the sizes were given; duplicates
        and previously planned sizes are served from the cache.  For
        non-bisection algorithms the batch is solved size by size.
        """
        sizes = [int(n) for n in ns]
        results: list[PartitionResult | None] = [None] * len(sizes)
        missing: list[int] = []
        for idx, n in enumerate(sizes):
            cached = self._cache.get(self._key(n))
            if cached is not None:
                results[idx] = cached
            else:
                missing.append(idx)
        if not missing:
            return results  # type: ignore[return-value]

        todo = sorted({sizes[idx] for idx in missing})
        if self._algorithm == "bisection":
            with obs.span(
                "planner.plan_many", sizes=len(sizes), solved=len(todo)
            ):
                batch = partition_bisection_many(
                    todo,
                    self._fleet.speed_functions,
                    mode=self._mode,
                    refine=self._refine,
                    pack=self._fleet.pack,
                )
            by_size = dict(zip(todo, batch))
            self._plans.inc(len(todo))
            logger.debug(
                "batch solved", extra={"sizes": len(sizes), "solved": len(todo)}
            )
        else:
            by_size = {n: self._solve(n) for n in todo}
        for n, result in by_size.items():
            self._cache.put(self._key(n), result)
        for idx in missing:
            results[idx] = by_size[sizes[idx]]
        return results  # type: ignore[return-value]
