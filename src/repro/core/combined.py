"""The combined partitioning algorithm (section 2, figure 15).

The basic bisection is the fastest when the optimal line lies in a region
where the speed graphs have "polynomial" slopes (the common real-life
case, figure 13), but can degrade badly in the flat tails of the graphs.
The modified algorithm is shape-insensitive but pays an extra factor of
``p``.  The paper proposes running the basic step while the region looks
benign and switching to the modified algorithm otherwise.

The switch condition implemented here follows the paper's figure 15 plus a
robustness refinement (documented in DESIGN.md):

* **flat-tail test** — after each basic step, if the new dividing line
  intersects one or more graphs where the graph is locally horizontal
  (relative derivative below ``flat_tol``) while those intersections still
  move by whole elements, the region is in a flat tail: switch.
* **stall test** — if ``stall_limit`` consecutive basic steps fail to
  shrink the total allocation uncertainty ``sum_i (u_i - l_i)`` by at least
  ``stall_factor``, the basic bisection is making no geometric progress:
  switch.

Either test firing hands the current (already narrowed) region to
:func:`~repro.core.modified.partition_modified`, so no work is repeated.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import obs
from ..exceptions import ConvergenceError
from .options import reject_unknown_options
from .geometry import SlopeRegion, _start_bracket
from .vectorized import ObjectSet, PiecewiseLinearSet, pack_speed_functions
from .modified import partition_modified
from .refine import fine_tune, makespan
from .result import PartitionResult
from .speed_function import SpeedFunction

__all__ = ["partition_combined"]

_DEFAULT_MAX_ITERATIONS = 20_000


def _relative_derivative(sf: SpeedFunction, x: float) -> float:
    """Dimensionless local slope ``s'(x) * x / s(x)`` by finite difference.

    Zero means the graph is locally horizontal (a flat tail or plateau).
    """
    if x <= 0:
        return 0.0
    h = max(x * 1e-3, 1e-9)
    x1 = min(x + h, sf.max_size)
    x0 = max(x - h, 0.0)
    if x1 <= x0:
        return 0.0
    s = sf.speed(x)
    if s <= 0:
        return 0.0
    return float((sf.speed(x1) - sf.speed(x0)) / (x1 - x0) * x / s)


def partition_combined(
    n: int,
    speed_functions: Sequence[SpeedFunction],
    *,
    mode: str = "tangent",
    refine: str = "greedy",
    max_iterations: int = _DEFAULT_MAX_ITERATIONS,
    keep_trace: bool = False,
    flat_tol: float = 1e-3,
    stall_limit: int = 8,
    stall_factor: float = 0.75,
    region: SlopeRegion | None = None,
    pack: PiecewiseLinearSet | ObjectSet | None = None,
    **extra,
) -> PartitionResult:
    """Partition ``n`` elements, switching basic -> modified when useful.

    See :func:`~repro.core.bisection.partition_bisection` for the common
    parameters (including the starting ``region`` and the reusable
    ``pack``).  ``flat_tol``, ``stall_limit`` and ``stall_factor`` tune
    the switch heuristics described in the module docstring.
    """
    reject_unknown_options("combined", extra)
    p = len(speed_functions)
    if n == 0:
        return PartitionResult(
            allocation=np.zeros(p, dtype=np.int64),
            makespan=0.0,
            algorithm="combined",
        )
    if pack is None:
        pack = pack_speed_functions(speed_functions)
    warm = region is not None
    region, probes, (low_alloc, high_alloc), (low_seg, high_seg) = _start_bracket(
        pack, n, region, speed_functions
    )
    intersections = (probes + 2) * p
    iterations = 0
    stalled = 0
    trace: list[tuple[float, float]] = []
    switch = False

    while np.any(high_alloc - low_alloc >= 1.0):
        if iterations >= max_iterations:
            raise ConvergenceError(
                f"combined algorithm did not converge within {max_iterations} steps",
                iterations=iterations,
            )
        uncertainty_before = float(np.sum(high_alloc - low_alloc))
        mid = region.midpoint(mode)
        mid_alloc, mid_seg = pack.rays(mid, low_seg, high_seg)  # active-set step
        intersections += p
        total = float(mid_alloc.sum())
        if keep_trace:
            trace.append((mid, total))
        if total >= n:
            region = region.replace_lower(mid)
            high_alloc, high_seg = mid_alloc, mid_seg
        else:
            region = region.replace_upper(mid)
            low_alloc, low_seg = mid_alloc, mid_seg
        iterations += 1

        # Flat-tail test: the dividing line crosses a locally horizontal
        # graph while that processor's allocation is still undecided.
        moving = high_alloc - low_alloc >= 1.0
        if np.any(moving):
            for i in np.nonzero(moving)[0]:
                if abs(_relative_derivative(speed_functions[i], float(mid_alloc[i]))) < flat_tol:
                    switch = True
                    break
        # Stall test: geometric progress dried up.
        uncertainty_after = float(np.sum(high_alloc - low_alloc))
        if uncertainty_after > stall_factor * uncertainty_before:
            stalled += 1
        else:
            stalled = 0
        if stalled >= stall_limit:
            switch = True
        if switch:
            break

    if switch and np.any(high_alloc - low_alloc >= 1.0):
        if obs.is_enabled():
            obs.record_solver(
                "combined",
                iterations=iterations,
                intersections=intersections,
                probes=probes,
                warm=warm,
                switched=True,
            )
        sub = partition_modified(
            n,
            speed_functions,
            refine=refine,
            keep_trace=keep_trace,
            region=region,
            pack=pack,
        )
        return PartitionResult(
            allocation=sub.allocation,
            makespan=sub.makespan,
            algorithm="combined",
            iterations=iterations + sub.iterations,
            intersections=intersections + sub.intersections - 3 * p,
            slope=sub.slope,
            trace=trace + sub.trace,
            region=sub.region,
        )

    alloc = fine_tune(n, speed_functions, refine, low_alloc, high_alloc, pack)
    if obs.is_enabled():
        obs.record_solver(
            "combined",
            iterations=iterations,
            intersections=intersections,
            probes=probes,
            warm=warm,
        )
    return PartitionResult(
        allocation=alloc,
        makespan=makespan(speed_functions, alloc, pack=pack),
        algorithm="combined",
        iterations=iterations,
        intersections=intersections,
        slope=region.midpoint(mode),
        trace=trace,
        region=region,
    )
