"""The modified (solution-space) bisection algorithm (section 2, figs 10-12).

The basic algorithm bisects the *angular region* between two lines; its step
count therefore depends on how fast the optimal slope decays with ``n``.
The modified algorithm instead bisects the *space of solutions*: the
discrete set of lines through the origin that pass through a point of some
speed graph with an integer size coordinate.

Each step:

1. find the processor whose graph carries the most candidate lines inside
   the current region — i.e. the most integer sizes between its two
   bounding intersections;
2. split that processor's size interval at its midpoint ``(v+w)/2`` (the
   paper prints ``(v-w)/2``, an obvious typo) and draw the line through the
   origin and ``(mid, s(mid))``;
3. keep the half-region containing the optimal line.

Every ``p`` consecutive steps at least halve the total number of candidate
lines (the pigeonhole argument of figure 12), so at most ``p * log2(n)``
steps are needed and the overall complexity is ``O(p^2 log n)`` —
independent of the shapes of the speed graphs.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .. import obs
from ..exceptions import ConvergenceError
from .options import reject_unknown_options
from .geometry import SlopeRegion, _start_bracket
from .vectorized import ObjectSet, PiecewiseLinearSet, pack_speed_functions
from .refine import fine_tune, makespan
from .result import PartitionResult
from .speed_function import SpeedFunction

__all__ = ["partition_modified"]

_DEFAULT_MAX_ITERATIONS = 100_000


def _integer_counts(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Number of integer sizes strictly inside each ``[low_i, high_i]``.

    Counts integers ``k`` with ``low_i < k < high_i`` — candidate
    intersection sizes that would distinguish two different solution lines
    within the region.
    """
    lo = np.floor(low) + 1.0
    hi = np.ceil(high) - 1.0
    # Cap below 2**53 so the float->int64 cast cannot overflow when an
    # unbounded processor reports an astronomically wide interval (the
    # cap only matters for the argmax over processors, where any two
    # capped counts compare equal — and both are far past convergence).
    return np.minimum(np.maximum(hi - lo + 1.0, 0.0), 2.0**53).astype(np.int64)


def partition_modified(
    n: int,
    speed_functions: Sequence[SpeedFunction],
    *,
    refine: str = "greedy",
    max_iterations: int = _DEFAULT_MAX_ITERATIONS,
    keep_trace: bool = False,
    region: SlopeRegion | None = None,
    pack: PiecewiseLinearSet | ObjectSet | None = None,
    **extra,
) -> PartitionResult:
    """Partition ``n`` elements with the modified bisection algorithm.

    Parameters mirror :func:`~repro.core.bisection.partition_bisection`
    (including warm-start ``region`` repair and the reusable ``pack``);
    there is no ``mode`` because the split point is chosen on a speed graph
    rather than in slope space.
    """
    reject_unknown_options("modified", extra)
    p = len(speed_functions)
    if n == 0:
        return PartitionResult(
            allocation=np.zeros(p, dtype=np.int64),
            makespan=0.0,
            algorithm="modified",
        )
    if pack is None:
        pack = pack_speed_functions(speed_functions)
    warm = region is not None
    region, probes, (low_alloc, high_alloc), (low_seg, high_seg) = _start_bracket(
        pack, n, region, speed_functions
    )
    intersections = (probes + 2) * p
    iterations = 0
    trace: list[tuple[float, float]] = []

    while np.any(high_alloc - low_alloc >= 1.0):
        if iterations >= max_iterations:
            raise ConvergenceError(
                f"modified bisection did not converge within {max_iterations} steps",
                iterations=iterations,
            )
        if region.upper - region.lower <= 1e-15 * region.upper:
            # The slope interval collapsed to float precision while some
            # allocation interval still spans integers: a graph segment lies
            # exactly on a ray through the origin (constant g), so every
            # allocation on it has the same execution time.  Fine-tuning
            # resolves the remainder.
            break
        counts = _integer_counts(low_alloc, high_alloc)
        if counts.sum() == 0:
            # No candidate line separates the bounds any more; the remaining
            # >=1-wide intervals touch integers only at their endpoints.
            break
        i = int(np.argmax(counts))
        mid_x = 0.5 * (low_alloc[i] + high_alloc[i])
        slope = speed_functions[i].g(mid_x)
        # Keep the dividing line strictly inside the region; degenerate
        # clamped intersections could push it onto a boundary.
        if not (region.lower < slope < region.upper) or not math.isfinite(slope):
            slope = region.midpoint("tangent")
        mid_alloc, mid_seg = pack.rays(slope, low_seg, high_seg)  # active-set step
        intersections += p
        total = float(mid_alloc.sum())
        if keep_trace:
            trace.append((slope, total))
        if total >= n:
            region = region.replace_lower(slope)
            high_alloc, high_seg = mid_alloc, mid_seg
        else:
            region = region.replace_upper(slope)
            low_alloc, low_seg = mid_alloc, mid_seg
        iterations += 1

    alloc = fine_tune(n, speed_functions, refine, low_alloc, high_alloc, pack)
    if obs.is_enabled():
        obs.record_solver(
            "modified",
            iterations=iterations,
            intersections=intersections,
            probes=probes,
            warm=warm,
        )
    return PartitionResult(
        allocation=alloc,
        makespan=makespan(speed_functions, alloc, pack=pack),
        algorithm="modified",
        iterations=iterations,
        intersections=intersections,
        slope=region.midpoint("tangent"),
        trace=trace,
        region=region,
    )
