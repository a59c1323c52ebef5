"""Reference optimal integer partitioner via binary search on the makespan.

The paper notes that an "ideal" shape-insensitive ``O(p log n)`` bisection
algorithm is an open challenge.  This module provides the closest practical
thing: a makespan binary search used throughout the test-suite as ground
truth and in the ablation benchmarks as an upper baseline.

The idea: an allocation with makespan at most ``T`` gives every processor at
most ``x_i(T)`` elements, where ``x_i(T)`` is the largest integer with
``t_i(x) <= T``.  Because ``t_i(x) <= T`` is equivalent to ``g_i(x) >= 1/T``
and ``g`` is strictly decreasing, ``x_i(T) = floor(intersect_ray(1/T))`` —
one ray intersection per processor.  ``T`` is feasible iff
``sum_i x_i(T) >= n``; feasibility is monotone in ``T``, so a binary search
on the ray slope ``c = 1/T`` finds the optimal makespan to float precision
in ``O(p log n log(1/eps))``.  The final allocation floors ``x_i(T*)`` and
sheds any surplus from the processors currently finishing last (which can
only reduce the makespan).
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from ..exceptions import ConvergenceError, InfeasiblePartitionError
from .options import reject_unknown_options
from .geometry import initial_bracket
from .vectorized import ObjectSet, PiecewiseLinearSet, pack_speed_functions
from .refine import makespan
from .result import PartitionResult
from .speed_function import SpeedFunction

__all__ = ["partition_exact"]

_SLOPE_ITERATIONS = 120


def _floor_allocations(allocations: np.ndarray, cap: float) -> np.ndarray:
    # Clamp before flooring: a processor with an unbounded (or huge)
    # memory limit can report a real allocation far beyond 2**63 at a
    # shallow slope, and floor().astype(int64) would overflow to
    # INT64_MIN — turning the integer feasibility predicate negative and
    # mislabelling feasible instances infeasible.  No processor ever
    # needs more than the n being partitioned, so n is an exact cap.
    return np.floor(np.minimum(allocations, cap)).astype(np.int64)


def partition_exact(
    n: int,
    speed_functions: Sequence[SpeedFunction],
    *,
    slope_iterations: int = _SLOPE_ITERATIONS,
    pack: PiecewiseLinearSet | ObjectSet | None = None,
    **extra,
) -> PartitionResult:
    """Makespan-optimal integer partition of ``n`` elements.

    ``pack`` optionally supplies the fleet evaluator of the same functions
    (built per call when omitted, see
    :func:`~repro.core.vectorized.pack_speed_functions`); the shallow-slope
    feasibility ladder is evaluated ``pack.speculative_rows`` slopes at a
    time.

    Raises :class:`~repro.exceptions.InfeasiblePartitionError` when ``n``
    exceeds the combined memory bounds.
    """
    reject_unknown_options("exact", extra)
    p = len(speed_functions)
    if n == 0:
        return PartitionResult(
            allocation=np.zeros(p, dtype=np.int64),
            makespan=0.0,
            algorithm="exact",
        )
    if pack is None:
        pack = pack_speed_functions(speed_functions)
    # also validates feasibility
    region = initial_bracket(speed_functions, n, pack=pack)
    intersections = 3 * p
    # Bracket in slope space for the *integer* feasibility predicate.
    c_hi = region.upper  # steep: sum of floors <= n (usually infeasible)
    c_lo = region.lower  # shallow: sum of reals >= n, floors may fall short
    cap = float(n)
    alloc_lo = None
    # Halving ladder, ``pack.speculative_rows`` slopes per probe: the slopes
    # c_lo * 0.5**k are exact halvings, and the reported intersection
    # count is that of a sequential walk.
    k = 0
    while k < 200 and alloc_lo is None:
        width = min(pack.speculative_rows, 200 - k)
        slopes = c_lo * 0.5 ** np.arange(width)
        floors = _floor_allocations(pack.allocations_many(slopes), cap)
        hits = np.nonzero(floors.sum(axis=1) >= n)[0]
        if hits.size:
            j = int(hits[0])
            alloc_lo = floors[j]
            c_lo = float(slopes[j])
            intersections += (k + j + 1) * p
        else:
            k += width
            c_lo = float(slopes[-1] * 0.5)
    if alloc_lo is None:
        raise InfeasiblePartitionError(
            f"cannot reach an integer total of {n}; memory bounds "
            "saturate below it"
        )
    iterations = 0
    for _ in range(slope_iterations):
        mid = 0.5 * (c_hi + c_lo)
        if not (c_lo < mid < c_hi):
            break
        alloc_mid = _floor_allocations(pack.allocations(mid), cap)
        intersections += p
        iterations += 1
        if int(alloc_mid.sum()) >= n:
            c_lo = mid
            alloc_lo = alloc_mid
        else:
            c_hi = mid
    alloc = alloc_lo.copy()
    surplus = int(alloc.sum()) - n
    if surplus < 0:  # pragma: no cover - guarded by the bracketing loop
        raise ConvergenceError("makespan search lost feasibility", iterations)
    if surplus:
        # Shed the surplus from the processors finishing last; each removal
        # weakly decreases the makespan.  All initial finish times come
        # from one evaluator pass; each pop re-probes one row.
        t_all = pack.times(alloc.astype(float))
        heap = [(-float(t_all[i]), int(i)) for i in np.nonzero(alloc > 0)[0]]
        heapq.heapify(heap)
        for _ in range(surplus):
            _, i = heapq.heappop(heap)
            alloc[i] -= 1
            if alloc[i] > 0:
                heapq.heappush(heap, (-pack.time_one(i, int(alloc[i])), i))
    return PartitionResult(
        allocation=alloc,
        makespan=makespan(speed_functions, alloc, pack=pack),
        algorithm="exact",
        iterations=iterations,
        intersections=intersections,
        slope=c_lo,
    )
