"""Fine-tuning: turning a continuous line solution into an integer allocation.

The bisection algorithms stop once the region between the two bounding lines
contains no line through integer points of the graphs (section 2); the
remaining job is to pick integer allocations ``x_i`` with ``sum(x_i) == n``
that minimise the parallel execution time ``max_i x_i / s_i(x_i)``.

Two procedures are provided:

:func:`refine_greedy` (default)
    Floor the allocations of the steeper bounding line (whose total is
    <= n), then hand out the remaining elements one at a time, always to
    the processor whose finish time after receiving one more element is
    smallest.  Because each processor's execution time is an increasing
    function of its allocation (the paper's standing assumption
    ``t_x >= t_y`` for ``x >= y``), this greedy is optimal for the min-max
    objective; the test-suite brute-force-verifies this on small instances.
    With a binary heap the cost is ``O(p + d*log p)`` where ``d < 2p`` after
    a converged bisection, matching the paper's ``O(p log p)`` fine-tuning
    bound.

:func:`refine_paper`
    The literal procedure of the paper (figure 9): collect the ``2p``
    integer candidate points adjacent to the two bounding lines, evaluate
    their execution times, sort, and pick the ``p`` best consistent with
    ``sum == n``.  Falls back to :func:`refine_greedy` when the candidate
    set cannot reach the required total (which the paper's description
    leaves implicit).
"""

from __future__ import annotations

import heapq
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError, InfeasiblePartitionError
from .speed_function import SpeedFunction
from .vectorized import ObjectSet, PiecewiseLinearSet

__all__ = ["makespan", "refine_greedy", "refine_paper"]


def makespan(
    speed_functions: Sequence[SpeedFunction],
    allocation: Sequence[int],
    *,
    pack: PiecewiseLinearSet | ObjectSet | None = None,
) -> float:
    """Parallel execution time of an allocation: ``max_i t_i(x_i)``.

    ``pack`` optionally supplies the fleet evaluator of the same functions
    (a compiled pack evaluates all ``p`` times in one vectorised pass); the
    per-object :class:`~repro.core.vectorized.ObjectSet` is used when it is
    omitted.
    """
    if pack is None:
        pack = ObjectSet(speed_functions)
    x = np.asarray(allocation, dtype=np.int64)
    if x.shape != (pack.p,):
        raise ValueError(
            f"allocation has {x.size} entries for {pack.p} processors"
        )
    return float(pack.times(x.astype(float)).max())


def fine_tune(
    n: int,
    speed_functions: Sequence[SpeedFunction],
    refine: str,
    low_allocation: np.ndarray,
    high_allocation: np.ndarray,
    pack: PiecewiseLinearSet | ObjectSet,
) -> np.ndarray:
    """Run ``refine`` (``"greedy"`` or ``"paper"``) on a converged bracket's
    steep-line and shallow-line intersections."""
    if refine == "greedy":
        return refine_greedy(n, speed_functions, low_allocation, pack=pack)
    if refine == "paper":
        return refine_paper(
            n, speed_functions, low_allocation, high_allocation, pack=pack
        )
    raise ConfigurationError(f"unknown refine procedure {refine!r}")


def refine_greedy(
    n: int,
    speed_functions: Sequence[SpeedFunction],
    base_allocation: Sequence[float],
    *,
    pack: PiecewiseLinearSet | ObjectSet | None = None,
) -> np.ndarray:
    """Optimal integer completion of a fractional under-allocation.

    Parameters
    ----------
    n:
        Total number of elements to distribute.
    speed_functions:
        One speed function per processor.
    base_allocation:
        Fractional allocations whose floors sum to at most ``n`` (typically
        the intersections with the steeper bounding line).  Values are
        floored and clipped to each processor's memory bound.
    pack:
        Optional fleet evaluator of the same functions; the per-object
        :class:`~repro.core.vectorized.ObjectSet` when omitted.  On an
        evaluator with ``speculative_rows > 1`` (the compiled pack) the
        handout evaluates whole rounds of finish times at once and
        reproduces the heap's strict ``(time, index)`` pop order exactly.

    Returns
    -------
    numpy.ndarray
        Integer allocations summing to exactly ``n``.

    Raises
    ------
    InfeasiblePartitionError
        If the floors already exceed ``n`` or the memory bounds make the
        total unreachable.
    """
    if pack is None:
        pack = ObjectSet(speed_functions)
    bounds = pack.max_sizes
    base = np.floor(np.asarray(base_allocation, dtype=float))
    base = np.maximum(np.minimum(base, np.floor(bounds)), 0.0)
    alloc = base.astype(np.int64)
    deficit = int(n) - int(alloc.sum())
    if deficit < 0:
        raise InfeasiblePartitionError(
            f"base allocation already sums to {alloc.sum()} > n={n}"
        )
    if deficit == 0:
        return alloc
    if pack.speculative_rows > 1:
        return _handout_batched(n, alloc, deficit, bounds, pack)
    # Per-object evaluator: a batched round pays two whole rows of object
    # calls, the heap one row plus one call per handed-out element.
    heap = _next_heap(alloc, bounds, pack)
    return _handout_heap(n, alloc, deficit, bounds, heap, pack)


def _next_heap(alloc, bounds, pack) -> list[tuple[float, int]]:
    """Heap of ``(finish time after one more element, index)`` entries."""
    t_next = pack.times((alloc + 1).astype(float))
    heap = [(float(t_next[i]), int(i)) for i in np.nonzero(alloc + 1 <= bounds)[0]]
    heapq.heapify(heap)
    return heap


def _handout_heap(n, alloc, deficit, bounds, heap, pack):
    """The classic one-element-at-a-time greedy handout over ``heap``
    (see :func:`_next_heap`)."""
    for _ in range(deficit):
        if not heap:
            raise InfeasiblePartitionError(
                f"memory bounds prevent allocating all {n} elements"
            )
        _, i = heapq.heappop(heap)
        alloc[i] += 1
        if alloc[i] + 1 <= bounds[i]:
            heapq.heappush(heap, (pack.time_one(i, int(alloc[i]) + 1), i))
    return alloc


#: Give up on round batching once this many rounds made little progress.
_MAX_SLOW_ROUNDS = 4


def _handout_batched(n, alloc, deficit, bounds, pack):
    """Exact batched simulation of the greedy heap handout.

    The heap pops candidates in ``(finish time, index)`` order, where each
    processor contributes the increasing sequence ``t_i(a_i+1), t_i(a_i+2),
    ...`` — a k-way merge.  A whole *prefix* of the sorted first candidates
    can therefore be handed one element each in a single vectorised round,
    as long as no selected processor's **second** candidate is cheaper than
    a later first candidate in the prefix: the prefix of length ``j`` is
    popped one-each by the heap iff ``u[s+1] >= min(second[0..s])`` never
    fails for ``s < j`` (tuples compared lexicographically; we use the
    strict float comparison, which is conservative on exact time ties and
    therefore never batches more than the heap would pop).

    Each round costs two vectorised time evaluations regardless of ``p``;
    in the common post-bisection state (all processors within one element
    of optimal) one or two rounds finish the whole deficit.  Pathological
    tie patterns fall back to the reference heap, so the result is always
    exactly the heap's.
    """
    slow_rounds = 0
    while deficit > 0:
        candidate = alloc + 1
        eligible = candidate <= bounds
        if not eligible.any():
            raise InfeasiblePartitionError(
                f"memory bounds prevent allocating all {n} elements"
            )
        t1 = np.where(eligible, pack.times(candidate.astype(float)), np.inf)
        order = np.argsort(t1, kind="stable")  # value ties fall back to index
        m = min(deficit, int(eligible.sum()))
        sel = order[:m]
        # times() is inf beyond the bound, so a processor with no second
        # candidate never constrains the prefix — exactly like the heap,
        # which simply has nothing to push for it.
        second = pack.times((alloc + 2).astype(float))[sel]
        u = t1[sel]
        good = u[1:] < np.minimum.accumulate(second)[:-1]
        j = 1 + (int(np.argmin(good)) if not good.all() else good.size)
        alloc[sel[:j]] += 1
        deficit -= j
        if j < max(1, m // 4):
            slow_rounds += 1
            if slow_rounds >= _MAX_SLOW_ROUNDS and deficit > 0:
                # Tie-heavy instance: finish with the reference heap.
                heap = _next_heap(alloc, bounds, pack)
                return _handout_heap(n, alloc, deficit, bounds, heap, pack)
    return alloc


def refine_paper(
    n: int,
    speed_functions: Sequence[SpeedFunction],
    lower_allocation: Sequence[float],
    upper_allocation: Sequence[float],
    *,
    pack: PiecewiseLinearSet | ObjectSet | None = None,
) -> np.ndarray:
    """The paper's 2p-candidate fine-tuning (figure 9).

    ``lower_allocation`` are the intersections with the steeper line (total
    <= n) and ``upper_allocation`` with the shallower line (total >= n).
    For each processor the two integer candidates are ``floor`` of the
    former and ``ceil`` of the latter; the procedure upgrades the cheapest
    processors (by execution time at the upgraded size, mirroring the
    paper's sort of the ``2p`` times) until the total reaches ``n``.
    ``pack`` is the fleet evaluator, as in :func:`refine_greedy`.
    """
    if pack is None:
        pack = ObjectSet(speed_functions)
    bounds_floor = np.floor(pack.max_sizes)
    low = np.floor(np.asarray(lower_allocation, dtype=float))
    low = np.maximum(np.minimum(low, bounds_floor), 0.0).astype(np.int64)
    high = np.ceil(np.asarray(upper_allocation, dtype=float))
    high = np.maximum(np.minimum(high, bounds_floor), 0.0).astype(np.int64)
    high = np.maximum(high, low)
    total_low = int(low.sum())
    total_high = int(high.sum())
    if not (total_low <= n <= total_high):
        # The candidate lattice cannot express the target total (possible
        # with clamped bounds); defer to the always-correct greedy.
        return refine_greedy(n, speed_functions, low, pack=pack)
    # Upgrade processors from low to high one unit at a time, cheapest
    # resulting execution time first — the "choose the p best of the 2p
    # execution times" step expressed as a heap.
    alloc = low.copy()
    times = pack.times((alloc + 1).astype(float))
    heap = [(float(times[i]), int(i)) for i in np.nonzero(alloc < high)[0]]
    heapq.heapify(heap)
    deficit = n - total_low
    for _ in range(deficit):
        _, i = heapq.heappop(heap)
        alloc[i] += 1
        if alloc[i] < high[i]:
            heapq.heappush(heap, (pack.time_one(int(i), int(alloc[i]) + 1), i))
    return alloc
