"""The basic slope-bisection partitioning algorithm (section 2, figures 7-8).

The algorithm maintains two lines through the origin: the steeper allocates
at most ``n`` elements in total, the shallower at least ``n``.  Each step
bisects the angular region between them by a third line and keeps the half
containing the optimal line.  It stops when no allocation can change by a
whole element any more (the paper's criterion: ``u_i - l_i < 1`` for every
processor), then hands over to the fine-tuning procedure.

Complexity: ``O(p)`` per step.  When the optimal slope decays polynomially
with ``n`` — which the paper argues covers most real-life situations — the
number of steps is ``O(log n)``, giving ``O(p log n)`` overall; for
pathological shapes (optimal slope decaying exponentially) the step count
degrades up to ``O(n)``, which motivates the modified algorithm in
:mod:`repro.core.modified`.

On a compiled fleet a step runs the knot search only for the rows whose
segment still differs between the two bounding lines (the active set of
:meth:`~repro.core.vectorized.PiecewiseLinearSet.rays`); the other rows
are evaluated on their known segment.  :func:`partition_bisection_many`
steps a batch of sizes in lockstep, each from its own figure-18 bracket,
so every plan it returns is the one-shot plan, step count included.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import obs
from ..exceptions import ConvergenceError
from .geometry import SlopeRegion, _cold_brackets, _start_bracket, midpoint
from .options import reject_unknown_options
from .vectorized import ObjectSet, PiecewiseLinearSet, pack_speed_functions
from .refine import fine_tune, makespan
from .result import PartitionResult
from .speed_function import SpeedFunction

__all__ = ["partition_bisection", "partition_bisection_many"]

#: Hard iteration cap; generous enough for n up to ~2**10000 with tangent
#: bisection, only ever reached by adversarial inputs.
_DEFAULT_MAX_ITERATIONS = 20_000

#: Relative slope width below which the region is numerically a single line.
_MIN_RELATIVE_WIDTH = 1e-15


def partition_bisection(
    n: int,
    speed_functions: Sequence[SpeedFunction],
    *,
    mode: str = "tangent",
    refine: str = "greedy",
    max_iterations: int = _DEFAULT_MAX_ITERATIONS,
    keep_trace: bool = False,
    region: SlopeRegion | None = None,
    pack: PiecewiseLinearSet | ObjectSet | None = None,
    **extra,
) -> PartitionResult:
    """Partition ``n`` elements with the basic bisection algorithm.

    Parameters
    ----------
    n:
        Number of elements to distribute.
    speed_functions:
        One :class:`~repro.core.speed_function.SpeedFunction` per processor.
    mode:
        ``"tangent"`` (default, bisect tangent slopes — the paper's
        recommendation for practical implementations) or ``"angle"``
        (bisect the angles, the paper's formal definition).
    refine:
        Fine-tuning procedure: ``"greedy"`` (optimal, default) or
        ``"paper"`` (the literal 2p-candidate sort of figure 9).
    max_iterations:
        Safety cap on bisection steps.
    keep_trace:
        Record ``(slope, total allocation)`` per step in the result.
    region:
        Optional starting region.  It does not have to bracket the optimal
        line for this ``n``: a stale region (e.g. the converged
        ``result.region`` of a nearby problem size) is first repaired by
        :func:`~repro.core.geometry.ensure_bracket`.  Computed by
        :func:`~repro.core.geometry.initial_bracket` when omitted.
    pack:
        Optional pre-built evaluator for the same ``speed_functions`` (see
        :func:`~repro.core.vectorized.pack_speed_functions`).  Callers
        answering many queries over one fleet should build it once and
        pass it here; when omitted, one is built per call.  Passing
        :class:`~repro.core.vectorized.ObjectSet` forces the per-object
        reference evaluation.

    Returns
    -------
    PartitionResult
        ``result.region`` holds the final converged bracket for reuse.
    """
    reject_unknown_options("bisection", extra)
    p = len(speed_functions)
    if n == 0:
        return PartitionResult(
            allocation=np.zeros(p, dtype=np.int64),
            makespan=0.0,
            algorithm="bisection",
        )
    if pack is None:
        pack = pack_speed_functions(speed_functions)
    warm = region is not None
    region, probes, (low_alloc, high_alloc), (low_seg, high_seg) = _start_bracket(
        pack, n, region, speed_functions
    )
    intersections = (probes + 2) * p  # bracket probes + the two initial lines
    iterations = 0
    trace: list[tuple[float, float]] = []

    while np.any(high_alloc - low_alloc >= 1.0):
        if iterations >= max_iterations:
            raise ConvergenceError(
                f"basic bisection did not converge within {max_iterations} "
                "steps; consider partition_modified()",
                iterations=iterations,
            )
        if region.width() <= _MIN_RELATIVE_WIDTH * region.upper:
            # The slope interval has collapsed to float precision while some
            # allocation interval still spans an integer (a numerically flat
            # graph segment); fine-tuning resolves the remainder.
            break
        mid = region.midpoint(mode)
        # Active-set step: only rows whose knot segment differs between
        # the two bounding lines are searched.
        mid_alloc, mid_seg = pack.rays(mid, low_seg, high_seg)
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

    alloc = fine_tune(n, speed_functions, refine, low_alloc, high_alloc, pack)
    if obs.is_enabled():
        obs.record_solver(
            "bisection",
            iterations=iterations,
            intersections=intersections,
            probes=probes,
            warm=warm,
        )
    return PartitionResult(
        allocation=alloc,
        makespan=makespan(speed_functions, alloc, pack=pack),
        algorithm="bisection",
        iterations=iterations,
        intersections=intersections,
        slope=region.midpoint(mode),
        trace=trace,
        region=region,
    )


def partition_bisection_many(
    ns: Sequence[int],
    speed_functions: Sequence[SpeedFunction],
    *,
    mode: str = "tangent",
    refine: str = "greedy",
    max_iterations: int = _DEFAULT_MAX_ITERATIONS,
    pack: PiecewiseLinearSet | ObjectSet | None = None,
) -> list[PartitionResult]:
    """Solve a whole batch of problem sizes in one lockstep sweep.

    Equivalent to ``[partition_bisection(n, ...) for n in ns]`` — each
    returned plan is bit-identical to its one-shot counterpart, iteration
    count included — but cheaper:

    * **batched brackets**: every distinct size gets its own figure-18
      bracket, from one batched ``speeds`` pass and one batched check of
      all the bracket lines;
    * **lockstep bisection**: all still-unconverged sizes advance
      together, and their midpoint rays are evaluated in a single
      ``rays`` call per step, which searches only the (size, row) pairs
      whose knot segment is still undecided; on a compiled pack that pays
      the NumPy dispatch cost once per step instead of once per size per
      step.

    Results are returned in the order the sizes were given; ``pack`` as
    in :func:`partition_bisection`.
    """
    sizes = [int(n) for n in ns]
    if pack is None:
        pack = pack_speed_functions(speed_functions)
    p = len(speed_functions)
    pending = sorted({n for n in sizes if n > 0})
    # Sizes with nothing to bisect, and a lone size: with no other size to
    # step in lockstep with, the one-shot solver is the same sweep without
    # the batch bookkeeping.
    alone = set(sizes) if len(pending) < 2 else {n for n in sizes if n <= 0}
    solved = {
        n: partition_bisection(n, speed_functions, mode=mode, refine=refine, pack=pack)
        for n in sorted(alone)
    }
    if len(pending) < 2:
        return [solved[n] for n in sizes]

    regions, (lows, highs), (low_segs, high_segs) = _cold_brackets(pack, pending)
    uppers = np.array([r.upper for r in regions])
    lowers = np.array([r.lower for r in regions])
    iterations = np.zeros(len(pending), dtype=np.int64)

    def unconverged(idx: np.ndarray) -> np.ndarray:
        wide = uppers[idx] - lowers[idx] > _MIN_RELATIVE_WIDTH * uppers[idx]
        return idx[np.any(highs[idx] - lows[idx] >= 1.0, axis=1) & wide]

    active = unconverged(np.arange(len(pending)))
    batch_steps = 0
    while active.size:
        if iterations[active].max() >= max_iterations:
            raise ConvergenceError(
                f"basic bisection did not converge within "
                f"{max_iterations} steps; consider partition_modified()",
                iterations=int(iterations[active].max()),
            )
        batch_steps += 1
        mids = np.array([
            midpoint(u, l, mode)
            for u, l in zip(uppers[active].tolist(), lowers[active].tolist())
        ])
        mid_allocs, mid_segs = pack.rays(mids, low_segs[active], high_segs[active])
        # Python floats against Python ints: the one-shot comparison, exactly.
        reached = np.array([
            total >= pending[i]
            for total, i in zip(mid_allocs.sum(axis=1).tolist(), active.tolist())
        ])
        shallow, steep = active[reached], active[~reached]
        lowers[shallow], highs[shallow] = mids[reached], mid_allocs[reached]
        high_segs[shallow] = mid_segs[reached]
        uppers[steep], lows[steep] = mids[~reached], mid_allocs[~reached]
        low_segs[steep] = mid_segs[~reached]
        iterations[active] += 1
        active = unconverged(active)

    for i, n in enumerate(pending):
        alloc = fine_tune(n, speed_functions, refine, lows[i], highs[i], pack)
        region = SlopeRegion(upper=float(uppers[i]), lower=float(lowers[i]))
        solved[n] = PartitionResult(
            allocation=alloc,
            makespan=makespan(speed_functions, alloc, pack=pack),
            algorithm="bisection",
            iterations=int(iterations[i]),
            intersections=int(3 + iterations[i]) * p,
            slope=region.midpoint(mode),
            region=region,
        )
    if obs.is_enabled():
        obs.record_batch(sizes=len(pending), steps=batch_steps)
        for i in range(len(pending)):
            obs.record_solver(
                "bisection",
                iterations=int(iterations[i]),
                intersections=int(3 + iterations[i]) * p,
                probes=1,
                warm=False,
            )
    return [solved[n] for n in sizes]
