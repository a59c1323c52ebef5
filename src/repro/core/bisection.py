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
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .. import obs
from ..exceptions import ConfigurationError, ConvergenceError
from .geometry import SlopeRegion, ensure_bracket, initial_bracket
from .options import reject_unknown_options
from .vectorized import ObjectSet, PiecewiseLinearSet, pack_speed_functions
from .refine import makespan, refine_greedy, refine_paper
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
        :func:`~repro.core.geometry.ensure_bracket`, which is how
        warm-started queries skip most of the cold search.  Computed by
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
    if region is None:
        region = initial_bracket(speed_functions, n, pack=pack)
        probes = 1  # the figure-18 bracket probe
    else:
        region, probes = ensure_bracket(region, n, speed_functions, pack=pack)
    low_alloc = pack.allocations(region.upper)
    high_alloc = pack.allocations(region.lower)
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
        mid_alloc = pack.allocations(mid)
        intersections += p
        total = float(mid_alloc.sum())
        if keep_trace:
            trace.append((mid, total))
        if total >= n:
            region = region.replace_lower(mid)
            high_alloc = mid_alloc
        else:
            region = region.replace_upper(mid)
            low_alloc = mid_alloc
        iterations += 1

    if refine == "greedy":
        alloc = refine_greedy(n, speed_functions, low_alloc, pack=pack)
    elif refine == "paper":
        alloc = refine_paper(n, speed_functions, low_alloc, high_alloc, pack=pack)
    else:
        raise ConfigurationError(f"unknown refine procedure {refine!r}")
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
    region: SlopeRegion | None = None,
    pack: PiecewiseLinearSet | ObjectSet | None = None,
) -> list[PartitionResult]:
    """Solve a whole batch of problem sizes in one lockstep sweep.

    Equivalent to ``[partition_bisection(n, ...) for n in ns]`` — each
    returned plan is bit-identical to its one-shot counterpart — but far
    cheaper, by two structural tricks:

    * **monotone bracketing**: sizes are processed in ascending order, so
      the optimal slope only moves downward; each size's starting bracket
      is repaired from its predecessor's in a few geometric probes instead
      of an independent figure-18 doubling search;
    * **lockstep bisection**: all still-unconverged sizes advance
      together, and their midpoint rays are intersected with the ``p``
      graphs in a single ``allocations_many`` call per step; on a compiled
      pack that pays the NumPy dispatch cost once per step instead of once
      per size per step.

    Results are returned in the order the sizes were given.  ``region``
    optionally seeds the smallest size's bracket (a converged region from
    a previous query); ``pack`` as in :func:`partition_bisection`.
    """
    sizes = [int(n) for n in ns]
    if pack is None:
        pack = pack_speed_functions(speed_functions)
    p = len(speed_functions)
    order = sorted(range(len(sizes)), key=lambda i: sizes[i])
    solved: dict[int, PartitionResult] = {}

    # Phase 1 — chained brackets, ascending (monotone slope sweep).
    pending: list[int] = []  # distinct sizes, ascending
    seen: set[int] = set()
    regions: list[SlopeRegion] = []
    probe_counts: list[int] = []
    warm_flags: list[bool] = []
    prev = region
    for idx in order:
        n = sizes[idx]
        if n in seen:
            continue
        seen.add(n)
        if n <= 0:
            solved[n] = partition_bisection(
                n, speed_functions, mode=mode, refine=refine, pack=pack
            )
            continue
        warm_flags.append(prev is not None)
        if prev is None:
            r = initial_bracket(speed_functions, n, pack=pack)
            probes = 1
        else:
            # The previous (smaller) size's bracket: its steep bound stays
            # valid because totals only grow as the slope falls; only the
            # shallow bound may need geometric expansion.
            r, probes = ensure_bracket(prev, n, speed_functions, pack=pack)
        pending.append(n)
        regions.append(r)
        probe_counts.append(probes)
        prev = r

    # Phase 2 — lockstep bisection over all pending sizes.
    if pending:
        q = len(pending)
        uppers = np.array([r.upper for r in regions])
        lowers = np.array([r.lower for r in regions])
        low_allocs = pack.allocations_many(uppers)
        high_allocs = pack.allocations_many(lowers)
        iterations = [0] * q
        intersections = [(probe_counts[i] + 2) * p for i in range(q)]
        batch_steps = 0
        active = [
            i
            for i in range(q)
            if np.any(high_allocs[i] - low_allocs[i] >= 1.0)
            and regions[i].width() > _MIN_RELATIVE_WIDTH * regions[i].upper
        ]
        while active:
            batch_steps += 1
            mids = np.array([regions[i].midpoint(mode) for i in active])
            mid_allocs = pack.allocations_many(mids)
            still = []
            for row, i in enumerate(active):
                if iterations[i] >= max_iterations:
                    raise ConvergenceError(
                        f"basic bisection did not converge within "
                        f"{max_iterations} steps; consider partition_modified()",
                        iterations=iterations[i],
                    )
                ma = mid_allocs[row]
                if float(ma.sum()) >= pending[i]:
                    regions[i] = regions[i].replace_lower(float(mids[row]))
                    high_allocs[i] = ma
                else:
                    regions[i] = regions[i].replace_upper(float(mids[row]))
                    low_allocs[i] = ma
                iterations[i] += 1
                intersections[i] += p
                if np.any(high_allocs[i] - low_allocs[i] >= 1.0) and (
                    regions[i].width() > _MIN_RELATIVE_WIDTH * regions[i].upper
                ):
                    still.append(i)
            active = still

        # Phase 3 — fine-tune each converged size (identical to one-shot).
        for i, n in enumerate(pending):
            if refine == "greedy":
                alloc = refine_greedy(n, speed_functions, low_allocs[i], pack=pack)
            elif refine == "paper":
                alloc = refine_paper(
                    n, speed_functions, low_allocs[i], high_allocs[i], pack=pack
                )
            else:
                raise ConfigurationError(f"unknown refine procedure {refine!r}")
            solved[n] = PartitionResult(
                allocation=alloc,
                makespan=makespan(speed_functions, alloc, pack=pack),
                algorithm="bisection",
                iterations=iterations[i],
                intersections=intersections[i],
                slope=regions[i].midpoint(mode),
                region=regions[i],
            )
        if obs.is_enabled():
            obs.record_batch(sizes=len(pending), steps=batch_steps)
            for i in range(len(pending)):
                obs.record_solver(
                    "bisection",
                    iterations=iterations[i],
                    intersections=intersections[i],
                    probes=probe_counts[i],
                    warm=warm_flags[i],
                )

    return [solved[n] for n in sizes]
