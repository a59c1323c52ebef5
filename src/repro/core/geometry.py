"""Geometric primitives for the line-through-origin partitioning algorithms.

The algorithms of section 2 search for a straight line ``y = c * x`` through
the origin of the (problem size, absolute speed) plane such that the sum of
the size coordinates of its intersections with the ``p`` speed graphs equals
the problem size ``n``.  Intersecting a ray with all graphs at once is the
job of the fleet evaluator (:mod:`repro.core.vectorized`); this module
provides:

* :func:`initial_bracket` — the paper's procedure (figure 18) for finding the
  two starting lines between which the optimal line lies;
* :func:`ensure_bracket` — the repair of a stale bracket (``region=``);
* :class:`SlopeRegion` — the pair of bounding slopes manipulated by the
  bisection algorithms, with both *tangent* and *angle* bisection rules (the
  paper bisects angles but notes that tangents work in practice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError, InfeasiblePartitionError
from .speed_function import SpeedFunction
from .vectorized import ObjectSet, PiecewiseLinearSet

__all__ = [
    "initial_bracket",
    "ensure_bracket",
    "SlopeRegion",
]


def _expand_batched(pack, v0: float, factor: float, n: int, mode: str,
                    max_expansions: int):
    """Walk the geometric slope ladder ``v0 * factor**k`` on the evaluator.

    Each probe after the first evaluates ``pack.speculative_rows`` slopes
    at once.  Returns ``(value, expansions)`` for the first ``k`` (checking
    at most ``max_expansions`` ladder points) whose total allocation
    satisfies the bracket condition — ``total <= n`` for ``mode='upper'``,
    ``total >= n`` for ``'lower'`` — or ``None`` when the ladder is
    exhausted.

    ``factor`` is a power of two, so the batch slopes are bitwise the
    sequence a sequential ``v *= factor`` loop visits, and the reported
    ``expansions`` is the sequential count (the first success index), not
    the number of array evaluations performed.
    """
    def ok(total: float) -> bool:
        return total <= n if mode == "upper" else total >= n

    # The common case succeeds on the first check: pay one row, not a chunk.
    if ok(float(pack.allocations(v0).sum())):
        return v0, 0
    k = 1
    v = float(v0 * factor)
    while k < max_expansions:
        width = min(pack.speculative_rows, max_expansions - k)
        slopes = v * factor ** np.arange(width)
        totals = pack.allocations_many(slopes).sum(axis=1)
        hits = np.nonzero(totals <= n if mode == "upper" else totals >= n)[0]
        if hits.size:
            j = int(hits[0])
            return float(slopes[j]), k + j
        k += width
        v = float(slopes[-1] * factor)
    return None


def _expand_region(pack, upper: float, lower: float, n: int,
                   max_expansions: int) -> tuple["SlopeRegion", int]:
    """Steepen ``upper`` until ``total <= n`` and flatten ``lower`` until
    ``total >= n``; returns the region and the ladder steps taken."""
    up = _expand_batched(pack, upper, 2.0, n, "upper", max_expansions)
    if up is None:  # pragma: no cover - requires a pathological function
        raise InfeasiblePartitionError(
            "could not find a steep line allocating fewer than n elements"
        )
    down = _expand_batched(pack, lower, 0.5, n, "lower", max_expansions)
    if down is None:
        raise InfeasiblePartitionError(
            f"problem of size {n} cannot be allocated even with "
            "arbitrarily shallow lines; processors saturate at their "
            "memory bounds"
        )
    return SlopeRegion(upper=up[0], lower=down[0]), up[1] + down[1]


def _check_capacity(pack, n: int) -> None:
    if n <= 0:
        raise InfeasiblePartitionError(f"problem size must be positive, got {n}")
    if pack.max_total < n:
        raise InfeasiblePartitionError(
            f"problem of size {n} exceeds the {pack.max_total:.0f} elements "
            f"the memory bounds of the {pack.p} processors can hold"
        )


def _cold_brackets(pack, ns: Sequence[int], max_expansions: int = 200):
    """Figure-18 brackets for the sizes ``ns``: ``(regions, rays, segments)``.

    One batched ``speeds`` pass and one batched ``rays`` check serve every
    size; only a size whose first check fails walks its ladder alone.
    ``rays[0]`` / ``rays[1]`` (and ``segments``) are the ``(len(ns), p)``
    results on the steep / shallow lines, ready for active-set steps.
    """
    p = pack.p
    if p == 0:
        raise InfeasiblePartitionError("no processors")
    for n in ns:
        _check_capacity(pack, n)
    probe = np.array([n / p for n in ns])[:, None]
    speeds = pack.speeds(np.minimum(probe, pack.max_sizes))
    # A processor whose speed is exactly zero at n/p (e.g. at its paging
    # limit) still has positive speed at smaller sizes; fall back to a
    # tiny positive surrogate so the bracket search can proceed.
    speeds = np.where(
        np.any(speeds <= 0, axis=1, keepdims=True),
        np.maximum(speeds, 1e-30),
        speeds,
    )
    lines = np.stack([speeds.max(axis=1), speeds.min(axis=1)]) / probe[:, 0]
    rays, segments = pack.rays(lines.ravel())
    rays = rays.reshape(2, len(ns), p)
    segments = segments.reshape(2, len(ns), p)
    totals = rays.sum(axis=2)
    regions = []
    for j, n in enumerate(ns):
        upper, lower = float(lines[0, j]), float(lines[1, j])
        if float(totals[0, j]) <= n <= float(totals[1, j]):
            region = SlopeRegion(upper=upper, lower=lower)
        else:
            region = _expand_region(pack, upper, lower, n, max_expansions)[0]
            rays[:, j], segments[:, j] = pack.rays([region.upper, region.lower])
        regions.append(region)
    return regions, rays, segments


def _start_bracket(pack, n: int, region, speed_functions):
    """Where one solve starts: ``(region, probes, rays, segments)``.

    The figure-18 bracket (one probe) when ``region`` is None, otherwise
    ``region`` repaired by :func:`ensure_bracket`; ``rays`` / ``segments``
    are the allocations and knot segments on its steep and shallow lines.
    """
    if region is None:
        regions, rays, segments = _cold_brackets(pack, [n])
        return regions[0], 1, rays[:, 0], segments[:, 0]
    region, probes = ensure_bracket(region, n, speed_functions, pack=pack)
    rays, segments = pack.rays([region.upper, region.lower])
    return region, probes, rays, segments


def initial_bracket(
    speed_functions: Sequence[SpeedFunction],
    n: int,
    *,
    max_expansions: int = 200,
    pack: PiecewiseLinearSet | ObjectSet | None = None,
) -> "SlopeRegion":
    """Find two lines bracketing the optimal one (the paper's figure 18).

    Each processor is probed at the even allocation ``n/p``.  The first line
    passes through ``(n/p, max_i s_i(n/p))`` — it is the steeper of the two
    and yields a total allocation of at most ``n``; the second passes through
    ``(n/p, min_i s_i(n/p))`` and yields at least ``n``.

    Memory bounds can break the second guarantee (the intersections are
    clamped, so even a nearly flat line may not reach a total of ``n``).  In
    that case the shallow slope is decreased geometrically; if the problem
    does not fit in the combined memory of all processors at any slope,
    :class:`~repro.exceptions.InfeasiblePartitionError` is raised — at
    once, before any ray, for ``n`` above ``sum(floor(max_i))``.

    ``pack`` is the fleet evaluator (see
    :func:`repro.core.vectorized.pack_speed_functions`); it evaluates the
    probe speeds in one pass and walks the expansion ladder in batches
    (the ladder slopes are exact powers of two times the seed).  The
    per-object :class:`~repro.core.vectorized.ObjectSet` is used when it
    is omitted.

    Returns a :class:`SlopeRegion` with ``total(upper) <= n <= total(lower)``.
    """
    if pack is None:
        pack = ObjectSet(speed_functions)
    return _cold_brackets(pack, [n], max_expansions)[0][0]


def ensure_bracket(
    region: "SlopeRegion",
    n: int,
    speed_functions: Sequence[SpeedFunction],
    *,
    max_expansions: int = 200,
    pack: PiecewiseLinearSet | ObjectSet | None = None,
) -> tuple["SlopeRegion", int]:
    """Expand a stale region until it brackets the optimal line for ``n``.

    This is the primitive behind the solvers' ``region=``: a converged
    :class:`SlopeRegion` cached from a nearby problem size ``n0`` almost
    brackets the optimal slope for ``n`` (the optimal slope is monotone
    non-increasing in the problem size), so restoring the bisection
    invariant ``total(upper) <= n <= total(lower)`` takes a handful of
    geometric expansions — ``O(log(n/n0))`` total-allocation probes.

    ``pack`` is the fleet evaluator, as in :func:`initial_bracket`; the
    expansion ladder is batched (bit-identical slopes — exact powers of
    two off the cached bounds).

    Returns ``(region, probes)`` where ``probes`` counts the
    total-allocation evaluations a sequential expansion would perform
    (each costs ``p`` ray-graph intersections); a region that already
    brackets ``n`` costs 2 probes.
    """
    if pack is None:
        pack = ObjectSet(speed_functions)
    _check_capacity(pack, n)
    repaired, steps = _expand_region(
        pack, region.upper, region.lower, n, max_expansions
    )
    return repaired, 2 + steps


def midpoint(upper: float, lower: float, mode: str = "tangent") -> float:
    """Slope of the line bisecting the region between two slopes.

    ``mode='angle'`` bisects the angle (the paper's definition:
    ``(theta1 + theta2) / 2``); ``mode='tangent'`` averages the tangent
    slopes, which the paper notes is the computationally efficient
    choice for practical implementations.  Either way the result lies
    in ``[lower, upper]``, which the active-set steps of
    :meth:`~repro.core.vectorized.PiecewiseLinearSet.rays` rely on.
    """
    if mode == "tangent":
        return 0.5 * (upper + lower)
    if mode == "angle":
        mid = math.tan(0.5 * (math.atan(upper) + math.atan(lower)))
        # Rounding can push the angle bisector of a very narrow region
        # just outside it; the tangent midpoint always lies inside.
        if lower <= mid <= upper:
            return mid
        return 0.5 * (upper + lower)
    raise ConfigurationError(f"unknown bisection mode {mode!r}")


@dataclass
class SlopeRegion:
    """The angular region between two candidate lines through the origin.

    Attributes
    ----------
    upper:
        Tangent slope of the steeper line; its total allocation is <= n.
    lower:
        Tangent slope of the shallower line; its total allocation is >= n.
    """

    upper: float
    lower: float

    def __post_init__(self) -> None:
        if not (self.upper > 0 and self.lower > 0):
            raise ValueError(
                f"slopes must be positive (upper={self.upper!r}, lower={self.lower!r})"
            )
        if self.upper < self.lower:
            raise ValueError(
                f"upper slope {self.upper!r} must be >= lower slope {self.lower!r}"
            )

    def midpoint(self, mode: str = "tangent") -> float:
        """Slope of the line bisecting this region (see :func:`midpoint`)."""
        return midpoint(self.upper, self.lower, mode)

    def width(self) -> float:
        """Tangent-slope width of the region."""
        return self.upper - self.lower

    def replace_upper(self, slope: float) -> "SlopeRegion":
        """New region with the steeper bound moved down to ``slope``."""
        return SlopeRegion(upper=slope, lower=self.lower)

    def replace_lower(self, slope: float) -> "SlopeRegion":
        """New region with the shallower bound moved up to ``slope``."""
        return SlopeRegion(upper=self.upper, lower=slope)
