"""Geometric traces reproducing the paper's illustrative figures (3-15).

Figures 3-15 are not evaluation results but constructions the algorithms
are built on.  This module regenerates their *data*, so the bench can both
print them and assert the claimed invariants:

* figure 4/6 — the optimal line: all ``(x_i, s_i(x_i))`` points of a
  solution lie on one ray through the origin, and perturbed solutions take
  longer (:func:`optimal_line_demo`);
* figure 8/11 — the bisection narrowing: the per-step ``(slope, total)``
  sequence with totals straddling ``n`` (:func:`bisection_trace`);
* figure 18 — the two initial lines (inside :func:`bisection_trace`);
* figure 13/15 — where basic and modified spend their steps on benign vs
  flat-tailed shapes (:func:`algorithm_step_comparison`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.bisection import partition_bisection
from ..core.geometry import initial_bracket
from ..core.modified import partition_modified
from ..core.refine import makespan
from ..core.speed_function import SpeedFunction
from ..core.vectorized import pack_speed_functions

__all__ = [
    "OptimalLineDemo",
    "BisectionTrace",
    "optimal_line_demo",
    "bisection_trace",
    "algorithm_step_comparison",
]


@dataclass
class OptimalLineDemo:
    """Figure 4/6 data: the optimal solution and a perturbed one.

    Attributes
    ----------
    allocation:
        The optimal integer allocation.
    point_slopes:
        ``s_i(x_i) / x_i`` for every processor with ``x_i > 0`` — all
        (nearly) equal: the points share one ray through the origin.
    optimal_makespan, perturbed_makespan:
        Execution times of the optimal and a mass-shifted allocation
        (figure 6's non-optimal line).
    """

    allocation: np.ndarray
    point_slopes: np.ndarray
    optimal_makespan: float
    perturbed_makespan: float


def optimal_line_demo(
    n: int, speed_functions: Sequence[SpeedFunction], *, shift: int = 0
) -> OptimalLineDemo:
    """Construct the figure 4/6 demonstration for a processor set.

    ``shift`` moves that many elements from the most-loaded to the
    least-loaded processor (default: 5 % of the largest share) to produce
    the dotted non-optimal line of figure 6.
    """
    result = partition_bisection(n, speed_functions)
    alloc = result.allocation
    active = alloc > 0
    slopes = np.array(
        [
            float(sf.speed(float(x))) / float(x)
            for sf, x in zip(speed_functions, alloc)
            if x > 0
        ]
    )
    perturbed = alloc.copy()
    if np.count_nonzero(active) >= 2:
        hi = int(np.argmax(alloc))
        lo = int(np.argmin(np.where(active, alloc, np.iinfo(np.int64).max)))
        amount = shift if shift > 0 else max(int(alloc[hi] * 0.05), 1)
        amount = min(amount, int(alloc[hi]))
        perturbed[hi] -= amount
        perturbed[lo] += amount
    return OptimalLineDemo(
        allocation=alloc,
        point_slopes=slopes,
        optimal_makespan=makespan(speed_functions, alloc),
        perturbed_makespan=makespan(speed_functions, perturbed),
    )


@dataclass
class BisectionTrace:
    """Figure 8/18 data: initial lines plus every bisecting line."""

    n: int
    initial_upper: tuple[float, float]  # (slope, total allocation)
    initial_lower: tuple[float, float]
    steps: list[tuple[float, float]]  # (slope, total) per bisection

    @property
    def num_steps(self) -> int:
        return len(self.steps)


def bisection_trace(
    n: int, speed_functions: Sequence[SpeedFunction]
) -> BisectionTrace:
    """Record the basic bisection's line sequence for a problem."""
    pack = pack_speed_functions(speed_functions)
    region = initial_bracket(speed_functions, n, pack=pack)
    upper_total = float(pack.allocations(region.upper).sum())
    lower_total = float(pack.allocations(region.lower).sum())
    result = partition_bisection(n, speed_functions, keep_trace=True, pack=pack)
    return BisectionTrace(
        n=n,
        initial_upper=(region.upper, upper_total),
        initial_lower=(region.lower, lower_total),
        steps=result.trace,
    )


def algorithm_step_comparison(
    n: int, speed_functions: Sequence[SpeedFunction]
) -> dict[str, int]:
    """Steps taken by the basic vs modified algorithm (figure 13/15 story)."""
    basic = partition_bisection(n, speed_functions)
    modified = partition_modified(n, speed_functions)
    return {"bisection": basic.iterations, "modified": modified.iterations}
