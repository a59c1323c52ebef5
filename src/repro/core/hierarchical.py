"""Hierarchical partitioning: networks of networks of heterogeneous computers.

Global HNOCs are naturally two-level — sites (labs, clusters) connected by
a wide-area network, heterogeneous machines inside each site.  The
functional model composes beautifully across such levels:

    give a *group* of processors ``x`` elements and split them optimally
    inside the group; the group's makespan ``T_G(x)`` is strictly
    increasing, so the **composite speed function** ``s_G(x) = x / T_G(x)``
    has strictly decreasing ``g(x) = 1/T_G(x)`` — it is itself a valid
    member of the functional family.

:func:`group_speed_function` materialises that composite (the optimal
within-group slope at each sampled size is found directly on the slope
axis — no integer work), and :func:`partition_hierarchical` runs the
two-level scheme: partition across the composites, then within each group.
The test-suite confirms the two-level result matches the flat partition of
all processors at once — optimal substructure made executable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import InfeasiblePartitionError
from .options import reject_unknown_options
from .partition import partition
from .result import PartitionResult
from .speed_function import PiecewiseLinearSpeedFunction, SpeedFunction
from .vectorized import ObjectSet, PiecewiseLinearSet, pack_speed_functions

__all__ = ["group_speed_function", "HierarchicalResult", "partition_hierarchical"]


def _optimal_slope(
    members: Sequence[SpeedFunction],
    x: float,
    pack: PiecewiseLinearSet | ObjectSet,
    *,
    iterations: int = 120,
) -> float:
    """Slope of the group's optimal line for a (continuous) total of ``x``.

    Solves ``sum(pack.allocations(c)) = x`` by bisection; ``1/c`` is the
    group's optimal makespan for ``x`` elements.
    """
    def total(c: float) -> float:
        return float(pack.allocations(c).sum())

    capacity = sum(sf.max_size for sf in members)
    if x >= capacity:
        raise InfeasiblePartitionError(
            f"group capacity {capacity:g} cannot hold {x:g} elements"
        )
    # Bracket: a steep slope under-allocates, a shallow one reaches x.
    hi = max(float(sf.g(min(1.0, sf.max_size))) for sf in members)
    lo = hi
    for _ in range(200):
        if total(lo) >= x:
            break
        lo *= 0.5
    else:  # pragma: no cover - capacity check above prevents this
        raise InfeasiblePartitionError("could not bracket the group slope")
    for _ in range(iterations):
        mid = 0.5 * (hi + lo)
        if total(mid) >= x:
            lo = mid
        else:
            hi = mid
    return 0.5 * (hi + lo)


def group_speed_function(
    members: Sequence[SpeedFunction],
    *,
    num: int = 96,
    min_fraction: float = 1e-6,
) -> PiecewiseLinearSpeedFunction:
    """Composite speed function of a processor group.

    Samples ``s_G(x) = x * c*(x)`` (with ``c*`` the optimal within-group
    slope) on a logarithmic grid up to just below the group capacity and
    returns the piecewise-linear composite.  ``g(x) = c*(x)`` is
    decreasing by construction, so the result always validates.
    """
    if len(members) == 0:
        raise InfeasiblePartitionError("a group needs at least one member")
    capacity = float(sum(sf.max_size for sf in members))
    if not np.isfinite(capacity):
        raise InfeasiblePartitionError(
            "composite groups require finite member memory bounds"
        )
    if num < 2:
        raise InfeasiblePartitionError(f"num must be >= 2, got {num}")
    xs = np.geomspace(max(capacity * min_fraction, 1.0), capacity * (1 - 1e-9), num)
    pack = pack_speed_functions(members)
    speeds = np.array([x * _optimal_slope(members, float(x), pack) for x in xs])
    return PiecewiseLinearSpeedFunction(xs, speeds)


@dataclass
class HierarchicalResult:
    """Outcome of a two-level partition.

    Attributes
    ----------
    group_totals:
        Elements assigned to each group (sums to ``n``).
    allocations:
        Per-group integer allocations over that group's members.
    makespan:
        ``max`` over all processors of their execution time.
    """

    group_totals: np.ndarray
    allocations: list[np.ndarray]
    makespan: float

    def flat_allocation(self) -> np.ndarray:
        """All member allocations concatenated in group order."""
        if not self.allocations:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(self.allocations)


def partition_hierarchical(
    n: int,
    groups: Sequence[Sequence[SpeedFunction]],
    *,
    algorithm: str = "combined",
    samples_per_group: int = 96,
    **extra,
) -> HierarchicalResult:
    """Two-level partition: across groups, then within each group.

    Parameters
    ----------
    n:
        Total number of elements.
    groups:
        One sequence of member speed functions per site/cluster.
    algorithm:
        Partitioning algorithm used at both levels.
    samples_per_group:
        Sampling resolution of each composite function.
    """
    reject_unknown_options("hierarchical", extra)
    if not groups:
        raise InfeasiblePartitionError("at least one group is required")
    composites = [
        group_speed_function(g, num=samples_per_group) for g in groups
    ]
    top: PartitionResult = partition(n, composites, algorithm=algorithm)
    allocations: list[np.ndarray] = []
    worst = 0.0
    for members, total in zip(groups, top.allocation):
        if total == 0:
            allocations.append(np.zeros(len(members), dtype=np.int64))
            continue
        inner = partition(int(total), members, algorithm=algorithm)
        allocations.append(inner.allocation)
        worst = max(worst, inner.makespan)
    return HierarchicalResult(
        group_totals=top.allocation,
        allocations=allocations,
        makespan=worst,
    )
