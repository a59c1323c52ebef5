"""Result type shared by all partitioning algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .geometry import SlopeRegion

__all__ = ["PartitionResult"]


@dataclass
class PartitionResult:
    """Outcome of a set-partitioning algorithm.

    Attributes
    ----------
    allocation:
        Integer number of elements assigned to each processor; sums to the
        requested problem size ``n``.
    makespan:
        Parallel execution time of the allocation under the model,
        ``max_i x_i / s_i(x_i)`` (seconds).
    algorithm:
        Name of the algorithm that produced the result (``"constant"``,
        ``"bisection"``, ``"modified"``, ``"combined"``, ``"exact"``, ...).
    iterations:
        Number of bisection (or equivalent) steps performed.
    intersections:
        Number of ray-graph intersection evaluations — the dominant cost
        unit of the geometric algorithms (each step costs ``O(p)`` of
        these, per the paper's complexity accounting).
    slope:
        Tangent slope of the final line through the origin, when the
        algorithm is line-based; ``None`` otherwise.
    trace:
        Optional per-iteration record of ``(slope, total allocation)``
        pairs, populated when the algorithm is run with ``keep_trace=True``.
        Used by the ablation benchmarks to reproduce the behaviour shown in
        figures 8, 10 and 11 of the paper.
    region:
        Final converged :class:`~repro.core.geometry.SlopeRegion` of the
        line-based algorithms — the reusable bracket a later query for a
        nearby problem size can warm-start from (see
        :func:`~repro.core.geometry.ensure_bracket` and
        :mod:`repro.planner`); ``None`` for non-line-based algorithms.
    """

    allocation: np.ndarray
    makespan: float
    algorithm: str
    iterations: int = 0
    intersections: int = 0
    slope: float | None = None
    trace: list[tuple[float, float]] = field(default_factory=list)
    region: "SlopeRegion | None" = None

    @property
    def n(self) -> int:
        """Total number of elements distributed."""
        return int(self.allocation.sum())

    @property
    def p(self) -> int:
        """Number of processors."""
        return int(self.allocation.size)

    def __post_init__(self) -> None:
        self.allocation = np.asarray(self.allocation, dtype=np.int64)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.algorithm}: n={self.n} over p={self.p}, "
            f"makespan={self.makespan:.6g}s, iterations={self.iterations}, "
            f"intersections={self.intersections}"
        )
