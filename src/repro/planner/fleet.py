"""Fleet: a pack-once, share-everywhere view of a set of processors.

The one-shot algorithms in :mod:`repro.core` accept a plain sequence of
speed functions and (re)build their vectorised representation on every
call.  That is the right interface for a single partitioning problem, but
the planner answers *many* queries over a fleet whose composition changes
rarely; :class:`Fleet` front-loads everything that depends only on the
fleet:

* the fleet evaluator — the padded-array
  :class:`~repro.core.vectorized.PiecewiseLinearSet` when every member
  compiles, the per-object :class:`~repro.core.vectorized.ObjectSet`
  otherwise — built exactly once and shared by every query;
* a stable **content fingerprint** — the evaluator's hash of the knot
  arrays — used to key plan caches, so two fleets with identical models
  share cached plans even across reconstructions;
* the combined memory capacity ``sum(max_i)``.

A :class:`Fleet` is immutable: model updates (an
:class:`repro.model.OnlineBandRefitter` refit, or a
:class:`repro.adapt.DriftDetector` correction applied through
:meth:`Fleet.rescaled`) are expressed by building a new fleet, which
naturally gets a new fingerprint and therefore a disjoint cache key space.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Sequence

import numpy as np

from ..core.speed_function import SpeedFunction
from ..core.vectorized import ObjectSet, PiecewiseLinearSet, pack_speed_functions
from ..exceptions import InvalidSpeedFunctionError

__all__ = ["Fleet"]


class Fleet:
    """An immutable set of processors packed once for repeated queries.

    Parameters
    ----------
    speed_functions:
        One :class:`~repro.core.speed_function.SpeedFunction` per
        processor.  The fleet evaluator is built here, once, and reused
        by every partition call made through the planner.
    name:
        Optional human-readable label (shown in CLI output).
    pack:
        Optional precompiled
        :class:`~repro.core.vectorized.PiecewiseLinearSet` for exactly
        these functions, skipping the ``O(p*m)`` repack.  The online
        refitter passes one from
        :meth:`~repro.core.vectorized.PiecewiseLinearSet.with_rows`,
        which re-lowers only the re-fitted machines.  The caller is
        responsible for the pack matching ``speed_functions`` knot for
        knot; only the processor count is checked here.
    """

    __slots__ = ("_sfs", "_pack", "_fingerprint", "_capacity", "_name")

    def __init__(
        self,
        speed_functions: Sequence[SpeedFunction],
        *,
        name: str | None = None,
        pack: PiecewiseLinearSet | None = None,
    ):
        sfs = tuple(speed_functions)
        if not sfs:
            raise InvalidSpeedFunctionError(
                "a fleet needs at least one speed function"
            )
        # One subclass check per distinct type: a p=1080 fleet has a few.
        if not all(issubclass(t, SpeedFunction) for t in set(map(type, sfs))):
            for i, sf in enumerate(sfs):
                if not isinstance(sf, SpeedFunction):
                    raise InvalidSpeedFunctionError(
                        f"speed_functions[{i}] is not a SpeedFunction: {sf!r}"
                    )
        if pack is not None and pack.p != len(sfs):
            raise InvalidSpeedFunctionError(
                f"pack covers {pack.p} processors, fleet has {len(sfs)}"
            )
        self._sfs = sfs
        self._pack = pack if pack is not None else pack_speed_functions(sfs)
        self._capacity = float(sum(map(attrgetter("max_size"), sfs)))
        self._name = name
        self._fingerprint = self._pack.fingerprint

    # -- accessors ------------------------------------------------------
    @property
    def speed_functions(self) -> tuple[SpeedFunction, ...]:
        """The member speed functions, in processor order."""
        return self._sfs

    @property
    def pack(self) -> PiecewiseLinearSet | ObjectSet:
        """The shared evaluator: compiled pack, or per-object when opaque."""
        return self._pack

    @property
    def fingerprint(self) -> str:
        """Stable content hash identifying this fleet in plan-cache keys."""
        return self._fingerprint

    @property
    def p(self) -> int:
        """Number of processors."""
        return len(self._sfs)

    @property
    def capacity(self) -> float:
        """Combined memory bound ``sum(max_i)``; ``pack.max_total`` is the
        largest feasible problem size, ``min(sum(floor(max_i)), 2**53)``."""
        return self._capacity

    @property
    def name(self) -> str:
        return self._name or f"fleet-p{self.p}"

    def rescaled(self, factors: Sequence[float]) -> "Fleet":
        """A fleet with member speeds multiplied by per-processor ``factors``.

        This is the drift-correction primitive: ``adapt``'s EWMA updates
        produce one positive factor per processor, and the rescaled fleet
        must be cheap because it is rebuilt on every correction.  For a
        packed fleet the shared arrays are reused through
        :meth:`~repro.core.vectorized.PiecewiseLinearSet.rescaled` — an
        ``O(p)`` scale-vector clone, not an ``O(p*m)`` repack — and the
        members become lazy ``scaled()`` wrappers over the originals.
        Falls back to a full :class:`Fleet` construction when the evaluator
        is per-object or carries comm rows (whose scale cannot change in
        place).
        """
        f = np.asarray(factors, dtype=float)
        if f.shape != (self.p,):
            raise InvalidSpeedFunctionError(
                f"factors must have shape ({self.p},), got {f.shape}"
            )
        if np.any(f <= 0):
            raise InvalidSpeedFunctionError("scale factors must be positive")
        sfs = tuple(
            sf if fi == 1.0 else sf.scaled(float(fi))
            for sf, fi in zip(self._sfs, f)
        )
        try:
            pack = self._pack.rescaled(f)
        except ValueError:  # per-object or comm rows: rebuild
            return Fleet(sfs, name=self._name)
        fleet = object.__new__(Fleet)
        fleet._sfs = sfs
        fleet._pack = pack
        fleet._capacity = self._capacity  # scaling speeds keeps max sizes
        fleet._name = self._name
        fleet._fingerprint = pack.fingerprint
        return fleet

    def __len__(self) -> int:
        return len(self._sfs)

    def __repr__(self) -> str:
        kind = "packed" if isinstance(self._pack, PiecewiseLinearSet) else "generic"
        return (
            f"Fleet({self.name}, p={self.p}, {kind}, "
            f"fingerprint={self._fingerprint[:8]}...)"
        )

    # -- evaluation helpers ---------------------------------------------
    def allocations(self, slope: float) -> np.ndarray:
        """Ray intersections of ``y = slope*x`` with every member graph."""
        return self._pack.allocations(slope)

    def total(self, slope: float) -> float:
        """Total allocation of the ray with the given slope."""
        return float(self.allocations(slope).sum())
