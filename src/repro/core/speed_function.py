"""Speed functions: the functional performance model of a processor.

The paper's central idea is to represent the speed of a processor not by a
single positive number but by a *continuous and relatively smooth function of
the problem size* ``s = f(x)``, where the problem size ``x`` is the amount of
data stored and processed by the algorithm (e.g. ``3 * n**2`` elements for a
dense ``n x n`` matrix multiplication).

The geometric partitioning algorithms of section 2 require one structural
property of every speed graph: **any straight line through the origin must
intersect the graph in exactly one point**.  This is equivalent to the ray
slope

.. math::  g(x) = s(x) / x

being strictly decreasing on the domain.  All concrete speed functions in
this module maintain (and can validate) that invariant.

Three concrete representations are provided:

:class:`ConstantSpeedFunction`
    The classical single-number model used by every baseline in the paper.

:class:`PiecewiseLinearSpeedFunction`
    The representation produced by the model-building procedure of
    section 3.1 (piecewise linear approximation through experimentally
    obtained points).  This is the workhorse of the library.

:class:`AnalyticSpeedFunction`
    A thin adapter around an arbitrary callable, used mostly by the
    synthetic machine models in :mod:`repro.machines`.

Units
-----
Speed is expressed in *elements per second*: the number of set elements the
processor retires per second when it has been assigned ``x`` elements.  The
execution time of an allocation is therefore ``t(x) = x / s(x)``.  Helpers
for converting to/from MFlops for specific kernels live in
:mod:`repro.kernels.flops`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from ..exceptions import InvalidSpeedFunctionError

__all__ = [
    "KnotRow",
    "SpeedFunction",
    "ConstantSpeedFunction",
    "PiecewiseLinearSpeedFunction",
    "AnalyticSpeedFunction",
    "validate_speed_functions",
]


@dataclass(frozen=True)
class KnotRow:
    """Lowered form of one speed function for the vectorised pack.

    The compilation protocol (:meth:`SpeedFunction.as_knots`) reduces every
    model to a piecewise-linear *compute* curve through ``(sizes, speeds)``
    knots plus three orthogonal decorations the pack evaluates on top:

    * ``scale`` — speeds multiplied by a constant.  Queried rays divide
      their slope by it instead of touching the knot arrays, which is what
      makes ``O(p)`` fleet rescaling possible.
    * ``alpha`` / ``beta`` — a per-run start-up latency and per-element
      transfer cost baked into the *effective* speed ``x / t(x)`` with
      ``t(x) = x/s(x) + alpha + beta*x`` (the comm-aware model).
    * ``x_cap`` / ``s_cap`` — a truncation of the domain at ``x_cap``
      (strictly below the last knot), with ``s_cap`` the compute speed
      there; ray intersections clamp to the cap and speeds freeze at it.

    ``drops`` marks segments that represent a vertical speed drop of a
    step model (the right knot sits one ulp past the left one); the pack
    zeroes their line parameters so a ray crossing the drop lands exactly
    on its left boundary.

    ``exact`` declares that the pack's evaluation of this row is
    bit-identical to the object's own ``speed``/``intersect_ray``/``time``;
    rows with communication terms (closed-form segment solve versus the
    object's bisection) or folded nested scalings are only identical to
    within the verifier's 1e-9 class.
    """

    sizes: np.ndarray
    speeds: np.ndarray
    drops: np.ndarray | None = None
    alpha: float = 0.0
    beta: float = 0.0
    scale: float = 1.0
    x_cap: float | None = None
    s_cap: float | None = None
    exact: bool = True

    @property
    def num_knots(self) -> int:
        return int(self.sizes.size)

#: Relative tolerance used when validating the strict decrease of ``g``.
_G_MONOTONE_RTOL = 1e-12


class SpeedFunction(ABC):
    """Abstract speed-versus-problem-size function of one processor.

    Subclasses must provide :meth:`speed` and :meth:`intersect_ray` and a
    :attr:`max_size`.  Everything else (execution time, ray slope ``g``) is
    derived.
    """

    #: Largest problem size the processor can hold (the memory bound ``b_i``
    #: of the general partitioning problem).  ``math.inf`` when unbounded.
    max_size: float = math.inf

    # ------------------------------------------------------------------
    # Primitive interface
    # ------------------------------------------------------------------
    @abstractmethod
    def speed(self, x):
        """Processor speed (elements/second) at problem size ``x``.

        Accepts scalars or NumPy arrays and is vectorised.  ``x`` values
        beyond :attr:`max_size` are clamped to the boundary speed; callers
        that care about the bound should consult :meth:`time`, which returns
        ``inf`` beyond the bound.
        """

    @abstractmethod
    def intersect_ray(self, slope: float) -> float:
        """Size coordinate of the intersection with the ray ``y = slope*x``.

        Returns the unique ``x > 0`` with ``s(x) = slope * x``, i.e. the
        point of the speed graph lying on the straight line through the
        origin with the given (tangent) slope.  If the ray passes below the
        end of the graph (``slope < g(max_size)``) the result is clamped to
        :attr:`max_size`, which is exactly how the memory bound of the
        general problem manifests geometrically.

        ``slope`` must be strictly positive.
        """

    # ------------------------------------------------------------------
    # Derived interface
    # ------------------------------------------------------------------
    def time(self, x):
        """Execution time of an ``x``-element task: ``x / s(x)``.

        Vectorised.  ``time(0) == 0`` and ``time(x) == inf`` for ``x``
        beyond :attr:`max_size` (the task does not fit at all).
        """
        x_arr = np.asarray(x, dtype=float)
        s = np.asarray(self.speed(np.minimum(x_arr, self.max_size)), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(x_arr > 0, x_arr / s, 0.0)
        t = np.where(x_arr > self.max_size, math.inf, t)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(t)
        return t

    def g(self, x):
        """Ray slope ``g(x) = s(x)/x`` — strictly decreasing by assumption.

        ``g`` is the reciprocal of the per-element execution time; the
        optimal allocation corresponds to all processors operating at the
        same ``g`` value (one straight line through the origin).
        """
        x_arr = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(x_arr > 0, self.speed(x_arr) / x_arr, math.inf)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

    def scaled(self, factor: float) -> "SpeedFunction":
        """Return a copy of this function with speeds multiplied by ``factor``.

        Scaling speeds by a positive constant preserves the
        single-intersection invariant, so the result is always valid.
        """
        if factor <= 0:
            raise InvalidSpeedFunctionError(
                f"scale factor must be positive, got {factor!r}"
            )
        return _ScaledSpeedFunction(self, factor)

    # ------------------------------------------------------------------
    # Compilation protocol
    # ------------------------------------------------------------------
    def as_knots(self) -> KnotRow | None:
        """Lower this model to a :class:`KnotRow` for the vectorised pack.

        Returns ``None`` when the model cannot be compiled (the default:
        opaque analytic callables and unknown subclasses), in which case
        :func:`~repro.core.vectorized.pack_speed_functions` returns the
        per-object :class:`~repro.core.vectorized.ObjectSet` evaluator and
        records the blocking class on the ``core.pack.fallback`` counter.
        """
        return None

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def check_single_intersection(self, sizes: Iterable[float]) -> None:
        """Verify that ``g`` is strictly decreasing on the given sample sizes.

        Raises :class:`InvalidSpeedFunctionError` on violation.  Concrete
        classes with exact structure (piecewise linear) override this with
        an exact check; this generic version samples.
        """
        xs = np.asarray(sorted(set(float(s) for s in sizes)), dtype=float)
        xs = xs[(xs > 0) & (xs <= self.max_size)]
        if xs.size < 2:
            return
        gs = self.g(xs)
        bad = np.nonzero(np.diff(gs) >= -_G_MONOTONE_RTOL * np.abs(gs[:-1]))[0]
        if bad.size:
            k = int(bad[0])
            raise InvalidSpeedFunctionError(
                "g(x)=s(x)/x is not strictly decreasing between "
                f"x={xs[k]:g} (g={gs[k]:g}) and x={xs[k + 1]:g} (g={gs[k + 1]:g})"
            )


class _ScaledSpeedFunction(SpeedFunction):
    """A speed function multiplied by a positive constant (internal)."""

    def __init__(self, base: SpeedFunction, factor: float):
        self._base = base
        self._factor = float(factor)
        self.max_size = base.max_size

    def speed(self, x):
        return self._factor * np.asarray(self._base.speed(x), dtype=float)

    def intersect_ray(self, slope: float) -> float:
        # s_scaled(x) = f * s(x); f*s(x) = c*x  <=>  s(x) = (c/f)*x.
        return self._base.intersect_ray(slope / self._factor)

    def as_knots(self) -> KnotRow | None:
        row = self._base.as_knots()
        if row is None:
            return None
        # Nested scalings fold into one product; the per-object path
        # divides the query slope twice, so folding is only ulp-equal.
        return replace(
            row,
            scale=row.scale * self._factor,
            exact=row.exact and row.scale == 1.0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self._base!r}.scaled({self._factor:g})"


class ConstantSpeedFunction(SpeedFunction):
    """The single-number performance model: ``s(x) = s0`` for every size.

    This is the model used by every prior work the paper compares against
    (normalised processor speed, normalised cycle time, etc.).  ``g(x) =
    s0/x`` is strictly decreasing, so the constant model is a valid — if
    inaccurate — member of the functional family, and the geometric
    algorithms reduce to the classical proportional partitioning when every
    processor uses it.
    """

    def __init__(self, speed: float, max_size: float = math.inf):
        if not (speed > 0) or not math.isfinite(speed):
            raise InvalidSpeedFunctionError(
                f"constant speed must be a positive finite number, got {speed!r}"
            )
        if not (max_size > 0):
            raise InvalidSpeedFunctionError(
                f"max_size must be positive, got {max_size!r}"
            )
        self._speed = float(speed)
        self.max_size = float(max_size)

    @property
    def value(self) -> float:
        """The single speed number."""
        return self._speed

    def speed(self, x):
        x_arr = np.asarray(x, dtype=float)
        out = np.full_like(x_arr, self._speed, dtype=float)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

    def intersect_ray(self, slope: float) -> float:
        if slope <= 0:
            raise ValueError(f"ray slope must be positive, got {slope!r}")
        return min(self._speed / slope, self.max_size)

    def as_knots(self) -> KnotRow:
        # A flat two-knot segment: rays steeper than the first knot use the
        # constant extension s0/c, shallower ones clip to [x0, max_size] —
        # together reproducing ``min(s0/c, max_size)`` exactly.  The first
        # knot sits at max_size/2 (or 1.0 when unbounded) purely to give the
        # segment positive width.
        hi = self.max_size
        lo = 1.0 if math.isinf(hi) else hi * 0.5
        return KnotRow(
            sizes=np.array([lo, hi]),
            speeds=np.array([self._speed, self._speed]),
        )

    def __repr__(self) -> str:
        if math.isinf(self.max_size):
            return f"ConstantSpeedFunction({self._speed:g})"
        return f"ConstantSpeedFunction({self._speed:g}, max_size={self.max_size:g})"


class PiecewiseLinearSpeedFunction(SpeedFunction):
    """Piecewise-linear speed function through knots ``(x_k, s_k)``.

    This is the representation built by the experimental procedure of
    section 3.1 (figure 14 / figure 20): a handful of benchmarked points
    joined by straight segments.

    Behaviour outside the knot range:

    * below the first knot ``x_0`` the speed is extended as the constant
      ``s_0`` — the paper benchmarks ``x_0 = a`` as the problem that fits in
      the highest cache level, and smaller problems run at essentially the
      same speed.  The extension keeps ``g`` strictly decreasing down to 0.
    * above the last knot ``x_m`` the function is undefined; ``x_m`` acts as
      the processor's memory bound (:attr:`max_size`).  The paper chooses
      ``b = x_m`` so large that the speed is "practically equal to zero".

    Validity requirements (checked at construction unless ``validate=False``):

    * knot sizes strictly increasing and positive;
    * speeds positive except that the *last* knot may have speed zero (the
      paper pins ``s(b) = 0``);
    * every segment, extended to ``x = 0``, has a non-negative intercept
      (i.e. the speed grows sublinearly), and the ray slope ``g`` strictly
      decreases from knot to knot.  Together these guarantee the
      single-intersection property for every ray through the origin.
    """

    def __init__(
        self,
        sizes: Sequence[float],
        speeds: Sequence[float],
        *,
        validate: bool = True,
    ):
        xs = np.asarray(sizes, dtype=float)
        ss = np.asarray(speeds, dtype=float)
        if xs.ndim != 1 or ss.ndim != 1 or xs.size != ss.size:
            raise InvalidSpeedFunctionError(
                "sizes and speeds must be 1-D sequences of equal length"
            )
        if xs.size < 1:
            raise InvalidSpeedFunctionError("at least one knot is required")
        if validate:
            self._validate_knots(xs, ss)
        self._xs = xs
        self._ss = ss
        self.max_size = float(xs[-1])
        # Ray slope at each knot, used to binary-search ray intersections.
        with np.errstate(divide="ignore"):
            self._gs = ss / xs
        # Cached negation: np.searchsorted needs ascending order and the
        # per-call negation would dominate the partitioner's running time.
        self._neg_gs = -self._gs

    # -- construction helpers -----------------------------------------
    @classmethod
    def from_points(
        cls, points: Iterable[tuple[float, float]], **kwargs
    ) -> "PiecewiseLinearSpeedFunction":
        """Build from an iterable of ``(size, speed)`` pairs (sorted by size)."""
        pts = sorted((float(a), float(b)) for a, b in points)
        if not pts:
            raise InvalidSpeedFunctionError("at least one point is required")
        xs, ss = zip(*pts)
        return cls(xs, ss, **kwargs)

    @staticmethod
    def _validate_knots(xs: np.ndarray, ss: np.ndarray) -> None:
        if np.any(xs <= 0):
            raise InvalidSpeedFunctionError("knot sizes must be positive")
        if np.any(np.diff(xs) <= 0):
            raise InvalidSpeedFunctionError("knot sizes must be strictly increasing")
        if np.any(ss[:-1] <= 0) or ss[-1] < 0:
            raise InvalidSpeedFunctionError(
                "knot speeds must be positive (the last knot may be zero)"
            )
        if xs.size == 1:
            return
        g = ss / xs
        if np.any(np.diff(g) >= 0):
            k = int(np.nonzero(np.diff(g) >= 0)[0][0])
            raise InvalidSpeedFunctionError(
                "ray slope g(x)=s(x)/x must strictly decrease across knots; "
                f"violated between x={xs[k]:g} and x={xs[k + 1]:g} "
                f"(g: {g[k]:g} -> {g[k + 1]:g}). A straight line through the "
                "origin would cross the graph more than once."
            )
        # Segment intercepts: s(x) = a + b*x with a >= 0 guarantees that g is
        # non-increasing *within* each segment as well.
        slopes = np.diff(ss) / np.diff(xs)
        intercepts = ss[:-1] - slopes * xs[:-1]
        if np.any(intercepts < -1e-9 * np.maximum(ss[:-1], 1.0)):
            k = int(np.nonzero(intercepts < -1e-9 * np.maximum(ss[:-1], 1.0))[0][0])
            raise InvalidSpeedFunctionError(
                f"segment [{xs[k]:g}, {xs[k + 1]:g}] extended to x=0 has a "
                f"negative intercept ({intercepts[k]:g}); the speed would grow "
                "superlinearly and a ray could cross the graph twice."
            )

    # -- accessors ------------------------------------------------------
    @property
    def knot_sizes(self) -> np.ndarray:
        """Knot size coordinates (read-only view)."""
        v = self._xs.view()
        v.flags.writeable = False
        return v

    @property
    def knot_speeds(self) -> np.ndarray:
        """Knot speed coordinates (read-only view)."""
        v = self._ss.view()
        v.flags.writeable = False
        return v

    @property
    def num_knots(self) -> int:
        """Number of knots (experimentally obtained points)."""
        return int(self._xs.size)

    # -- SpeedFunction interface ----------------------------------------
    def speed(self, x):
        x_arr = np.asarray(x, dtype=float)
        out = np.interp(x_arr, self._xs, self._ss)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

    def intersect_ray(self, slope: float) -> float:
        if slope <= 0:
            raise ValueError(f"ray slope must be positive, got {slope!r}")
        xs, ss, gs = self._xs, self._ss, self._gs
        # Region below the first knot: constant extension s(x) = s_0, so the
        # intersection with y = slope*x is x = s_0/slope.
        if slope >= gs[0]:
            return float(ss[0] / slope)
        # Ray passes below the end of the graph: clamp to the memory bound.
        if slope <= gs[-1]:
            return float(xs[-1])
        # Binary search for the segment with g(x_k) >= slope >= g(x_{k+1}).
        # self._gs is strictly decreasing, so search on the reversed array.
        k = int(np.searchsorted(self._neg_gs, -slope, side="right")) - 1
        k = max(0, min(k, xs.size - 2))
        x0, x1 = xs[k], xs[k + 1]
        s0, s1 = ss[k], ss[k + 1]
        seg_slope = (s1 - s0) / (x1 - x0)
        intercept = s0 - seg_slope * x0
        denom = slope - seg_slope
        if denom <= 0:
            # Degenerate segment with g constant (intercept == 0): the whole
            # segment lies on the ray; return its right endpoint for a
            # consistent "largest x with g(x) >= slope" semantics.
            return float(x1)
        x = intercept / denom
        return float(min(max(x, x0), x1))

    def check_single_intersection(self, sizes: Iterable[float] = ()) -> None:
        """Exact validation using the knot structure (``sizes`` ignored)."""
        self._validate_knots(self._xs, self._ss)

    def as_knots(self) -> KnotRow:
        return KnotRow(sizes=self._xs, speeds=self._ss)

    def __repr__(self) -> str:
        return (
            f"PiecewiseLinearSpeedFunction({self.num_knots} knots, "
            f"x in [{self._xs[0]:g}, {self._xs[-1]:g}], "
            f"s in [{self._ss.min():g}, {self._ss.max():g}])"
        )


class AnalyticSpeedFunction(SpeedFunction):
    """Speed function defined by an arbitrary callable ``s(x)``.

    Used by the synthetic machine models.  Ray intersections are found by
    bisection on ``h(x) = s(x) - slope*x``, which is valid because the
    single-intersection assumption makes ``g`` monotone.

    Parameters
    ----------
    func:
        Vectorised callable returning the speed at problem size ``x``.
        Must be positive on ``(0, max_size)``.
    max_size:
        Memory bound; must be finite so bisection has a bracket.
    validate_sizes:
        Optional sample grid on which the ``g``-monotonicity is checked at
        construction time.
    """

    def __init__(
        self,
        func: Callable[[np.ndarray], np.ndarray],
        max_size: float,
        *,
        validate_sizes: Iterable[float] | None = None,
    ):
        if not (max_size > 0) or not math.isfinite(max_size):
            raise InvalidSpeedFunctionError(
                f"max_size must be a positive finite number, got {max_size!r}"
            )
        self._func = func
        self.max_size = float(max_size)
        if validate_sizes is not None:
            self.check_single_intersection(validate_sizes)

    def speed(self, x):
        x_arr = np.minimum(np.asarray(x, dtype=float), self.max_size)
        out = np.asarray(self._func(x_arr), dtype=float)
        if np.isscalar(x) or np.ndim(x) == 0:
            return float(out)
        return out

    def intersect_ray(self, slope: float) -> float:
        if slope <= 0:
            raise ValueError(f"ray slope must be positive, got {slope!r}")
        hi = self.max_size
        if self.g(hi) >= slope:
            return float(hi)
        # Find a positive lower bracket where g(lo) >= slope.  g(x) -> s/x
        # grows without bound as x -> 0 provided s stays bounded away from 0
        # near the origin, so geometric shrinking terminates.
        lo = hi
        for _ in range(200):
            lo *= 0.5
            if self.g(lo) >= slope:
                break
        else:  # pragma: no cover - pathological function
            raise InvalidSpeedFunctionError(
                "could not bracket the ray intersection; speed function "
                "appears to vanish near the origin"
            )
        # Bisection on the monotone g.  Return the inner endpoint: it keeps
        # g(lo) >= slope by construction (sup semantics), while the midpoint
        # can overshoot by half the final bracket width.
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.g(mid) >= slope:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * max(1.0, hi):
                break
        return float(lo)

    def tabulate(self, sizes: Sequence[float]) -> PiecewiseLinearSpeedFunction:
        """Sample this function into a piecewise-linear approximation."""
        xs = np.asarray(sorted(float(s) for s in sizes), dtype=float)
        return PiecewiseLinearSpeedFunction(xs, self.speed(xs))


def validate_speed_functions(
    speed_functions: Sequence[SpeedFunction], *, sample_sizes: Iterable[float] = ()
) -> None:
    """Validate a collection of speed functions for use in partitioning.

    Checks that the sequence is non-empty and that each member satisfies the
    single-intersection invariant (exactly for piecewise-linear functions,
    on ``sample_sizes`` otherwise).
    """
    if len(speed_functions) == 0:
        raise InvalidSpeedFunctionError("at least one speed function is required")
    for i, sf in enumerate(speed_functions):
        if not isinstance(sf, SpeedFunction):
            raise InvalidSpeedFunctionError(
                f"speed_functions[{i}] is not a SpeedFunction: {sf!r}"
            )
        sf.check_single_intersection(sample_sizes)
