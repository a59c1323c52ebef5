"""Fleet evaluators: vectorised ray intersections and the per-object adapter.

The partitioning algorithms spend essentially all their time intersecting
one ray with ``p`` speed graphs, ``O(log n)`` times, and evaluating the
finish times ``t_i(x_i)`` while fine-tuning.  Every algorithm runs against
one *evaluator* with a fixed surface — ``p``, ``max_sizes``, ``exact``,
``speculative_rows``, ``fingerprint``, ``allocations``, ``allocations_many``,
``speeds``, ``times``, ``time_one`` and ``rescaled`` — and this module
provides its two implementations:

:class:`PiecewiseLinearSet`
    packs the whole fleet into padded 2-D arrays and resolves a ray in a
    handful of NumPy operations (a fixed-depth branchless binary search
    over the knot slopes).  Every fleet whose members compile through the
    knot protocol below gets one.
:class:`ObjectSet`
    the same surface as a loop over the member objects.  It serves fleets
    that do not compile (raw analytic models, user subclasses,
    single-machine fleets) and is the explicit bit-identity reference the
    compiled pack is checked against (``ObjectSet(sfs)`` passed as
    ``pack=``).

:func:`pack_speed_functions` always returns an evaluator: the compiled
pack when it applies, an :class:`ObjectSet` otherwise.  Callers that answer
many queries over the same fleet — most notably :mod:`repro.planner` —
construct it once and hand it to every algorithm call through their
``pack=`` parameter.  The figure-21 cost benchmark exercises the compiled
path at ``p = 1080``.

Besides ray intersections the pack also evaluates per-processor speeds and
execution times for whole allocation vectors (:meth:`PiecewiseLinearSet.speeds`
/ :meth:`PiecewiseLinearSet.times`), bit-compatible with the per-object
``np.interp`` path, which lets the fine-tuning step batch its finish-time
evaluations.  :attr:`PiecewiseLinearSet.fingerprint` is a stable content
hash of the knot arrays used as a cache key by the planner.

Compilation protocol
--------------------
Every :class:`~repro.core.speed_function.SpeedFunction` may lower itself to
a :class:`~repro.core.speed_function.KnotRow` via ``as_knots()``: a
piecewise-linear *compute* curve plus three orthogonal decorations the
pack evaluates on top of the shared knot arrays —

``scale``
    speeds multiplied by a constant.  Queries divide their ray slope by
    the per-row scale instead of touching the knot arrays, so
    :meth:`PiecewiseLinearSet.rescaled` re-keys a pack in ``O(p)``
    (``adapt``'s EWMA drift corrections keep warm packs across updates).
``alpha`` / ``beta``
    the communication model ``t(x) = x/s(x) + alpha + beta*x``; the pack
    searches the *effective* slopes ``1/t(x_k)`` and solves the
    comm-adjusted crossing on the selected segment in closed form (one
    quadratic) instead of the per-object 200-step bisection.
``x_cap`` / ``s_cap``
    domain truncation: ray answers clamp to ``min(x, x_cap)`` *after* the
    base solve (exactly the per-object ``min(base.intersect_ray(c), cap)``
    semantics), and speeds freeze at ``s_cap``.

Conformance classes (verified by ``repro.verify`` differential cases and
the hypothesis bit-identity suite):

========================  =============================================
model                     compiled result vs per-object path
========================  =============================================
piecewise linear          bit-identical
constant                  bit-identical (``min(s0/c, max_size)``)
step (dense knots)        bit-identical (drop segments resolve to the
                          boundary exactly)
truncated(any exact)      bit-identical (post-solve ``min`` with the cap)
scaled(any exact)         bit-identical (slope divided by the scale, the
                          same operation the wrapper applies)
analytic, tabulated       bit-identical once tabulated (raw analytic
                          models do not compile — 200-step bisection has
                          no closed form)
comm-aware(any)           1e-9 class: closed-form segment solve versus
                          the object's 1e-12-relative bisection; nested
                          ``scaled`` factors fold into the knot speeds
nested scaled(scaled)     1e-9 class: one fused division versus two
========================  =============================================
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from .speed_function import (
    ConstantSpeedFunction,
    KnotRow,
    PiecewiseLinearSpeedFunction,
    SpeedFunction,
)

__all__ = [
    "ObjectSet",
    "PiecewiseLinearSet",
    "pack_speed_functions",
]

def _record_pack(outcome: str, blocked_by: str | None = None) -> None:
    """Count pack attempts on the obs registry (satellite: visible fallbacks)."""
    from .. import obs

    if not obs.is_enabled():
        return
    if outcome == "fast_path":
        obs.get_registry().counter(
            "core.pack.fast_path",
            help="fleets compiled into the vectorised pack",
        ).inc()
    else:
        obs.get_registry().counter(
            "core.pack.fallback",
            labels={"blocked_by": blocked_by or "unknown"},
            help="fleets that fell back to the per-object path",
        ).inc()


class PiecewiseLinearSet:
    """Padded-array pack of many compiled speed functions.

    Rows are processors; columns are knots, right-padded by repeating each
    row's last knot (degenerate zero-length segments that the search never
    selects, because the padded ray slopes are strictly below any query
    that reaches them).  Rows carry the :class:`KnotRow` decorations —
    per-row ``scale``, comm terms ``alpha``/``beta`` and truncation caps —
    evaluated lazily on top of the shared knot arrays, each gated on a
    fleet-level flag so a pure piecewise-linear fleet executes exactly the
    original array expressions.
    """

    #: Rows a speculative evaluation may compute at once: eight ladder
    #: slopes per ``allocations_many`` call (bracket expansion, the exact
    #: solver's halving ladder) and whole fine-tuning rounds cost about one
    #: NumPy dispatch each, like a single row.
    speculative_rows = 8

    def __init__(
        self,
        functions: Sequence[SpeedFunction],
        rows: Sequence[KnotRow] | None = None,
    ):
        if rows is None:
            rows = [sf.as_knots() for sf in functions]
            missing = [i for i, r in enumerate(rows) if r is None]
            if missing:
                raise ValueError(
                    f"speed_functions[{missing[0]}] "
                    f"({type(functions[missing[0]]).__name__}) does not compile"
                )
        p = len(rows)
        widths = [r.num_knots for r in rows]
        m = max(widths)
        xs = np.empty((p, m))
        ss = np.empty((p, m))
        for i, r in enumerate(rows):
            k = r.num_knots
            xs[i, :k] = r.sizes
            ss[i, :k] = r.speeds
            xs[i, k:] = r.sizes[-1]
            ss[i, k:] = r.speeds[-1]
        self._xs = xs
        self._ss = ss
        self._widths = np.asarray(widths, dtype=np.int64)
        # Row decorations.
        self._scale = np.array([r.scale for r in rows])
        self._alpha = np.array([r.alpha for r in rows])
        self._beta = np.array([r.beta for r in rows])
        self._comm_mask = (self._alpha > 0) | (self._beta > 0)
        self._has_scale = bool(np.any(self._scale != 1.0))
        self._has_comm = bool(np.any(self._comm_mask))
        self._exact = np.array([r.exact for r in rows], dtype=bool)
        # Effective domain bound per row (the truncation cap when present)
        # and the inner (compute) speed there.
        knot_last_x = np.array([float(r.sizes[-1]) for r in rows])
        knot_last_s = np.array([float(r.speeds[-1]) for r in rows])
        caps = np.array(
            [np.inf if r.x_cap is None else float(r.x_cap) for r in rows]
        )
        self._has_trunc = bool(np.any(caps < knot_last_x))
        self._x_knot_last = knot_last_x
        self._x_last = np.minimum(caps, knot_last_x)
        self._s_last = np.where(
            caps < knot_last_x,
            np.array(
                [0.0 if r.s_cap is None else float(r.s_cap) for r in rows]
            ),
            knot_last_s,
        )
        # Effective ray slopes at each knot.  Pure rows: g = s/x.  Comm
        # rows: g' = 1/t(x_k) with t = x/s + alpha + beta*x, strictly
        # decreasing, bounded above by 1/alpha.
        with np.errstate(divide="ignore", invalid="ignore"):
            gs = ss / xs
            if self._has_comm:
                t_k = (
                    xs / ss
                    + self._alpha[:, None]
                    + self._beta[:, None] * xs
                )
                gs = np.where(self._comm_mask[:, None], 1.0 / t_k, gs)
        # Make padded slots unreachable: strictly below every real slope.
        pad = np.arange(m)[None, :] >= np.asarray(widths)[:, None]
        gs = np.where(pad, -np.inf, gs)
        self._gs = gs
        self._g_first = gs[:, 0]
        self._g_last = gs[np.arange(p), self._widths - 1]
        self._s_first = ss[:, 0]
        # Per-segment line parameters s = a + b*x (column j: segment j->j+1).
        # Unbounded rows put their last knot at infinity: their pad
        # segments produce nan parameters (inf - inf), but the search can
        # only land there when the shallow override fires, so the values
        # are never read.  Flat segments force the intercept to the knot
        # speed rather than risk 0 * inf.
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = np.diff(xs, axis=1)
            b = np.where(dx > 0, np.diff(ss, axis=1) / np.where(dx > 0, dx, 1.0), 0.0)
            intercept = np.where(b != 0, ss[:, :-1] - b * xs[:, :-1], ss[:, :-1])
        # Step-model drop segments: zero the line so the segment solve
        # yields 0, which the [x0, x1] clip then lifts to the left
        # boundary — the exact ``sup`` answer for a ray crossing a
        # vertical speed drop.  (Comm rows: A=0, B=1, C=0 resolves the
        # quadratic to 0 with the same clip.)
        for i, r in enumerate(rows):
            if r.drops is not None and np.any(r.drops):
                d = np.asarray(r.drops, dtype=bool)
                b[i, : d.size][d] = 0.0
                intercept[i, : d.size][d] = 0.0
        self._seg_slope = b
        self._seg_intercept = intercept
        self._depth = max(int(np.ceil(np.log2(max(m, 2)))) + 1, 1)
        self._m = m
        self._rows = np.arange(p)
        self._fingerprint: str | None = None
        # Shared across rescaled() clones so the expensive knot digest is
        # computed once per knot set, not once per scale vector.
        self._static_digest_box: list[bytes | None] = [None]
        _record_pack_build()

    @property
    def p(self) -> int:
        return int(self._rows.size)

    @property
    def max_sizes(self) -> np.ndarray:
        """Per-processor memory bounds (caps applied); read-only."""
        v = self._x_last.view()
        v.flags.writeable = False
        return v

    @property
    def exact(self) -> bool:
        """True when every row evaluates bit-identically to its object."""
        return bool(np.all(self._exact))

    @property
    def scales(self) -> np.ndarray:
        """Per-row speed scale factors; read-only."""
        v = self._scale.view()
        v.flags.writeable = False
        return v

    def _static_digest(self) -> bytes:
        """Digest of everything except the scale vector (shared by clones)."""
        if self._static_digest_box[0] is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(np.asarray(self._xs.shape, dtype=np.int64).tobytes())
            h.update(self._widths.tobytes())
            h.update(np.ascontiguousarray(self._xs).tobytes())
            h.update(np.ascontiguousarray(self._ss).tobytes())
            h.update(self._alpha.tobytes())
            h.update(self._beta.tobytes())
            h.update(self._x_last.tobytes())
            self._static_digest_box[0] = h.digest()
        return self._static_digest_box[0]

    @property
    def fingerprint(self) -> str:
        """Stable content hash of the packed knot arrays and decorations.

        Two packs built from speed functions with identical knots (and
        identical scale/comm/cap decorations) produce the same
        fingerprint, so it can key plan caches across fleet
        reconstructions.  Computed lazily and memoised; a
        :meth:`rescaled` clone re-hashes only its ``O(p)`` scale vector
        on top of the memoised knot digest.
        """
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(self._static_digest())
            h.update(self._scale.tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def rescaled(self, factors: Sequence[float]) -> "PiecewiseLinearSet":
        """A pack with per-row speeds multiplied by ``factors`` — in ``O(p)``.

        All knot arrays, segment parameters and search structures are
        shared with ``self``; only the scale vector (and the fingerprint)
        are new.  This is the drift-correction hot path: ``adapt``'s EWMA
        updates rescale a fleet every observation, and rebuilding the
        ``O(p*m)`` pack each time would dominate the replan.

        Comm rows cannot be rescaled in place (the comm terms do not
        commute with a post-hoc speed scale): attempting it raises
        ``ValueError``.
        """
        f = np.asarray(factors, dtype=float)
        if f.shape != (self.p,):
            raise ValueError(
                f"factors must have shape ({self.p},), got {f.shape}"
            )
        if np.any(f <= 0):
            raise ValueError("scale factors must be positive")
        if self._has_comm and np.any(f[self._comm_mask] != 1.0):
            raise ValueError(
                "comm-aware rows cannot be rescaled in place; rebuild the pack"
            )
        clone = object.__new__(PiecewiseLinearSet)
        clone.__dict__.update(self.__dict__)
        clone._scale = self._scale * f
        clone._has_scale = bool(np.any(clone._scale != 1.0))
        # One scale layer over an unscaled row performs exactly the
        # wrapper's slope division; stacking factors fuses two divisions
        # into one and drops to the 1e-9 class.
        clone._exact = self._exact & ((f == 1.0) | (self._scale == 1.0))
        clone._fingerprint = None
        _record_pack_rescale()
        return clone

    # ------------------------------------------------------------------
    # Ray intersections
    # ------------------------------------------------------------------
    def allocations(self, slope: float) -> np.ndarray:
        """Size coordinates of the ray's intersection with every graph."""
        gs = self._gs
        # Scaled rows divide the query slope instead of their knots — the
        # exact operation _ScaledSpeedFunction.intersect_ray applies.
        cq = slope / self._scale if self._has_scale else slope
        # Branchless binary search for k = max{j : g[j] >= slope} per row.
        lo = np.zeros(self.p, dtype=np.int64)
        hi = np.full(self.p, self._m - 1, dtype=np.int64)
        for _ in range(self._depth):
            mid = (lo + hi + 1) >> 1
            cond = gs[self._rows, mid] >= cq
            lo = np.where(cond, mid, lo)
            hi = np.where(cond, hi, mid - 1)
        k = np.minimum(lo, self._m - 2)
        a = self._seg_intercept[self._rows, k]
        b = self._seg_slope[self._rows, k]
        denom = cq - b
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(denom > 0, a / np.where(denom > 0, denom, 1.0), np.inf)
        x0 = self._xs[self._rows, k]
        x1 = self._xs[self._rows, np.minimum(k + 1, self._m - 1)]
        x = np.clip(x, x0, x1)
        # Case 1: steeper than the first knot's ray -> constant extension.
        steep = cq >= self._g_first
        x = np.where(steep, self._s_first / cq, x)
        # Case 2: shallower than the last knot's ray -> clamp at the bound.
        x = np.where(cq <= self._g_last, self._x_knot_last, x)
        if self._has_comm:
            x = self._comm_allocations(slope, a, b, x0, x1, steep, cq, x)
        if self._has_trunc:
            x = np.minimum(x, self._x_last)
        if self._has_comm:
            priced = (
                self._comm_mask
                & (self._alpha > 0)
                & (1.0 / slope <= self._alpha)
            )
            x = np.where(priced, 0.0, x)
        return x

    def _comm_allocations(self, slope, a, b, x0, x1, steep, cq, x):
        """Closed-form comm crossings overlaid on the comm rows.

        Solves ``x/(a+bx) + alpha + beta*x = T`` (``T = 1/slope``) on the
        searched segment: ``A x^2 + B x + C = 0`` with ``A = beta*b``,
        ``B = 1 + alpha*b + beta*a - T*b``, ``C = a*(alpha - T)``; the
        upward crossing is ``(-B + sqrt(B^2-4AC)) / (2A)`` for either
        sign of ``A``, evaluated through the conjugate form
        ``2C / (-B - sqrt(B^2-4AC))`` when ``B > 0`` — algebraically the
        same root, but immune to the catastrophic ``-B + disc``
        cancellation that otherwise loses the crossing entirely at very
        shallow slopes (huge ``T``) over a declining segment.
        """
        T = 1.0 / slope
        aa, bb = self._alpha, self._beta
        A = bb * b
        B = 1.0 + aa * b + bb * a - T * b
        C = a * (aa - T)
        disc = np.sqrt(np.maximum(B * B - 4.0 * A * C, 0.0))
        nzA = A != 0
        stable = nzA & (B > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            xq = np.where(
                nzA,
                (-B + disc) / np.where(nzA, 2.0 * A, 1.0),
                np.where(B > 0, -C / np.where(B != 0, B, 1.0), x1),
            )
            xq = np.where(
                stable,
                2.0 * C / np.where(stable, -B - disc, 1.0),
                xq,
            )
        xq = np.clip(xq, x0, x1)
        # Constant-extension region: t(x) = x/s0 + alpha + beta*x = T.
        xq = np.where(
            steep, (T - aa) / (1.0 / self._s_first + bb), xq
        )
        xq = np.where(cq <= self._g_last, self._x_knot_last, xq)
        return np.where(self._comm_mask, xq, x)

    def allocations_many(self, slopes: np.ndarray) -> np.ndarray:
        """Ray intersections for a whole batch of slopes at once.

        Returns a ``(len(slopes), p)`` array whose row ``r`` is bit-identical
        to ``allocations(slopes[r])`` — the arithmetic is the same expression
        broadcast over the batch axis, so batched solvers (the planner's
        lockstep sweep) produce exactly the per-query results while paying
        the NumPy dispatch overhead once per step instead of once per query.
        """
        c = np.asarray(slopes, dtype=float)[:, None]  # (q, 1)
        q = c.shape[0]
        gs = self._gs
        rows = self._rows
        cq = c / self._scale[None, :] if self._has_scale else c
        if q * self.p * self._m <= 32_000_000:
            # Each row of ``gs`` is non-increasing (the strict-decrease
            # invariant, -inf padding), so the searched index is just the
            # count of entries at/above the slope, minus one — two large
            # vector operations instead of a dispatch-heavy search loop.
            # Identical k to the binary search, hence bit-identical output.
            count = (gs[None, :, :] >= np.asarray(cq)[:, :, None]).sum(axis=2)
            k = np.minimum(np.maximum(count - 1, 0), self._m - 2)
        else:
            lo = np.zeros((q, self.p), dtype=np.int64)
            hi = np.full((q, self.p), self._m - 1, dtype=np.int64)
            for _ in range(self._depth):
                mid = (lo + hi + 1) >> 1
                cond = gs[rows, mid] >= cq
                lo = np.where(cond, mid, lo)
                hi = np.where(cond, hi, mid - 1)
            k = np.minimum(lo, self._m - 2)
        a = self._seg_intercept[rows, k]
        b = self._seg_slope[rows, k]
        denom = cq - b
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(denom > 0, a / np.where(denom > 0, denom, 1.0), np.inf)
        x0 = self._xs[rows, k]
        x1 = self._xs[rows, np.minimum(k + 1, self._m - 1)]
        x = np.clip(x, x0, x1)
        steep = cq >= self._g_first
        x = np.where(steep, self._s_first / cq, x)
        x = np.where(cq <= self._g_last, self._x_knot_last, x)
        if self._has_comm:
            T = 1.0 / c
            aa, bb = self._alpha, self._beta
            A = bb * b
            B = 1.0 + aa * b + bb * a - T * b
            C = a * (aa - T)
            disc = np.sqrt(np.maximum(B * B - 4.0 * A * C, 0.0))
            nzA = A != 0
            stable = nzA & (B > 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                xq = np.where(
                    nzA,
                    (-B + disc) / np.where(nzA, 2.0 * A, 1.0),
                    np.where(B > 0, -C / np.where(B != 0, B, 1.0), x1),
                )
                xq = np.where(
                    stable,
                    2.0 * C / np.where(stable, -B - disc, 1.0),
                    xq,
                )
            xq = np.clip(xq, x0, x1)
            xq = np.where(steep, (T - aa) / (1.0 / self._s_first + bb), xq)
            xq = np.where(cq <= self._g_last, self._x_knot_last, xq)
            x = np.where(self._comm_mask, xq, x)
        if self._has_trunc:
            x = np.minimum(x, self._x_last)
        if self._has_comm:
            priced = (
                self._comm_mask
                & (self._alpha > 0)
                & (1.0 / c <= self._alpha)
            )
            x = np.where(priced, 0.0, x)
        return x

    def total(self, slope: float) -> float:
        return float(self.allocations(slope).sum())

    # ------------------------------------------------------------------
    # Speeds and times
    # ------------------------------------------------------------------
    def _inner_speeds(self, x: np.ndarray) -> np.ndarray:
        """Compute-curve speeds by row (no scale or comm applied).

        Bit-compatible with the scalar path
        ``np.interp(x[i], knot_sizes, knot_speeds)`` used by
        :meth:`PiecewiseLinearSpeedFunction.speed`: the same segment is
        selected and the same ``s0 + (x-x0) * (s1-s0)/(x1-x0)`` arithmetic
        is applied, with the same clamping to the first/last (or cap)
        speeds outside the knot range.
        """
        x = np.asarray(x, dtype=float)
        xs, ss, rows = self._xs, self._ss, self._rows
        # Branchless binary search for j = max{col : xs[col] <= x} per row.
        # Padded columns repeat the last knot size, so for x below the bound
        # they are never selected; x at/above the bound is masked below.
        lo = np.zeros(self.p, dtype=np.int64)
        hi = np.full(self.p, self._m - 1, dtype=np.int64)
        for _ in range(self._depth):
            mid = (lo + hi + 1) >> 1
            cond = xs[rows, mid] <= x
            lo = np.where(cond, mid, lo)
            hi = np.where(cond, hi, mid - 1)
        j = np.minimum(lo, self._m - 2)
        dx = xs[rows, j + 1] - xs[rows, j]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(
                dx > 0,
                (ss[rows, j + 1] - ss[rows, j]) / np.where(dx > 0, dx, 1.0),
                0.0,
            )
        out = slope * (x - xs[rows, j]) + ss[rows, j]
        out = np.where(x <= xs[rows, 0], self._s_first, out)
        out = np.where(x >= self._x_last, self._s_last, out)
        return out

    def speeds(self, x: np.ndarray) -> np.ndarray:
        """Per-processor speeds at per-processor sizes ``x`` (one pass).

        ``x[i]`` is evaluated on row ``i``, with the row's decorations
        applied: scale multiplies the interpolated speed, comm rows report
        the effective speed ``x / t(x)``, capped rows freeze at the cap
        speed.  Bit-compatible with the per-object path for exact rows.
        """
        x = np.asarray(x, dtype=float)
        if not self._has_comm:
            out = self._inner_speeds(x)
            if self._has_scale:
                out = self._scale * out
            return out
        xc = np.minimum(x, self._x_last)
        inner = self._inner_speeds(xc)
        with np.errstate(divide="ignore", invalid="ignore"):
            # Mirror CommAwareSpeedFunction.speed term by term:
            # t = base.time(xc) + where(xc>0, alpha + beta*xc, 0).
            tb = np.where(xc > 0, xc / inner, 0.0)
            t = tb + np.where(xc > 0, self._alpha + self._beta * xc, 0.0)
            s_comm = np.where(x > 0, x / t, 0.0)
        s_comm = np.where((self._alpha == 0.0) & (x <= 0), inner, s_comm)
        out = np.where(self._comm_mask, s_comm, inner)
        if self._has_scale:
            out = self._scale * out
        return out

    def times(self, x: np.ndarray) -> np.ndarray:
        """Per-processor execution times at allocations ``x`` (one pass).

        Matches :meth:`SpeedFunction.time` semantics element-wise:
        ``times(0) == 0`` and ``times(x) == inf`` beyond the memory bound.
        Comm rows return the total (compute plus communication) time, the
        quantity their ``time`` override reports.
        """
        x = np.asarray(x, dtype=float)
        xc = np.minimum(x, self._x_last)
        s = self._inner_speeds(xc)
        if self._has_scale:
            s = self._scale * s
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(x > 0, x / s, 0.0)
            if self._has_comm:
                tb = np.where(xc > 0, xc / s, 0.0)
                tcomm = tb + np.where(
                    xc > 0, self._alpha + self._beta * xc, 0.0
                )
                t = np.where(self._comm_mask, tcomm, t)
        return np.where(x > self._x_last, np.inf, t)

    def time_one(self, i: int, x: float) -> float:
        """Scalar :meth:`times` for row ``i`` — the heap-refinement probe.

        Bit-identical to ``times(v)[i]`` with ``v[i] == x``; used by the
        fine-tuning heaps to evaluate one candidate finish time without
        paying a whole-fleet array pass.
        """
        x = float(x)
        x_last = float(self._x_last[i])
        if x > x_last:
            return float("inf")
        if x <= 0:
            return 0.0
        xc = min(x, x_last)
        w = int(self._widths[i])
        s = float(np.interp(xc, self._xs[i, :w], self._ss[i, :w]))
        if xc <= float(self._xs[i, 0]):
            s = float(self._s_first[i])
        if xc >= x_last:
            s = float(self._s_last[i])
        if self._has_scale:
            s = float(self._scale[i]) * s
        if self._has_comm and bool(self._comm_mask[i]):
            tb = xc / s if xc > 0 else 0.0
            extra = (
                float(self._alpha[i]) + float(self._beta[i]) * xc
                if xc > 0
                else 0.0
            )
            return tb + extra
        return x / s


def _record_pack_build() -> None:
    from .. import obs

    if obs.is_enabled():
        obs.get_registry().counter(
            "core.pack.build", help="full O(p*m) pack constructions"
        ).inc()


def _record_pack_rescale() -> None:
    from .. import obs

    if obs.is_enabled():
        obs.get_registry().counter(
            "core.pack.rescale", help="O(p) scale-vector pack clones"
        ).inc()


def _describe(sf: SpeedFunction) -> bytes:
    """Content bytes of one speed function for fingerprinting.

    Exact knot/parameter bytes for every representation that compiles
    through the knot protocol (:meth:`SpeedFunction.as_knots` fully
    determines such a model's behaviour); for genuinely opaque
    representations (analytic callables) the object identity is used
    instead, which is *safe* (no false cache sharing) at the cost of not
    deduplicating equal-content fleets built from distinct objects.
    """
    if type(sf) is PiecewiseLinearSpeedFunction:
        return (
            b"pwl:"
            + np.ascontiguousarray(sf.knot_sizes).tobytes()
            + b"/"
            + np.ascontiguousarray(sf.knot_speeds).tobytes()
        )
    if type(sf) is ConstantSpeedFunction:
        return f"const:{sf.value!r}:{sf.max_size!r}".encode()
    row = sf.as_knots()
    if row is not None:
        return (
            b"knots:"
            + np.ascontiguousarray(row.sizes).tobytes()
            + b"/"
            + np.ascontiguousarray(row.speeds).tobytes()
            + f":{row.alpha!r}:{row.beta!r}:{row.scale!r}"
              f":{row.x_cap!r}:{row.s_cap!r}".encode()
        )
    return f"opaque:{type(sf).__name__}:{id(sf)}".encode()


class ObjectSet:
    """The evaluator surface of :class:`PiecewiseLinearSet`, per object.

    Every method loops over the member speed functions (``intersect_ray``,
    ``speed``, ``time``), so the results are the objects' own answers and
    :attr:`exact` is always true.  This is the adapter for fleets that do
    not compile through the knot protocol — the arbitrary-shape functional
    models — and, passed explicitly as ``pack=ObjectSet(sfs)``, the
    per-object reference the compiled pack is checked against.
    """

    exact = True
    #: No speculation: every row costs ``p`` object calls, so ladders probe
    #: one slope at a time and fine-tuning uses the one-element heap.
    speculative_rows = 1

    def __init__(self, speed_functions: Sequence[SpeedFunction]):
        self._sfs = tuple(speed_functions)
        self._max_sizes = np.array([sf.max_size for sf in self._sfs], dtype=float)
        self._max_sizes.flags.writeable = False
        self._fingerprint: str | None = None

    @property
    def p(self) -> int:
        return len(self._sfs)

    @property
    def max_sizes(self) -> np.ndarray:
        """Per-processor memory bounds; read-only."""
        return self._max_sizes

    @property
    def fingerprint(self) -> str:
        """Digest of the members' content (object identity when opaque)."""
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            for sf in self._sfs:
                h.update(_describe(sf))
                h.update(b"|")
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def rescaled(self, factors: Sequence[float]) -> "ObjectSet":
        """Always raises ``ValueError``: rebuild over ``scaled()`` members."""
        raise ValueError("a per-object evaluator cannot be rescaled in place")

    def allocations(self, slope: float) -> np.ndarray:
        return np.array([sf.intersect_ray(slope) for sf in self._sfs], dtype=float)

    def allocations_many(self, slopes: np.ndarray) -> np.ndarray:
        c = np.asarray(slopes, dtype=float)
        out = np.empty((c.size, self.p))
        for r, slope in enumerate(c):
            out[r] = self.allocations(float(slope))
        return out

    def speeds(self, x: np.ndarray) -> np.ndarray:
        return np.array(
            [sf.speed(float(v)) for sf, v in zip(self._sfs, np.asarray(x, dtype=float))],
            dtype=float,
        )

    def times(self, x: np.ndarray) -> np.ndarray:
        return np.array(
            [sf.time(float(v)) for sf, v in zip(self._sfs, np.asarray(x, dtype=float))],
            dtype=float,
        )

    def time_one(self, i: int, x: float) -> float:
        return float(self._sfs[i].time(float(x)))


def pack_speed_functions(
    speed_functions: Sequence[SpeedFunction],
) -> PiecewiseLinearSet | ObjectSet:
    """The evaluator for a fleet: the compiled pack when possible.

    Every member is lowered through the compilation protocol
    (:meth:`SpeedFunction.as_knots`); mixed fleets of piecewise-linear,
    constant, step, truncated, comm-aware and scaled models all compile
    into one :class:`PiecewiseLinearSet`.  Otherwise the result is an
    :class:`ObjectSet`: fewer than two processors, any member whose
    ``as_knots`` returns ``None`` (raw analytic models, stacked comm
    decorations, unknown subclasses), or a degenerate fleet where every
    row has a single knot (no segments to search).  Fallbacks are recorded
    on the ``core.pack.fallback`` counter, labelled by the blocking class,
    so they show up in ``repro stats`` instead of silently losing an order
    of magnitude.

    This is the hook that lets callers build the evaluator **once** per
    fleet and reuse it across many partition calls through the
    algorithms' ``pack=`` parameter.
    """
    if len(speed_functions) < 2:
        _record_pack("fallback", "fleet_too_small")
        return ObjectSet(speed_functions)
    rows = []
    for sf in speed_functions:
        row = sf.as_knots()
        if row is None:
            _record_pack("fallback", type(sf).__name__)
            return ObjectSet(speed_functions)
        rows.append(row)
    if max(r.num_knots for r in rows) < 2:
        _record_pack("fallback", "degenerate_knots")
        return ObjectSet(speed_functions)
    _record_pack("fast_path")
    return PiecewiseLinearSet(speed_functions, rows=rows)
