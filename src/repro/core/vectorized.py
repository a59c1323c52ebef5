"""Fleet evaluators: vectorised ray intersections and the per-object adapter.

The partitioning algorithms spend essentially all their time intersecting
one ray with ``p`` speed graphs, ``O(log n)`` times, and evaluating the
finish times ``t_i(x_i)`` while fine-tuning.  Every algorithm runs against
one *evaluator* with a fixed surface — ``p``, ``max_sizes``, ``max_total``,
``exact``, ``speculative_rows``, ``fingerprint``, ``allocations``,
``allocations_many``, ``rays``, ``speeds``, ``times``, ``time_one`` and
``rescaled`` — and this module provides its two implementations:

:class:`PiecewiseLinearSet`
    packs the whole fleet into padded 2-D arrays and resolves a ray in a
    handful of NumPy operations: one counting search for each row's knot
    segment, then that segment's closed-form crossing.  Inside a
    bisection bracket :meth:`PiecewiseLinearSet.rays` searches only the
    rows whose segment still differs between the bracket's two lines
    (the *active set*); the others keep theirs.  Every fleet whose
    members compile through the knot protocol below gets one.
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
from typing import Mapping, Sequence

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

#: (slope or size, row) pairs one vectorised pass evaluates; larger
#: batches go in slices, which keeps a pass's temporaries to a few MB.
_BATCH_PAIRS = 1 << 14

#: The largest problem size any solver accepts.  Every integer up to
#: 2**53 is a float64, so ray totals compare exactly against ``n`` and the
#: float-to-int64 casts of the base allocation cannot wrap; past it the
#: searches report feasible sizes infeasible, or never finish handing out
#: elements.  Both evaluators cap ``max_total`` here.
MAX_PROBLEM_SIZE = 2**53


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
        widths = np.array([r.num_knots for r in rows], dtype=np.int64)
        m = int(widths.max())
        xs, ss = np.empty((p, m)), np.empty((p, m))
        drops = np.zeros((p, m), dtype=bool)
        for i, r in enumerate(rows):
            _put_knots(xs, ss, drops, i, r)
        decorations = zip(*map(_decorations, rows))
        self._derive(xs, ss, widths, drops, *map(np.array, decorations))
        _record_pack_build()

    def _derive(
        self, xs, ss, widths, drops, scale, alpha, beta, exact, caps, s_caps
    ) -> None:
        """Keep the row tables (padded knots, drop flags, one decoration
        per row) and derive everything the searches read from them."""
        p, m = xs.shape
        self._xs, self._ss, self._widths, self._drops = xs, ss, widths, drops
        self._scale, self._alpha, self._beta = scale, alpha, beta
        self._exact, self._caps, self._s_caps = exact, caps, s_caps
        self._comm_mask = (alpha > 0) | (beta > 0)
        self._has_scale = bool(np.any(scale != 1.0))
        self._has_comm = bool(np.any(self._comm_mask))
        # Effective domain bound per row (the truncation cap when present)
        # and the inner (compute) speed there; padding repeats each row's
        # last knot, so the last column holds it.
        knot_last_x = xs[:, -1].copy()
        knot_last_s = ss[:, -1].copy()
        self._has_trunc = bool(np.any(caps < knot_last_x))
        self._x_knot_last = knot_last_x
        self._x_last = np.minimum(caps, knot_last_x)
        self._max_total = min(
            float(np.floor(self._x_last).sum()), float(MAX_PROBLEM_SIZE)
        )
        self._s_last = np.where(caps < knot_last_x, s_caps, knot_last_s)
        # Effective ray slopes at each knot.  Pure rows: g = s/x.  Comm
        # rows: g' = 1/t(x_k) with t = x/s + alpha + beta*x, strictly
        # decreasing, bounded above by 1/alpha.
        with np.errstate(divide="ignore", invalid="ignore"):
            gs = ss / xs
            if self._has_comm:
                t_k = xs / ss + alpha[:, None] + beta[:, None] * xs
                gs = np.where(self._comm_mask[:, None], 1.0 / t_k, gs)
        # Make padded slots unreachable: strictly below every real slope.
        pad = np.arange(m)[None, :] >= widths[:, None]
        gs = np.where(pad, -np.inf, gs)
        # One more -inf column, so every row has a slot below any query.
        self._gs = np.concatenate([gs, np.full((p, 1), -np.inf)], axis=1)
        self._g_first = gs[:, 0]
        self._g_last = gs[np.arange(p), widths - 1]
        self._s_first = ss[:, 0]
        # Per-segment line parameters s = a + b*x (column j: segment j->j+1;
        # the last column is a flat stub that keeps every array m wide).
        # Unbounded rows put their last knot at infinity: their pad
        # segments produce nan parameters (inf - inf), but the search can
        # only land there when the shallow override fires, so the values
        # are never read.  Flat segments force the intercept to the knot
        # speed rather than risk 0 * inf.
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = np.diff(xs, axis=1, append=xs[:, -1:])
            ds = np.diff(ss, axis=1, append=ss[:, -1:])
            b = np.where(dx > 0, ds / np.where(dx > 0, dx, 1.0), 0.0)
            intercept = np.where(b != 0, ss - b * xs, ss)
        # Step-model drop segments: zero the line so the segment solve
        # yields 0, which the [x0, x1] clip then lifts to the left
        # boundary — the exact ``sup`` answer for a ray crossing a
        # vertical speed drop.  (Comm rows: A=0, B=1, C=0 resolves the
        # quadratic to 0 with the same clip.)
        if drops.any():
            b = np.where(drops, 0.0, b)
            intercept = np.where(drops, 0.0, intercept)
        # Flat views of the (p, m) tables: row i, column j is entry
        # i*m + j, so a per-row gather is one 1-D ``take``.
        self._base = np.arange(p) * m
        self._xs_flat, self._ss_flat = xs.ravel(), ss.ravel()
        self._seg_slope, self._seg_intercept = b.ravel(), intercept.ravel()
        self._m = m
        self._fingerprint: str | None = None
        # Shared across rescaled() clones so the expensive knot digest is
        # computed once per knot set, not once per scale vector.
        self._static_digest_box: list[bytes | None] = [None]

    def with_rows(self, rows: Mapping[int, KnotRow]) -> "PiecewiseLinearSet":
        """This pack with the rows at the given indices replaced.

        Only the new rows are lowered; every other row's knots and
        decorations are copied as arrays, re-padded to the new widest
        row, so the result equals a from-scratch build (fingerprint
        included) without a full build's per-row work.
        """
        widths = self._widths.copy()
        for i, r in rows.items():
            widths[i] = r.num_knots
        m = int(widths.max())
        # Padding repeats a row's last knot and no drop reaches the last
        # column, so repeating that column widens a table as a fresh
        # build would.
        cols = np.minimum(np.arange(m), self._m - 1)
        xs, ss, drops = (
            np.ascontiguousarray(t[:, cols])  # the searches ravel C order
            for t in (self._xs, self._ss, self._drops)
        )
        decorations = [
            column.copy() for column in (
                self._scale, self._alpha, self._beta,
                self._exact, self._caps, self._s_caps,
            )
        ]
        for i, r in rows.items():
            drops[i] = False
            _put_knots(xs, ss, drops, i, r)
            for column, value in zip(decorations, _decorations(r)):
                column[i] = value
        clone = object.__new__(PiecewiseLinearSet)
        clone._derive(xs, ss, widths, drops, *decorations)
        return clone

    @property
    def p(self) -> int:
        return int(self._base.size)

    @property
    def max_sizes(self) -> np.ndarray:
        """Per-processor memory bounds (caps applied); read-only."""
        v = self._x_last.view()
        v.flags.writeable = False
        return v

    @property
    def max_total(self) -> float:
        """The largest problem size an integer plan can hold:
        ``min(sum(floor(max_sizes)), MAX_PROBLEM_SIZE)``."""
        return self._max_total

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
        return self.rays(slope)[0]

    def allocations_many(self, slopes: np.ndarray) -> np.ndarray:
        """``(len(slopes), p)`` intersections; row ``r`` is bitwise
        ``allocations(slopes[r])`` (both are :meth:`rays`)."""
        return self.rays(np.asarray(slopes, dtype=float))[0]

    def rays(self, slopes, steep=None, shallow=None):
        """Allocations on the rays ``slopes`` and each row's knot segment.

        ``slopes`` is a scalar or a 1-D batch; both results have shape
        ``np.shape(slopes) + (p,)``.  A bisection step passes the segments
        this method returned for the steep and the shallow line of its
        bracket: a row's segment is monotone in the slope, so where the two
        agree it holds for every slope in between and only the other rows
        run the knot search (all rows do while more than a quarter are
        open, which is cheaper than gathering them).  Either way the
        allocations are bitwise those of the plain call.
        """
        c = np.asarray(slopes, dtype=float)
        step = max(1, _BATCH_PAIRS // self.p)
        if c.ndim == 1 and c.size > step:
            parts = [
                self.rays(c[i:i + step],
                          None if steep is None else steep[i:i + step],
                          None if shallow is None else shallow[i:i + step])
                for i in range(0, c.size, step)
            ]
            return (np.concatenate([x for x, _ in parts]),
                    np.concatenate([k for _, k in parts]))
        c = c[..., None]
        # Scaled rows divide the query slope instead of their knots — the
        # exact operation _ScaledSpeedFunction.intersect_ray applies.
        cq = c / self._scale if self._has_scale else c
        if steep is None:
            k = self._segments(cq)
        else:
            k = np.array(steep, dtype=np.int64)
            undecided = k != shallow
            count = np.count_nonzero(undecided)
            if 4 * count > undecided.size:
                # Most rows still open (a wide bracket): one search over
                # every row costs less than gathering the open ones.
                k = self._segments(cq)
            elif count:
                rows = np.nonzero(undecided)[-1]
                k[undecided] = self._segments(
                    np.broadcast_to(cq, k.shape)[undecided], rows
                )
        i = k + self._base
        a, b = self._seg_intercept.take(i), self._seg_slope.take(i)
        x0, x1 = self._xs_flat.take(i), self._xs_flat.take(i + 1)
        denom = cq - b
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(denom > 0, a / np.where(denom > 0, denom, 1.0), np.inf)
        x = np.minimum(np.maximum(x, x0), x1)
        # Case 1: steeper than the first knot's ray -> constant extension.
        steep_ray = cq >= self._g_first
        x = np.where(steep_ray, self._s_first / cq, x)
        # Case 2: shallower than the last knot's ray -> clamp at the bound.
        shallow_ray = cq <= self._g_last
        x = np.where(shallow_ray, self._x_knot_last, x)
        if self._has_comm:
            x = np.where(
                self._comm_mask,
                self._comm_crossings(1.0 / c, a, b, x0, x1, steep_ray, shallow_ray),
                x,
            )
        if self._has_trunc:
            x = np.minimum(x, self._x_last)
        if self._has_comm:
            priced = (
                self._comm_mask
                & (self._alpha > 0)
                & (1.0 / c <= self._alpha)
            )
            x = np.where(priced, 0.0, x)
        return x, k

    def _segments(self, cq, rows=None):
        """``k = max{j : g[j] >= cq}`` per query, clipped to a segment.

        Every row of ``g`` is non-increasing and ends in ``-inf``, so ``k``
        is the first entry below the slope, minus one.  ``rows`` selects
        the rows a 1-D ``cq`` is searched on; else ``cq`` broadcasts.
        """
        gs = self._gs if rows is None else self._gs[rows]
        below = (gs >= cq[..., None]).argmin(axis=-1)
        return np.minimum(np.maximum(below - 1, 0), self._m - 2)

    def _comm_crossings(self, T, a, b, x0, x1, steep, shallow):
        """Closed-form comm crossings on the searched segments.

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
        xq = np.minimum(np.maximum(xq, x0), x1)
        # Constant-extension region: t(x) = x/s0 + alpha + beta*x = T.
        xq = np.where(steep, (T - aa) / (1.0 / self._s_first + bb), xq)
        return np.where(shallow, self._x_knot_last, xq)

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
        speeds outside the knot range.  ``x`` may carry leading batch
        axes in front of the row axis.
        """
        x = np.asarray(x, dtype=float)
        # j = max{col : xs[col] <= x} per row, one before the first knot
        # above x: every row is non-decreasing (padding repeats the last
        # knot size).  A size with no knot above it lies at/past the last
        # knot, hence at/past the bound, and is masked below.
        above = (self._xs > x[..., None]).argmax(axis=-1)
        i = np.minimum(np.maximum(above - 1, 0), self._m - 2) + self._base
        x0, s0 = self._xs_flat.take(i), self._ss_flat.take(i)
        dx = self._xs_flat.take(i + 1) - x0
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(
                dx > 0,
                (self._ss_flat.take(i + 1) - s0) / np.where(dx > 0, dx, 1.0),
                0.0,
            )
        out = slope * (x - x0) + s0
        out = np.where(x <= self._xs[:, 0], self._s_first, out)
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
        step = max(1, _BATCH_PAIRS // self.p)
        if x.ndim == 2 and len(x) > step:
            return np.concatenate(
                [self.speeds(x[i:i + step]) for i in range(0, len(x), step)]
            )
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


def _decorations(row: KnotRow) -> tuple:
    """A row's scale, alpha, beta, exact flag, cap and speed at the cap."""
    return (
        row.scale, row.alpha, row.beta, row.exact,
        np.inf if row.x_cap is None else float(row.x_cap),
        0.0 if row.s_cap is None else float(row.s_cap),
    )


def _put_knots(xs, ss, drops, i: int, row: KnotRow) -> None:
    """Write one row's knots, padded with its last knot, and its drops."""
    k = row.num_knots
    xs[i, :k] = row.sizes
    ss[i, :k] = row.speeds
    xs[i, k:] = row.sizes[-1]
    ss[i, k:] = row.speeds[-1]
    if row.drops is not None:
        d = np.asarray(row.drops, dtype=bool)
        drops[i, : d.size] = d


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
        self._max_total = min(
            float(np.floor(self._max_sizes).sum()), float(MAX_PROBLEM_SIZE)
        )
        self._fingerprint: str | None = None

    @property
    def p(self) -> int:
        return len(self._sfs)

    @property
    def max_sizes(self) -> np.ndarray:
        """Per-processor memory bounds; read-only."""
        return self._max_sizes

    @property
    def max_total(self) -> float:
        """The largest problem size an integer plan can hold:
        ``min(sum(floor(max_sizes)), MAX_PROBLEM_SIZE)``."""
        return self._max_total

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

    def rays(self, slopes, steep=None, shallow=None):
        """:meth:`PiecewiseLinearSet.rays` without knots: every row is
        intersected, and the segments are zeros (the bracket's ignored)."""
        c = np.asarray(slopes, dtype=float)
        x = self.allocations(float(c)) if c.ndim == 0 else self.allocations_many(c)
        return x, np.zeros(x.shape, dtype=np.int64)

    def _each(self, method: str, x) -> np.ndarray:
        """``sf.method(x[..., i])`` on row ``i``, over any leading batch axes."""
        x = np.asarray(x, dtype=float)
        calls = [getattr(sf, method) for sf in self._sfs]
        out = np.empty(x.shape)
        for batch in np.ndindex(x.shape[:-1]):
            out[batch] = [f(float(v)) for f, v in zip(calls, x[batch])]
        return out

    def speeds(self, x: np.ndarray) -> np.ndarray:
        return self._each("speed", x)

    def times(self, x: np.ndarray) -> np.ndarray:
        return self._each("time", x)

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
