"""Thread-safe LRU cache for partition plans.

A plan is a pure function of ``(fleet fingerprint, n, algorithm, refine,
mode)``; correctness therefore never *requires* invalidation — a fleet
whose models change gets a new fingerprint and thereby a fresh key
space, and stale entries for the old fingerprint would simply age out
of the LRU order.  Online re-fitting makes eager reclamation worth
having, though: when :class:`repro.model.OnlineBandRefitter` retires a
fingerprint the dead entries still occupy LRU slots that evict *live*
plans, so :meth:`PlanCache.invalidate` drops exactly the retired
fingerprint's entries (and nothing else — no blanket flush), counted by
the ``planner.cache.invalidations`` metric.

The implementation is a classic ``OrderedDict`` LRU under a single lock
(every operation is O(1) and holds the lock for nanoseconds, so one lock
beats sharding at any realistic query rate).  Until a plan is asked for
again, its ``int64`` allocation — the bulk of a large-``p`` plan — is
kept in the fewest bytes per value that hold it (three at p=1080) next
to a weak reference; the first hit returns the plan, or an equal rebuild
once no caller holds it, and the cache keeps it whole.  The
hit/miss/eviction counters are :class:`repro.obs.Counter` objects
registered in the global
:class:`~repro.obs.MetricsRegistry` under a per-instance ``cache`` label
— :meth:`stats` and ``repro stats`` read the *same* objects, so the
:class:`CacheStats` snapshot and the exported telemetry can never
disagree.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Any, Hashable

import numpy as np

from .. import obs
from ..core.result import PartitionResult

__all__ = ["CacheStats", "PlanCache"]

#: Distinguishes auto-named cache instances in the metrics registry.
_CACHE_SEQ = itertools.count(1)


#: Fields a compact plan keeps as they are (planner plans have no trace).
_KEPT = tuple(
    f.name for f in fields(PartitionResult) if f.name not in ("allocation", "trace")
)


class _Rows:
    """Rows of ``width`` little-endian bytes per value, for one allocation
    length, in one table: its pages become resident only as rows are
    written, and no cached row sits in a heap hole between temporaries."""

    def __init__(self, length: int, width: int, count: int):
        self.table = np.empty((count, length, width), dtype=np.uint8)
        self.place = 256 ** np.arange(width, dtype=np.int64)
        self.free = list(range(count))


class _Compact:
    """A cached plan not asked for again yet: its allocation in a table
    row, its other fields as they are, and a weak reference to it."""

    __slots__ = ("_rows", "_row", "_kept", "_live")

    def __init__(self, plan: PartitionResult, rows: _Rows, row: int):
        le_bytes = plan.allocation.astype("<u4").view(np.uint8).reshape(-1, 4)
        rows.table[row] = le_bytes[:, : rows.place.size]
        self._rows, self._row, self._live = rows, row, weakref.ref(plan)
        self._kept = tuple(getattr(plan, name) for name in _KEPT)

    def __del__(self) -> None:
        self._rows.free.append(self._row)

    def plan(self) -> PartitionResult:
        """The plan itself while a caller holds it, else an equal rebuild."""
        plan = self._live()
        if plan is None:
            allocation = self._rows.table[self._row].astype(np.int64) @ self._rows.place
            plan = PartitionResult(allocation=allocation, **dict(zip(_KEPT, self._kept)))
        return plan


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of a cache's counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __str__(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} evictions={self.evictions} "
            f"invalidations={self.invalidations} "
            f"size={self.size}/{self.maxsize} hit_rate={self.hit_rate:.1%}"
        )


class PlanCache:
    """Bounded LRU mapping plan keys to cached results (thread-safe).

    ``name`` labels this instance's counters in the metrics registry
    (auto-generated when omitted; instances sharing an explicit name
    share counters, so give distinct caches distinct names).
    """

    def __init__(self, maxsize: int = 1024, *, name: str | None = None):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self._maxsize = int(maxsize)
        self._name = name or f"plancache-{next(_CACHE_SEQ)}"
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._rows: dict[tuple[int, int], _Rows] = {}
        self._lock = threading.Lock()
        labels = {"cache": self._name}
        registry = obs.get_registry()
        self._hits = registry.counter(
            "planner.cache.hits", labels=labels, help="plan-cache lookup hits"
        )
        self._misses = registry.counter(
            "planner.cache.misses", labels=labels, help="plan-cache lookup misses"
        )
        self._evictions = registry.counter(
            "planner.cache.evictions", labels=labels, help="LRU evictions"
        )
        self._invalidations = registry.counter(
            "planner.cache.invalidations",
            labels=labels,
            help="entries dropped by explicit invalidation",
        )

    def get(self, key: Hashable) -> Any | None:
        """Return the cached value (refreshing recency) or ``None``."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses.inc()
                return None
            self._data.move_to_end(key)
            self._hits.inc()
            if isinstance(value, _Compact):
                # A plan asked for again is kept whole from now on.
                value = self._data[key] = value.plan()
            return value

    def _stored(self, value: Any) -> Any:
        """A plan as a :class:`_Compact` row of the fewest bytes per value
        that hold its largest entry; anything else as given."""
        if not isinstance(value, PartitionResult) or value.trace or not value.allocation.size:
            return value
        low, high = int(value.allocation.min()), int(value.allocation.max())
        if low < 0 or high >= 1 << 32:
            return value
        shape = (value.allocation.size, max(1, (high.bit_length() + 7) // 8))
        rows = self._rows.get(shape) or self._rows.setdefault(
            shape, _Rows(*shape, self._maxsize + 64)  # spare rows for puts in flight
        )
        try:
            return _Compact(value, rows, rows.free.pop())
        except IndexError:  # every row is held by a plan being stored
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU entry if full."""
        value = self._stored(value)
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self._data[key] = value
                return
            self._data[key] = value
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)
                self._evictions.inc()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        with self._lock:
            self._data.clear()

    def invalidate(self, fingerprint: Hashable) -> int:
        """Drop exactly the entries belonging to one fleet fingerprint.

        Matches keys that *are* the fingerprint or tuple keys whose first
        element is the fingerprint (the :class:`~.planner.Planner` key
        shape ``(fingerprint, n, algorithm, refine, mode)``).  Returns
        the number of entries dropped; untouched fingerprints keep their
        entries and their LRU positions.
        """
        return self.invalidate_where(
            lambda key: key == fingerprint
            or (isinstance(key, tuple) and bool(key) and key[0] == fingerprint)
        )

    def invalidate_where(self, predicate) -> int:
        """Drop every entry whose key satisfies ``predicate``; return the count.

        The predicate runs under the cache lock — keep it cheap and
        side-effect free.
        """
        with self._lock:
            doomed = [key for key in self._data if predicate(key)]
            for key in doomed:
                del self._data[key]
            if doomed:
                self._invalidations.inc(len(doomed))
            return len(doomed)

    @property
    def maxsize(self) -> int:
        return self._maxsize

    @property
    def name(self) -> str:
        """The instance label under which counters are registered."""
        return self._name

    def stats(self) -> CacheStats:
        """Consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits.value,
                misses=self._misses.value,
                evictions=self._evictions.value,
                size=len(self._data),
                maxsize=self._maxsize,
                invalidations=self._invalidations.value,
            )
