"""A process-shared warm tier behind the per-shard plan-cache LRU.

The per-shard :class:`~repro.planner.cache.PlanCache` dies with its
worker: a shard restart, a ``cluster join``/``leave`` rebalance or a
process-pool respawn cold-starts every plan the fleet had already paid
for.  This module adds the classic cache-aside second tier:

* :class:`WarmPlanStore` — a flat bounded key/value store living
  *outside* any single worker, FIFO-evicted beyond its bound.  Thread
  pools use a plain locked ``dict`` (:meth:`WarmPlanStore.local`).
  Process pools host that same local store inside a
  :class:`WarmStoreManager` server process and talk to it through a
  proxy (:meth:`WarmPlanStore.shared`): every store operation is one
  IPC round trip, the lock is taken inside the server, and the proxy
  pickles, so a freshly spawned worker attaches to the same store.
* :class:`TieredPlanCache` — a drop-in :class:`PlanCache` subclass doing
  **read-through** (an L1 miss consults the store — one round trip in
  process pools — and promotes the hit back into the LRU) and
  **write-through** (an insert reaches the store before ``put``
  returns — again one round trip in process pools).

Plans are pure functions of ``(fingerprint, n, algorithm, refine,
mode)`` — the :class:`~repro.planner.planner.Planner` key — so sharing
them across workers can never serve a wrong answer, only a warmer one;
the stored value is the bit-identical :class:`PartitionResult` minus its
``region`` bracket (heavy, and only useful to the worker that solved
it).  :meth:`TieredPlanCache.invalidate` keeps the exact-invalidation
contract two-tier: it drops the fingerprint from both tiers and *only*
that fingerprint.  Nothing is ever queued, so no write can land after
the drop.  The return value remains the L1 count — existing callers
keep their arithmetic.
"""

from __future__ import annotations

import threading
from dataclasses import replace
from multiprocessing.managers import BaseManager, BaseProxy
from typing import Any, Hashable

from .. import obs
from ..core.result import PartitionResult
from .cache import PlanCache

__all__ = ["TieredPlanCache", "WarmPlanStore"]

#: Default bound on warm-store entries (FIFO beyond it).
_DEFAULT_STORE_SIZE = 4096

#: What a proxy call raises once its manager has shut down: a closed or
#: reset connection (``ConnectionError`` covers ``BrokenPipeError``) or
#: the removed Unix socket of a fresh connection attempt.
_MANAGER_GONE = (EOFError, ConnectionError, FileNotFoundError)


class WarmPlanStore:
    """Bounded key/value plan store shared by every shard of a pool.

    :meth:`local` is a plain dict behind a ``threading.Lock`` (thread
    pools).  :meth:`shared` hosts exactly such a local store inside a
    :class:`WarmStoreManager` and returns a picklable proxy to it
    (process pools), so each operation is one round trip and the lock is
    only ever taken inside the server.  ``mapping`` and ``lock`` stay
    injectable for callers that bring their own (any insertion-ordered
    mapping and context-manager lock).

    Eviction beyond ``maxsize`` is FIFO in insertion order: the store is
    a longevity tier, not a recency tier, and FIFO needs no per-read
    bookkeeping.  Re-putting a stored key keeps its place and evicts
    nothing.
    """

    def __init__(self, mapping, lock, *, maxsize: int = _DEFAULT_STORE_SIZE):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self._data = mapping
        self._lock = lock
        self._maxsize = int(maxsize)

    @classmethod
    def local(cls, maxsize: int = _DEFAULT_STORE_SIZE) -> "WarmPlanStore":
        """In-process store for thread-mode shard pools."""
        return cls({}, threading.Lock(), maxsize=maxsize)

    @classmethod
    def shared(
        cls, manager: "WarmStoreManager", maxsize: int = _DEFAULT_STORE_SIZE
    ) -> "_HostedStoreProxy":
        """Cross-process store hosted in a started :class:`WarmStoreManager`."""
        store = manager.WarmPlanStore(maxsize)
        store._maxsize = int(maxsize)
        return store

    def get(self, key: Hashable) -> Any | None:
        with self._lock:
            return self._data.get(key)

    def keys(self) -> list:
        """A snapshot of the stored keys (diagnostics and tests)."""
        with self._lock:
            return list(self._data.keys())

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if key not in self._data and len(self._data) >= self._maxsize:
                del self._data[next(iter(self._data))]
            self._data[key] = value

    def invalidate(self, fingerprint: Hashable) -> int:
        """Drop exactly one fingerprint's entries; return the count."""
        with self._lock:
            doomed = [
                key
                for key in list(self._data.keys())
                if key == fingerprint
                or (isinstance(key, tuple) and bool(key) and key[0] == fingerprint)
            ]
            for key in doomed:
                del self._data[key]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    @property
    def maxsize(self) -> int:
        return self._maxsize


class _HostedStoreProxy(BaseProxy):
    """Client side of a :class:`WarmPlanStore` hosted in a manager.

    Each method is one ``_callmethod`` round trip; ``maxsize`` is kept
    here so reading it costs none.  Once the manager has shut down (a
    pool closing under a late reader), every method answers a miss,
    ``0`` or ``[]`` instead of raising.
    """

    _exposed_ = ("get", "put", "invalidate", "clear", "keys", "__len__")

    def __init__(self, *args, maxsize: int = _DEFAULT_STORE_SIZE, **kwds):
        super().__init__(*args, **kwds)
        self._maxsize = int(maxsize)

    def __reduce__(self):
        # Carry the client-side bound into spawned workers' copies.
        rebuild, (proxytype, token, serializer, kwds) = super().__reduce__()
        return rebuild, (proxytype, token, serializer, {**kwds, "maxsize": self._maxsize})

    def _call(self, method: str, args: tuple, gone: Any) -> Any:
        try:
            return self._callmethod(method, args)
        except _MANAGER_GONE:
            return gone

    def get(self, key: Hashable) -> Any | None:
        return self._call("get", (key,), None)

    def keys(self) -> list:
        return self._call("keys", (), [])

    def put(self, key: Hashable, value: Any) -> None:
        self._call("put", (key, value), None)

    def invalidate(self, fingerprint: Hashable) -> int:
        return self._call("invalidate", (fingerprint,), 0)

    def clear(self) -> None:
        self._call("clear", (), None)

    def __len__(self) -> int:
        return self._call("__len__", (), 0)

    @property
    def maxsize(self) -> int:
        return self._maxsize


class WarmStoreManager(BaseManager):
    """A manager server hosting :class:`WarmPlanStore` objects.

    ``manager.WarmPlanStore(maxsize)`` builds a :meth:`WarmPlanStore.local`
    store inside the server process and returns its proxy;
    :meth:`WarmPlanStore.shared` is the form that also records the bound
    on the proxy.
    """


WarmStoreManager.register(
    "WarmPlanStore", WarmPlanStore.local, proxytype=_HostedStoreProxy
)


class TieredPlanCache(PlanCache):
    """:class:`PlanCache` with a read-through / write-through warm tier.

    Lookup misses consult the shared :class:`WarmPlanStore` and promote
    hits into the LRU (counted as ``planner.cache.warm_hits``; the L1
    miss still counts as a miss, so L1 hit-rate math is unchanged).
    Inserts are written to the store before :meth:`put` returns.
    """

    def __init__(
        self,
        maxsize: int = 1024,
        *,
        warm: WarmPlanStore,
        name: str | None = None,
    ):
        super().__init__(maxsize, name=name)
        self._store = warm
        labels = {"cache": self.name}
        registry = obs.get_registry()
        self._warm_hits = registry.counter(
            "planner.cache.warm_hits",
            labels=labels,
            help="L1 misses answered by the shared warm tier",
        )
        self._warm_writes = registry.counter(
            "planner.cache.warm_writes",
            labels=labels,
            help="plans mirrored to the warm tier",
        )
        self._warm_invalidations = registry.counter(
            "planner.cache.warm_invalidations",
            labels=labels,
            help="warm-tier entries dropped by explicit invalidation",
        )

    # -- tiering --------------------------------------------------------
    def get(self, key: Hashable) -> Any | None:
        value = super().get(key)
        if value is not None:
            return value
        warm = self._store.get(key)
        if warm is None:
            return None
        self._warm_hits.inc()
        super().put(key, warm)
        return warm

    def put(self, key: Hashable, value: Any) -> None:
        super().put(key, value)
        self._store.put(key, _strip(value))
        self._warm_writes.inc()

    def invalidate(self, fingerprint: Hashable) -> int:
        count = super().invalidate(fingerprint)
        dropped = self._store.invalidate(fingerprint)
        if dropped:
            self._warm_invalidations.inc(dropped)
        return count

    # -- introspection --------------------------------------------------
    @property
    def warm_store(self) -> WarmPlanStore:
        return self._store

    def warm_stats(self) -> dict:
        """Warm-tier counter snapshot (rides in shard stats payloads)."""
        return {
            "hits": self._warm_hits.value,
            "writes": self._warm_writes.value,
            "invalidations": self._warm_invalidations.value,
            "entries": len(self._store),
        }


def _strip(value: Any) -> Any:
    """Shed the converged bracket before a value crosses process lines.

    The ``region`` is by far the heaviest field and is only meaningful
    to the planner that converged it; the mirrored plan stays
    bit-identical in everything the wire exposes.
    """
    if isinstance(value, PartitionResult) and value.region is not None:
        return replace(value, region=None)
    return value
