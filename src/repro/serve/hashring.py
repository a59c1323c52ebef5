"""Consistent hashing: pinning fleet fingerprints to worker shards.

Every fleet fingerprint must be answered by exactly one shard, because
that shard's process-local :class:`~repro.planner.Planner` holds the
fleet's plan cache — routing the same
fingerprint to two shards would halve the cache hit rate and double the
memory.  A plain ``hash(fp) % shards`` would do for a fixed pool, but it
reshuffles *every* fingerprint when the pool is resized; the classic
consistent-hash ring moves only ``~1/shards`` of the keyspace per
added/removed shard, so a resized service keeps most of its warm caches.

The ring is built from :func:`hashlib.blake2b` digests, never from
Python's randomised ``hash()``, so the fingerprint→shard mapping is
stable across processes and restarts — a requirement for the worker
processes, which must agree with the front-end about ownership.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Hashable, Iterable, Sequence

__all__ = ["HashRing"]


def _point(data: str) -> int:
    """A stable 64-bit ring coordinate for ``data``."""
    return int.from_bytes(
        hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """A consistent-hash ring mapping string keys to member nodes.

    Parameters
    ----------
    nodes:
        Initial members (any hashable labels; the shard pool uses shard
        indices).
    replicas:
        Virtual points per node.  More points smooth the keyspace split
        (the default 64 keeps the max/min shard share within ~20% for
        typical pool sizes) at a small O(replicas log replicas) build
        cost per node.
    """

    def __init__(self, nodes: Iterable[Hashable] = (), *, replicas: int = 64):
        if replicas <= 0:
            raise ValueError(f"replicas must be positive, got {replicas}")
        self._replicas = replicas
        self._points: list[int] = []
        self._owners: dict[int, Hashable] = {}
        self._nodes: set[Hashable] = set()
        for node in nodes:
            self.add(node)

    # -- membership -----------------------------------------------------
    def add(self, node: Hashable) -> None:
        """Add a node (idempotent)."""
        if node in self._nodes:
            return
        self._nodes.add(node)
        for v in range(self._replicas):
            point = _point(f"{node!r}#{v}")
            # blake2b collisions across distinct labels are practically
            # impossible; keep the first owner if one ever happens.
            if point not in self._owners:
                bisect.insort(self._points, point)
                self._owners[point] = node

    def remove(self, node: Hashable) -> None:
        """Remove a node (idempotent)."""
        if node not in self._nodes:
            return
        self._nodes.discard(node)
        for v in range(self._replicas):
            point = _point(f"{node!r}#{v}")
            if self._owners.get(point) == node:
                del self._owners[point]
                idx = bisect.bisect_left(self._points, point)
                del self._points[idx]

    @property
    def nodes(self) -> frozenset:
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._nodes

    # -- lookups --------------------------------------------------------
    def node_for(self, key: str) -> Hashable:
        """The node owning ``key`` (first point clockwise of its hash)."""
        if not self._points:
            raise ValueError("cannot route on an empty ring")
        idx = bisect.bisect_right(self._points, _point(str(key)))
        if idx == len(self._points):
            idx = 0
        return self._owners[self._points[idx]]

    def nodes_for(self, key: str, count: int) -> list[Hashable]:
        """Up to ``count`` distinct nodes for ``key``: owner, then successors.

        The first entry is always :meth:`node_for`'s answer; the rest are
        the next distinct owners walking the ring clockwise — the replica
        set the cluster router falls back across.  Two stability
        properties make this safe to use for replication (asserted by the
        Hypothesis suite): a node that is not in the set owns no ring
        point before the set's last pick, so removing it never changes
        the set; and adding a node either leaves the set alone or inserts
        the new node, displacing only the tail.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if not self._points:
            raise ValueError("cannot route on an empty ring")
        idx = bisect.bisect_right(self._points, _point(str(key)))
        out: list[Hashable] = []
        seen: set[Hashable] = set()
        for k in range(len(self._points)):
            owner = self._owners[self._points[(idx + k) % len(self._points)]]
            if owner not in seen:
                seen.add(owner)
                out.append(owner)
                if len(out) == count:
                    break
        return out

    def distribution(self, keys: Sequence[str]) -> dict[Hashable, int]:
        """How many of ``keys`` each node owns (diagnostics)."""
        out: dict[Hashable, int] = {node: 0 for node in self._nodes}
        for key in keys:
            out[self.node_for(key)] += 1
        return out
