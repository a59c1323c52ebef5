"""The flight recorder: a bounded ring of completed request traces.

A serving process answers thousands of requests a second; keeping every
trace would be an unbounded memory leak, keeping none makes "why was
*this* request slow at 03:12?" unanswerable.  The recorder holds the
middle ground with three bounded stores:

* a **ring buffer** of the most recent ``capacity`` traces (eviction is
  pure FIFO — the steady-state window);
* an **always-retain** store for traces that ended badly (shed with
  ``overloaded``, expired with ``deadline_exceeded``, or any error
  code) — under a load burst these are exactly the traces worth keeping
  and exactly the ones FIFO would flush first;
* a **top-K slowest** store (min-heap on duration) — the p99.9 outliers
  survive long after the ring has rolled over them.

A trace may sit in several stores at once; memory stays bounded because
every store has a fixed cap.  Everything is queryable by trace id
(``GET /debug/traces?id=...``), listable as summaries, and dumpable as
NDJSON for reading after a failed run (CI keeps the smokes' dumps).
The ``serve.trace.*`` counter group (recorded / retained / evicted /
sampled) lands in the process metrics registry, so ``/metrics`` shows
the recorder working.
"""

from __future__ import annotations

import heapq
import itertools
import json
import threading
from collections import deque
from dataclasses import dataclass
from typing import IO, Iterator

from .registry import get_registry
from .spans import Span

__all__ = ["RequestTrace", "FlightRecorder"]


@dataclass
class RequestTrace:
    """One completed request's trace: identity, verdict, and span tree.

    ``status`` is ``"ok"`` or the wire error code the request ended with
    (``overloaded``, ``deadline_exceeded``, ``infeasible``, ...).
    """

    trace_id: str
    op: str
    status: str = "ok"
    fleet: str = ""
    n: int | None = None
    started: float = 0.0
    seconds: float = 0.0
    root: Span | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def summary(self) -> dict:
        """The listing row: everything except the span tree."""
        return {
            "trace_id": self.trace_id,
            "op": self.op,
            "status": self.status,
            "fleet": self.fleet,
            "n": self.n,
            "started": self.started,
            "seconds": self.seconds,
        }

    def to_dict(self) -> dict:
        out = self.summary()
        if self.root is not None:
            out["spans"] = self.root.to_dict()
        return out


class FlightRecorder:
    """Bounded retention of completed :class:`RequestTrace` objects.

    Parameters
    ----------
    capacity:
        Ring-buffer size for recent traces (FIFO eviction).
    retain_capacity:
        Cap on the always-retain (error/shed/deadline) store.  Sized a
        few multiples of ``capacity`` so a shedding burst is retained in
        full; beyond it the *oldest* retained failures give way.
    slow_k:
        How many slowest traces survive independently of recency.
    """

    def __init__(
        self, capacity: int = 256, *, retain_capacity: int = 1024, slow_k: int = 16
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if retain_capacity <= 0:
            raise ValueError(f"retain_capacity must be positive, got {retain_capacity}")
        if slow_k < 0:
            raise ValueError(f"slow_k must be non-negative, got {slow_k}")
        self.capacity = int(capacity)
        self.retain_capacity = int(retain_capacity)
        self.slow_k = int(slow_k)
        self._ring: deque[RequestTrace] = deque()
        self._retained: deque[RequestTrace] = deque()
        self._slow: list[tuple[float, int, RequestTrace]] = []  # min-heap
        self._seq = itertools.count()
        self._lock = threading.Lock()

        reg = get_registry()
        self._recorded = reg.counter(
            "serve.trace.recorded", help="completed request traces recorded"
        )
        self._retained_counter = reg.counter(
            "serve.trace.retained",
            help="traces pinned by an always-retain policy (error/shed/deadline/slow)",
        )
        self._evicted = reg.counter(
            "serve.trace.evicted", help="traces dropped by bounded-memory eviction"
        )
        self._sampled = reg.counter(
            "serve.trace.sampled", help="requests not traced due to sampling"
        )

    # -- ingest ---------------------------------------------------------
    def record(self, trace: RequestTrace) -> None:
        """Retain one completed trace under every applicable policy."""
        with self._lock:
            self._recorded.inc()
            self._ring.append(trace)
            if len(self._ring) > self.capacity:
                self._ring.popleft()
                self._evicted.inc()
            if not trace.ok:
                self._retained_counter.inc()
                self._retained.append(trace)
                if len(self._retained) > self.retain_capacity:
                    self._retained.popleft()
                    self._evicted.inc()
            if self.slow_k:
                entry = (trace.seconds, next(self._seq), trace)
                if len(self._slow) < self.slow_k:
                    heapq.heappush(self._slow, entry)
                    self._retained_counter.inc()
                elif entry[0] > self._slow[0][0]:
                    heapq.heapreplace(self._slow, entry)
                    self._retained_counter.inc()

    def note_sampled(self, count: int = 1) -> None:
        """Account requests that were *not* traced (sampling decision)."""
        self._sampled.inc(count)

    # -- query ----------------------------------------------------------
    def _all(self) -> Iterator[RequestTrace]:
        seen: set[int] = set()
        for trace in itertools.chain(
            self._ring, self._retained, (e[2] for e in self._slow)
        ):
            if id(trace) not in seen:
                seen.add(id(trace))
                yield trace

    def get(self, trace_id: str) -> RequestTrace | None:
        """The retained trace with this id, if any store still holds it."""
        with self._lock:
            for trace in self._all():
                if trace.trace_id == trace_id:
                    return trace
        return None

    def traces(
        self,
        *,
        errors_only: bool = False,
        slow_only: bool = False,
        limit: int | None = None,
    ) -> list[RequestTrace]:
        """Retained traces, most recent first (slowest first for ``slow_only``)."""
        with self._lock:
            if slow_only:
                out = [e[2] for e in sorted(self._slow, reverse=True)]
            elif errors_only:
                out = list(self._retained)[::-1]
            else:
                out = sorted(
                    self._all(), key=lambda t: (t.started, t.trace_id), reverse=True
                )
        return out[:limit] if limit is not None else out

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for _ in self._all())

    def stats(self) -> dict:
        """The ``serve.trace.*`` counter group plus live store sizes."""
        with self._lock:
            ring, retained, slow = len(self._ring), len(self._retained), len(self._slow)
        return {
            "recorded": int(self._recorded.value),
            "retained": int(self._retained_counter.value),
            "evicted": int(self._evicted.value),
            "sampled": int(self._sampled.value),
            "ring_size": ring,
            "error_store_size": retained,
            "slow_store_size": slow,
            "capacity": self.capacity,
        }

    # -- export ---------------------------------------------------------
    def to_ndjson(self, fh: IO[str]) -> int:
        """Dump every retained trace as one JSON object per line.

        Returns the number of traces written; each line is one trace's
        :meth:`RequestTrace.to_dict` form, span tree included.
        """
        count = 0
        for trace in self.traces():
            fh.write(json.dumps(trace.to_dict(), separators=(",", ":")) + "\n")
            count += 1
        return count

    def dump(self, path: str) -> int:
        """Write the NDJSON dump to ``path``; returns the trace count."""
        with open(path, "w", encoding="utf-8") as fh:
            return self.to_ndjson(fh)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._retained.clear()
            self._slow.clear()
