"""Nestable timing spans building a structured trace tree.

Two kinds of span land in the same tree:

* **wall-clock spans** — ``with span("planner.solve", n=n): ...`` times a
  real code region with ``perf_counter`` and attaches it under whatever
  span is open on the current thread;
* **recorded spans** — :func:`record` appends an already-measured (or
  *modelled*) duration, which is how the execution simulators merge their
  per-step panel/comm/update times into the same tree as the wall-clock
  spans around them.

Every completed span also observes the default registry's
``<name>.seconds`` histogram, so latency distributions come for free.

When telemetry is disabled (:func:`repro.obs.registry.is_enabled`),
:func:`span` returns a shared no-op context manager and :func:`record`
returns immediately — the cost is one attribute read plus one call, which
is what lets hot paths stay instrumented permanently.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from .registry import DEFAULT_TIME_BUCKETS, get_registry, is_enabled

__all__ = ["Span", "Tracer", "get_tracer", "set_tracer", "span", "record"]


@dataclass
class Span:
    """One node of the trace tree.

    ``kind`` is ``"wall"`` for clock-timed spans and ``"sim"`` for
    recorded (modelled) durations; ``status`` is ``"ok"`` or ``"error"``
    (the exception type's name lands in ``attrs["error"]``).

    Distributed-tracing identity is optional: ``trace_id`` / ``span_id``
    / ``parent_id`` stay empty for ordinary in-process spans (zero cost)
    and are filled by the serve stack's front ends, which build every
    request's spans themselves (a shard reports only its timings).
    ``repro trace`` grafts a node's tree under the router's attempt span
    by ``parent_id``.  ``started`` is an epoch timestamp (0.0 =
    unrecorded) so trees joined across machines keep absolute ordering.
    """

    name: str
    seconds: float = 0.0
    kind: str = "wall"
    status: str = "ok"
    attrs: dict[str, Any] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    trace_id: str = ""
    span_id: str = ""
    parent_id: str = ""
    started: float = 0.0

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "seconds": self.seconds,
            "kind": self.kind,
            "status": self.status,
            "attrs": dict(self.attrs),
            "children": [c.to_dict() for c in self.children],
        }
        # Trace identity is emitted only when set, keeping the JSON shape
        # of plain in-process spans unchanged.
        if self.trace_id:
            out["trace_id"] = self.trace_id
        if self.span_id:
            out["span_id"] = self.span_id
        if self.parent_id:
            out["parent_id"] = self.parent_id
        if self.started:
            out["started"] = self.started
        return out

    @classmethod
    def from_dict(cls, raw: Mapping) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output.

        The inverse of :meth:`to_dict`, tolerant of missing optional
        fields — this is how a ``/debug/traces`` document or a
        flight-recorder NDJSON dump is read back into a tree.
        """
        span = cls(
            name=str(raw.get("name", "")),
            seconds=float(raw.get("seconds", 0.0)),
            kind=str(raw.get("kind", "wall")),
            status=str(raw.get("status", "ok")),
            attrs=dict(raw.get("attrs") or {}),
            trace_id=str(raw.get("trace_id", "")),
            span_id=str(raw.get("span_id", "")),
            parent_id=str(raw.get("parent_id", "")),
            started=float(raw.get("started", 0.0)),
        )
        span.children = [cls.from_dict(c) for c in raw.get("children") or ()]
        return span


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NOOP = _NoopSpan()


class _SpanContext:
    """Context manager that opens/closes one wall-clock span."""

    __slots__ = ("_tracer", "_span", "_t0")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span
        self._t0 = 0.0

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        self._t0 = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        seconds = time.perf_counter() - self._t0
        sp = self._span
        sp.seconds = seconds
        if exc_type is not None:
            sp.status = "error"
            sp.attrs["error"] = exc_type.__name__
        self._tracer._pop(sp)
        return False  # never swallow the exception


class Tracer:
    """Collects completed spans into per-thread trees.

    Open spans live on a thread-local stack; completed top-level spans
    are appended (lock-protected) to the shared ``roots`` list, so trees
    from concurrent threads interleave without corrupting each other.
    """

    def __init__(self, *, observe_histograms: bool = True):
        self._local = threading.local()
        self._roots: list[Span] = []
        self._lock = threading.Lock()
        self._observe = observe_histograms

    # -- stack plumbing -------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # tolerate out-of-order exits
            stack.remove(span)
        self._attach(span)

    def _attach(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)
        if self._observe:
            get_registry().histogram(
                f"{span.name}.seconds", buckets=DEFAULT_TIME_BUCKETS
            ).observe(span.seconds)

    # -- public API -----------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """Open a wall-clock span (use as a context manager)."""
        return _SpanContext(self, Span(name=name, attrs=attrs))

    def record(
        self,
        name: str,
        seconds: float,
        *,
        attrs: Mapping[str, Any] | None = None,
        children: Iterable[tuple[str, float]] | None = None,
        kind: str = "sim",
    ) -> Span:
        """Append a completed span with an explicit duration.

        ``children`` is an optional iterable of ``(name, seconds)`` pairs
        recorded as leaf children of the new span — the natural shape for
        a simulator step's panel/comm/update breakdown.
        """
        sp = Span(
            name=name,
            seconds=float(seconds),
            kind=kind,
            attrs=dict(attrs or {}),
        )
        for child_name, child_seconds in children or ():
            sp.children.append(
                Span(name=child_name, seconds=float(child_seconds), kind=kind)
            )
        self._attach(sp)
        return sp

    def roots(self) -> list[Span]:
        """Snapshot of the completed top-level spans."""
        with self._lock:
            return list(self._roots)

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()
        self._local = threading.local()

    def __len__(self) -> int:
        with self._lock:
            return len(self._roots)


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the default tracer (returns the previous one; for tests)."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def span(name: str, **attrs: Any):
    """Module-level gated span: a no-op singleton when telemetry is off."""
    if not is_enabled():
        return _NOOP
    return _TRACER.span(name, **attrs)


def record(
    name: str,
    seconds: float,
    *,
    attrs: Mapping[str, Any] | None = None,
    children: Iterable[tuple[str, float]] | None = None,
    kind: str = "sim",
) -> Span | None:
    """Module-level gated record: returns ``None`` when telemetry is off."""
    if not is_enabled():
        return None
    return _TRACER.record(name, seconds, attrs=attrs, children=children, kind=kind)
