"""Trace identity that survives serialization boundaries.

A :class:`TraceContext` names one position in one distributed trace:
``trace_id`` identifies the whole request tree, ``span_id`` the current
node, ``parent_id`` the node it hangs under.  Contexts are immutable
values with a stable wire form (:meth:`TraceContext.to_dict` /
:meth:`TraceContext.from_dict`) that rides a protocol frame's ``trace``
field, so a client's request, or a router's forwarded attempt, is filed
under the caller's trace.  Shard workers never see one: the front end
builds shard spans from each batch's timing record.

IDs follow the W3C trace-context shape (128-bit trace ids, 64-bit span
ids, lowercase hex) so client-supplied ids from other tracing systems
can ride through untouched.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = ["TraceContext", "new_trace_id", "new_span_id"]

#: Lowercase-hex id shapes (W3C traceparent widths, but any 1..64-char
#: hex string is accepted on input so foreign systems interoperate).
_HEX_ID = re.compile(r"^[0-9a-f]{1,64}$")


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 hex chars)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (16 hex chars)."""
    return os.urandom(8).hex()


def _valid_id(value: Any) -> bool:
    return isinstance(value, str) and bool(_HEX_ID.match(value))


@dataclass(frozen=True)
class TraceContext:
    """One node's identity within a distributed trace (immutable)."""

    trace_id: str
    span_id: str
    parent_id: str | None = None

    @classmethod
    def new(cls) -> "TraceContext":
        """A fresh root context (new trace, new root span)."""
        return cls(trace_id=new_trace_id(), span_id=new_span_id())

    def child(self) -> "TraceContext":
        """A context for a new span parented under this one."""
        return TraceContext(
            trace_id=self.trace_id, span_id=new_span_id(), parent_id=self.span_id
        )

    def to_dict(self) -> dict:
        out = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_id:
            out["parent_id"] = self.parent_id
        return out

    @classmethod
    def from_dict(cls, raw: Mapping) -> "TraceContext":
        """Rebuild a context from its wire form; raises ``ValueError`` on
        malformed ids (callers at trust boundaries turn that into their
        own typed error)."""
        trace_id = raw.get("trace_id")
        span_id = raw.get("span_id")
        parent_id = raw.get("parent_id")
        if not _valid_id(trace_id):
            raise ValueError(f"trace_id must be lowercase hex, got {trace_id!r}")
        if span_id is None:
            span_id = new_span_id()
        elif not _valid_id(span_id):
            raise ValueError(f"span_id must be lowercase hex, got {span_id!r}")
        if parent_id is not None and not _valid_id(parent_id):
            raise ValueError(f"parent_id must be lowercase hex, got {parent_id!r}")
        return cls(trace_id=trace_id, span_id=span_id, parent_id=parent_id)
