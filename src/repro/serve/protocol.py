"""The planning service's versioned JSON request/response protocol.

One request or response per frame; a frame is one JSON object encoded in
UTF-8 and terminated by ``\\n`` (newline-delimited JSON).  The same
objects travel over the raw TCP listener, the HTTP ``POST /v1/rpc``
endpoint and straight into :meth:`~repro.serve.service.PlanningService.handle`
in tests — the protocol layer is transport-agnostic.

Requests::

    {"v": 1, "id": 7, "op": "plan", "fleet": "<fingerprint>", "n": 1000000,
     "timeout_ms": 50, "allocation": false}
    {"v": 1, "id": 8, "op": "plan_many", "fleet": "<fp>", "ns": [1, 2, 3]}
    {"v": 1, "id": 9, "op": "register_fleet", "name": "testbed",
     "speed_functions": [...], "algorithm": "bisection",
     "options": {"mode": "tangent", "refine": "greedy"}}
    {"v": 1, "id": 10, "op": "health"}
    {"v": 1, "id": 11, "op": "stats"}
    {"v": 1, "id": 12, "op": "observe", "fleet": "<fp>",
     "observations": [{"machine": 0, "size": 1e6, "speed": 81.5,
                       "timestamp": 12.5, "source": "step"}, ...]}

``plan`` and ``plan_many`` accept an optional ``trace`` object
(``{"trace_id": "<hex>", "span_id": "<hex>"}``) carrying a
client-supplied distributed-tracing identity; the response then echoes
that ``trace_id`` and the flight recorder files the request under it.
Requests without it get a server-generated trace id.

``plan`` and ``plan_many`` also accept an optional ``tenant`` string
(the quota and fair-queueing identity; absent means the shared default
tenant) and an optional ``idempotency_key`` (a retry carrying the same
key within the server's dedup window is answered with the original
response, solved exactly once).  Both fields are additive: legacy v1
frames without them behave exactly as before.

Responses echo ``v`` and ``id`` and carry either ``"ok": true`` plus a
``result`` object, or ``"ok": false`` plus an ``error`` object with a
machine-readable ``code`` (one of :data:`ERROR_CODES`) and a human
``message``.  Speed functions ride in the same JSON records as the
:mod:`repro.io` model files, so a fleet registered over the wire gets the
**same fingerprint** as one built locally from the same models — cache
keys survive service restarts (covered by the fingerprint-stability
tests).

Validation reuses the library's option typing: ``options`` keys must be
:class:`~repro.core.options.PartitionOptions` fields, and violations
raise :class:`ProtocolError`, a :class:`~repro.exceptions.ConfigurationError`
subtype carrying the wire-level error code.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from ..core.options import PartitionOptions
from ..exceptions import (
    ConfigurationError,
    InfeasiblePartitionError,
    InvalidSpeedFunctionError,
)
from ..io import speed_function_from_dict, speed_function_to_dict
from ..obs.context import TraceContext

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ERROR_CODES",
    "ProtocolError",
    "PlanRequest",
    "PlanManyRequest",
    "RegisterFleetRequest",
    "ObserveRequest",
    "HealthRequest",
    "StatsRequest",
    "parse_request",
    "plan_fields",
    "encode_frame",
    "decode_frame",
    "ok_response",
    "error_response",
    "error_code_for",
    "fleet_spec_from_speed_functions",
    "speed_functions_from_fleet_spec",
    "registration_info",
]

#: Current wire protocol version.  Responses always carry the server's
#: version; requests for other versions are rejected with
#: ``unsupported_version``.
PROTOCOL_VERSION = 1

#: Upper bound on one frame (a p=10⁴ fleet registration is ~2 MB; 32 MB
#: leaves headroom while still bounding a hostile client's allocation).
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Machine-readable error codes a response may carry.
ERROR_CODES = frozenset(
    {
        "invalid_request",  # malformed frame / bad fields / bad options
        "unsupported_version",  # protocol version mismatch
        "unknown_op",  # op not in the table below
        "unknown_fleet",  # fingerprint never registered
        "infeasible",  # n exceeds fleet capacity (or n < 0)
        "overloaded",  # load shed: shard queue full
        "deadline_exceeded",  # request expired before a worker reached it
        "shutting_down",  # server draining; no new work accepted
        "internal",  # unexpected failure inside a worker
        "unavailable",  # cluster router: no live replica could answer
        "throttled",  # the tenant's token-bucket quota is exhausted
    }
)

#: Length caps on the optional multi-tenancy identity fields — long
#: enough for any real naming scheme, short enough to bound hostile
#: frames.
MAX_TENANT_LEN = 128
MAX_IDEMPOTENCY_KEY_LEN = 256

#: Option fields a fleet registration may set (the serialisable subset
#: of :class:`PartitionOptions` — rich objects like ``region``/``pack``
#: are planner-internal and never cross the wire).
_WIRE_OPTION_FIELDS = frozenset({"mode", "refine"})

_PLANNER_ALGORITHMS = frozenset({"bisection", "combined", "modified"})


class ProtocolError(ConfigurationError):
    """A request that cannot be served, tagged with its wire error code."""

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown protocol error code {code!r}")
        super().__init__(message)
        self.code = code


def error_code_for(exc: BaseException) -> str:
    """The wire code describing a library exception."""
    if isinstance(exc, ProtocolError):
        return exc.code
    if isinstance(exc, InfeasiblePartitionError):
        return "infeasible"
    if isinstance(exc, (ConfigurationError, InvalidSpeedFunctionError)):
        return "invalid_request"
    return "internal"


# ---------------------------------------------------------------------------
# Typed requests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanRequest:
    id: Any
    fleet: str
    n: int
    timeout_ms: float | None = None
    allocation: bool = True
    trace: TraceContext | None = None
    tenant: str = ""
    idempotency_key: str | None = None

    op = "plan"


@dataclass(frozen=True)
class PlanManyRequest:
    id: Any
    fleet: str
    ns: tuple[int, ...]
    timeout_ms: float | None = None
    allocation: bool = True
    trace: TraceContext | None = None
    tenant: str = ""
    idempotency_key: str | None = None

    op = "plan_many"


@dataclass(frozen=True)
class RegisterFleetRequest:
    id: Any
    name: str
    speed_functions: tuple[Mapping, ...]
    algorithm: str = "bisection"
    options: PartitionOptions = field(default_factory=PartitionOptions)
    cache_size: int = 1024

    op = "register_fleet"

    def spec(self) -> dict:
        """The normalised fleet spec this registration ships to shards/nodes."""
        return fleet_spec_from_speed_functions(
            speed_functions_from_fleet_spec({"speed_functions": self.speed_functions}),
            name=self.name,
            algorithm=self.algorithm,
            options=self.options,
            cache_size=self.cache_size,
        )


@dataclass(frozen=True)
class ObserveRequest:
    """Feed observed ``(machine, size, speed)`` telemetry to one fleet.

    Each observation is a wire mapping for
    :class:`repro.adapt.Observation`; the service validates the values
    (sizes positive, speeds finite, ...) so a malformed record answers
    ``invalid_request`` instead of poisoning the sink.
    """

    id: Any
    fleet: str
    observations: tuple[Mapping, ...]

    op = "observe"


@dataclass(frozen=True)
class HealthRequest:
    id: Any

    op = "health"


@dataclass(frozen=True)
class StatsRequest:
    id: Any

    op = "stats"


Request = (
    PlanRequest
    | PlanManyRequest
    | RegisterFleetRequest
    | ObserveRequest
    | HealthRequest
    | StatsRequest
)


def _require(raw: Mapping, key: str, kinds: type | tuple, what: str) -> Any:
    try:
        value = raw[key]
    except KeyError:
        raise ProtocolError(
            "invalid_request", f"{what} request is missing the {key!r} field"
        ) from None
    if not isinstance(value, kinds):
        raise ProtocolError(
            "invalid_request",
            f"{what} request field {key!r} must be "
            f"{kinds if isinstance(kinds, type) else '/'.join(k.__name__ for k in kinds)}, "
            f"got {type(value).__name__}",
        )
    return value


def _as_size(value: Any, what: str) -> int:
    # bool is an int subclass; a boolean problem size is always a bug.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            "invalid_request", f"{what} must be a number, got {type(value).__name__}"
        )
    # Python's json accepts the NaN and Infinity literals.
    if isinstance(value, float) and not math.isfinite(value):
        raise ProtocolError("invalid_request", f"{what} must be finite, got {value}")
    return int(value)


def _parse_trace(raw: Mapping) -> TraceContext | None:
    """The request's optional ``trace`` object as a typed context.

    ``{"trace": {"trace_id": "...", "span_id": "..."}}`` lets a client
    (or an upstream proxy speaking another tracing system) thread its own
    identity through the service — the response and the flight recorder
    carry the client's trace id instead of a server-generated one.  The
    field is new in protocol v1 and optional, so v1 clients that never
    send it are unaffected.
    """
    rec = raw.get("trace")
    if rec is None:
        return None
    if not isinstance(rec, Mapping):
        raise ProtocolError(
            "invalid_request", f"trace must be an object, got {type(rec).__name__}"
        )
    try:
        return TraceContext.from_dict(rec)
    except ValueError as exc:
        raise ProtocolError("invalid_request", str(exc)) from exc


def _parse_tenant(raw: Mapping) -> str:
    """The request's optional ``tenant`` field (``""`` when absent).

    New in protocol v1 and optional: frames without it share the ``""``
    tenant and behave exactly as before tenancy existed.
    """
    tenant = raw.get("tenant", "")
    if not isinstance(tenant, str):
        raise ProtocolError(
            "invalid_request",
            f"tenant must be a string, got {type(tenant).__name__}",
        )
    if len(tenant) > MAX_TENANT_LEN:
        raise ProtocolError(
            "invalid_request", f"tenant exceeds {MAX_TENANT_LEN} characters"
        )
    return tenant


def _parse_idempotency_key(raw: Mapping) -> str | None:
    """The request's optional ``idempotency_key`` (``None`` when absent).

    A retry carrying the same key within the server's dedup window gets
    the original response back without a second solve.
    """
    key = raw.get("idempotency_key")
    if key is None:
        return None
    if not isinstance(key, str) or not key:
        raise ProtocolError(
            "invalid_request", "idempotency_key must be a non-empty string"
        )
    if len(key) > MAX_IDEMPOTENCY_KEY_LEN:
        raise ProtocolError(
            "invalid_request",
            f"idempotency_key exceeds {MAX_IDEMPOTENCY_KEY_LEN} characters",
        )
    return key


def _parse_timeout(raw: Mapping) -> float | None:
    timeout = raw.get("timeout_ms")
    if timeout is None:
        return None
    if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
        raise ProtocolError(
            "invalid_request",
            f"timeout_ms must be a number, got {type(timeout).__name__}",
        )
    if timeout <= 0:
        raise ProtocolError("invalid_request", f"timeout_ms must be positive, got {timeout}")
    return float(timeout)


def parse_options(raw_options: Any) -> PartitionOptions:
    """A typed :class:`PartitionOptions` from a request's option mapping.

    Keys must be option fields *and* members of the serialisable subset;
    anything else raises a :class:`ProtocolError` naming the field, in
    the spirit of :func:`~repro.core.options.reject_unknown_options`.
    """
    if raw_options is None:
        return PartitionOptions()
    if not isinstance(raw_options, Mapping):
        raise ProtocolError(
            "invalid_request",
            f"options must be an object, got {type(raw_options).__name__}",
        )
    known = PartitionOptions.field_names()
    for name in raw_options:
        if name not in known:
            raise ProtocolError(
                "invalid_request", f"unknown partition option {name!r}"
            )
        if name not in _WIRE_OPTION_FIELDS:
            raise ProtocolError(
                "invalid_request",
                f"partition option {name!r} cannot be set over the wire",
            )
    options = PartitionOptions(**dict(raw_options))
    # Reject bad values at the front door: a typo'd mode/refine would
    # otherwise surface per-item inside the first solved batch.
    if options.mode not in ("tangent", "angle"):
        raise ProtocolError(
            "invalid_request", f"unknown bisection mode {options.mode!r}"
        )
    if options.refine not in ("greedy", "paper"):
        raise ProtocolError(
            "invalid_request", f"unknown refine procedure {options.refine!r}"
        )
    return options


def parse_request(raw: Any) -> Request:
    """Validate one decoded frame into a typed request.

    Raises :class:`ProtocolError` (never a bare ``KeyError``/``TypeError``)
    on anything malformed, so transports can turn any failure into a
    well-formed error response.
    """
    if not isinstance(raw, Mapping):
        raise ProtocolError(
            "invalid_request", f"a request must be a JSON object, got {type(raw).__name__}"
        )
    version = raw.get("v", PROTOCOL_VERSION)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported_version",
            f"protocol version {version!r} is not supported (server speaks "
            f"{PROTOCOL_VERSION})",
        )
    req_id = raw.get("id")
    op = raw.get("op")
    if not isinstance(op, str):
        raise ProtocolError("invalid_request", "request is missing the 'op' field")

    if op == "plan":
        return PlanRequest(
            id=req_id,
            fleet=_require(raw, "fleet", str, "plan"),
            n=_as_size(_require(raw, "n", (int, float), "plan"), "n"),
            timeout_ms=_parse_timeout(raw),
            allocation=bool(raw.get("allocation", True)),
            trace=_parse_trace(raw),
            tenant=_parse_tenant(raw),
            idempotency_key=_parse_idempotency_key(raw),
        )
    if op == "plan_many":
        ns = _require(raw, "ns", (list, tuple), "plan_many")
        return PlanManyRequest(
            id=req_id,
            fleet=_require(raw, "fleet", str, "plan_many"),
            ns=tuple(_as_size(n, "ns entries") for n in ns),
            timeout_ms=_parse_timeout(raw),
            allocation=bool(raw.get("allocation", True)),
            trace=_parse_trace(raw),
            tenant=_parse_tenant(raw),
            idempotency_key=_parse_idempotency_key(raw),
        )
    if op == "register_fleet":
        sfs = _require(raw, "speed_functions", (list, tuple), "register_fleet")
        if not sfs:
            raise ProtocolError(
                "invalid_request", "register_fleet needs at least one speed function"
            )
        for i, rec in enumerate(sfs):
            if not isinstance(rec, Mapping):
                raise ProtocolError(
                    "invalid_request",
                    f"speed_functions[{i}] must be an object, got {type(rec).__name__}",
                )
        algorithm = raw.get("algorithm", "bisection")
        if algorithm not in _PLANNER_ALGORITHMS:
            raise ProtocolError(
                "invalid_request",
                f"unknown planner algorithm {algorithm!r}; expected one of "
                f"{sorted(_PLANNER_ALGORITHMS)}",
            )
        cache_size = raw.get("cache_size", 1024)
        if isinstance(cache_size, bool) or not isinstance(cache_size, int) or cache_size <= 0:
            raise ProtocolError(
                "invalid_request", f"cache_size must be a positive integer, got {cache_size!r}"
            )
        name = raw.get("name", "")
        if not isinstance(name, str):
            raise ProtocolError(
                "invalid_request", f"name must be a string, got {type(name).__name__}"
            )
        return RegisterFleetRequest(
            id=req_id,
            name=name,
            speed_functions=tuple(sfs),
            algorithm=algorithm,
            options=parse_options(raw.get("options")),
            cache_size=cache_size,
        )
    if op == "observe":
        recs = _require(raw, "observations", (list, tuple), "observe")
        if not recs:
            raise ProtocolError(
                "invalid_request", "observe needs at least one observation"
            )
        for i, rec in enumerate(recs):
            if not isinstance(rec, Mapping):
                raise ProtocolError(
                    "invalid_request",
                    f"observations[{i}] must be an object, got {type(rec).__name__}",
                )
        return ObserveRequest(
            id=req_id,
            fleet=_require(raw, "fleet", str, "observe"),
            observations=tuple(recs),
        )
    if op == "health":
        return HealthRequest(id=req_id)
    if op == "stats":
        return StatsRequest(id=req_id)
    raise ProtocolError("unknown_op", f"unknown operation {op!r}")


def plan_fields(
    fleet: str,
    *,
    n: int | None = None,
    ns: Sequence[int] | None = None,
    timeout_ms: float | None = None,
    allocation: bool = True,
    trace: Mapping | None = None,
    tenant: str = "",
    idempotency_key: str | None = None,
) -> dict:
    """The wire fields of a ``plan`` (pass ``n``) or ``plan_many`` (pass
    ``ns``) request.  Unset optional fields are left out, so a request
    that does not use them is a legacy v1 frame."""
    fields: dict[str, Any] = {"fleet": fleet}
    if ns is None:
        fields["n"] = int(n)
    else:
        fields["ns"] = [int(x) for x in ns]
    fields["allocation"] = allocation
    if timeout_ms is not None:
        fields["timeout_ms"] = timeout_ms
    if trace is not None:
        fields["trace"] = dict(trace)
    if tenant:
        fields["tenant"] = tenant
    if idempotency_key is not None:
        fields["idempotency_key"] = idempotency_key
    return fields


# ---------------------------------------------------------------------------
# Framing and response builders
# ---------------------------------------------------------------------------


def encode_frame(obj: Mapping) -> bytes:
    """One JSON object as a newline-terminated UTF-8 frame."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes | str) -> dict:
    """Decode one frame; malformed JSON raises :class:`ProtocolError`."""
    if isinstance(line, bytes):
        if len(line) > MAX_FRAME_BYTES:
            raise ProtocolError(
                "invalid_request", f"frame exceeds {MAX_FRAME_BYTES} bytes"
            )
        line = line.decode("utf-8", errors="replace")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("invalid_request", f"malformed JSON frame: {exc}") from exc
    except RecursionError as exc:
        # Pathologically nested JSON overflows the parser's stack; answer
        # with a typed error instead of letting the handler task die.
        raise ProtocolError("invalid_request", "frame nests too deeply") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            "invalid_request", f"a frame must hold a JSON object, got {type(obj).__name__}"
        )
    return obj


def ok_response(req_id: Any, result: Mapping, *, trace_id: str | None = None) -> dict:
    out = {"v": PROTOCOL_VERSION, "id": req_id, "ok": True, "result": dict(result)}
    if trace_id:
        out["trace_id"] = trace_id
    return out


def error_response(
    req_id: Any, code: str, message: str, *, trace_id: str | None = None
) -> dict:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown protocol error code {code!r}")
    out = {
        "v": PROTOCOL_VERSION,
        "id": req_id,
        "ok": False,
        "error": {"code": code, "message": str(message)},
    }
    if trace_id:
        out["trace_id"] = trace_id
    return out


# ---------------------------------------------------------------------------
# Fleet specs: how a fleet's models travel between client, front-end and
# worker shards.  Reuses the repro.io JSON records verbatim, which is what
# makes wire-registered fleets fingerprint-identical to locally built ones.
# ---------------------------------------------------------------------------


def fleet_spec_from_speed_functions(
    speed_functions: Sequence,
    *,
    name: str = "",
    algorithm: str = "bisection",
    options: PartitionOptions | None = None,
    cache_size: int = 1024,
) -> dict:
    """A picklable/JSON-able spec for shipping a fleet to workers."""
    options = options or PartitionOptions()
    return {
        "name": name,
        "algorithm": algorithm,
        "mode": options.mode,
        "refine": options.refine,
        "cache_size": int(cache_size),
        "speed_functions": [speed_function_to_dict(sf) for sf in speed_functions],
    }


def speed_functions_from_fleet_spec(spec: Mapping) -> list:
    """Rebuild the speed-function objects named by a fleet spec."""
    return [speed_function_from_dict(rec) for rec in spec["speed_functions"]]


def registration_info(fleet, spec: Mapping) -> dict:
    """The fields every ``register_fleet`` answer carries, node or router.

    ``capacity`` is ``None`` when a machine has no memory bound: RFC 8259
    JSON has no infinity, so a strict client could not parse one.
    """
    return {
        "fingerprint": fleet.fingerprint,
        "name": fleet.name,
        "p": fleet.p,
        "capacity": fleet.capacity if math.isfinite(fleet.capacity) else None,
        "algorithm": spec.get("algorithm", "bisection"),
    }
