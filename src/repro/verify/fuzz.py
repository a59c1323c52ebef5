"""Seeded fuzzing of the serve protocol and chaos runs of the adapt layer.

Two independent fuzzers share one report format:

:func:`fuzz_protocol`
    Boots a real :class:`~repro.serve.server.PlanServer` (ephemeral
    ports, background thread) and throws seeded mutated NDJSON frames at
    the TCP listener and mutated requests at the HTTP listener.  Plans
    go to a bounded fleet or to one with an unbounded machine, where only
    the 2**53 size limit stops a junk size.  The contract under test: the
    server answers malformed input with a *typed* error (``code`` in
    :data:`~repro.serve.protocol.ERROR_CODES`, never ``internal``) and
    never crashes, hangs, or wedges a connection.  After every mutated
    frame a health probe with a unique id must come back on the same
    connection (reconnecting only where the protocol documents a
    deliberate close, e.g. an over-limit frame), a TCP frame that
    decodes to an object with a string or integer ``id`` must be
    answered under that id, every line the server emits must parse as a
    strict (RFC 8259) JSON object, with no ``NaN`` or ``Infinity``, and
    the server must stop when the sweep ends (``wedged`` otherwise).

:func:`fuzz_adapt`
    Drives :func:`~repro.adapt.mm.simulate_striped_matmul_adaptive`
    under randomized :class:`~repro.adapt.faults.FaultScript` scenarios
    on the virtual clock and asserts the recovery invariants that hold
    for *any* script: allocations stay non-negative and never exceed the
    problem size, a machine that dropped mid-run ends with zero
    elements, a fault-free run conserves the plan exactly, the makespan
    stays finite, and a rerun with identical arguments is bit-identical
    (runs are pure functions of ``(plan, script, seed)``).

Every case is a pure function of ``(seed, index)``; failures carry a
one-line replay command (``repro verify --seed S --only-frame K`` /
``--only-run K``).
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .. import obs
from ..adapt.faults import Dropout, FaultScript, LoadShift
from ..adapt.mm import simulate_striped_matmul_adaptive
from ..adapt.replanner import AdaptivePolicy
from ..core import partition
from ..core.speed_function import PiecewiseLinearSpeedFunction
from ..io import speed_function_to_dict
from ..serve.protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
)
from ..serve.server import start_in_thread
from ..serve.service import ServeConfig

__all__ = ["FuzzFailure", "FuzzReport", "fuzz_protocol", "fuzz_adapt"]

_PROBE_TIMEOUT = 10.0


@dataclass(frozen=True)
class FuzzFailure:
    """One broken contract, with enough context to replay it."""

    kind: str
    index: int
    seed: int
    detail: str
    layer: str  # "protocol" or "adapt"

    @property
    def replay(self) -> str:
        flag = "--only-frame" if self.layer == "protocol" else "--only-run"
        return f"python -m repro verify --seed {self.seed} {flag} {self.index}"

    def line(self) -> str:
        return (
            f"FUZZ[{self.layer}] {self.kind} at index {self.index}: "
            f"{self.detail}  |  replay: {self.replay}"
        )


@dataclass
class FuzzReport:
    """Outcome of one fuzzing sweep."""

    seed: int
    layer: str
    cases: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        verdict = "ok" if self.ok else "FAILED"
        return (
            f"fuzz[{self.layer}] {verdict}: {self.cases} cases, "
            f"{len(self.failures)} failures (seed {self.seed})"
        )


def _record(layer: str, failures: Sequence[FuzzFailure]) -> None:
    registry = obs.get_registry()
    registry.counter("verify.cases", labels={"layer": f"fuzz.{layer}"}).inc()
    for f in failures:
        registry.counter("verify.violations", labels={"check": f.kind}).inc()


# ---------------------------------------------------------------------------
# Protocol fuzzing
# ---------------------------------------------------------------------------

_JUNK = (
    None, True, False, [], {}, "", "x", -1, 0, 1.5, 10**24, -(10**24),
    1e308, "\x00", {"a": 1}, [1, 2, 3], "𝔘𝔫𝔦", " ", "plan ",
    float("nan"), float("inf"), 2**63, 10**19,
)

#: The numbers among the junk: problem sizes that are negative,
#: fractional, non-finite, or past the 2**53 size limit.
_SIZES = tuple(j for j in _JUNK if type(j) in (int, float))

#: A machine with no memory bound: on its fleet only the 2**53 size
#: limit turns a huge ``n`` away.
_UNBOUNDED = {"kind": "constant", "speed": 50.0}


class _Conn:
    """A blocking NDJSON connection with line-buffered reads."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=_PROBE_TIMEOUT)
        self._buf = b""

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def readline(self) -> bytes:
        """One newline-terminated line; ``b""`` on EOF; raises on timeout."""
        while b"\n" not in self._buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                out, self._buf = self._buf, b""
                return out
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line + b"\n"

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover
            pass


def _valid_frames(fleets: Sequence[str], rng: np.random.Generator) -> list[dict]:
    """Template requests the mutators start from; plans pick one of ``fleets``."""
    n = (0, 1, int(rng.integers(0, 200_000)))[int(rng.integers(0, 3))]
    fingerprint = fleets[int(rng.integers(0, len(fleets)))]
    return [
        {"v": PROTOCOL_VERSION, "id": 1, "op": "plan", "fleet": fingerprint,
         "n": n},
        {"v": PROTOCOL_VERSION, "id": 2, "op": "plan_many", "fleet": fingerprint,
         "ns": [int(x) for x in rng.integers(0, 50_000, size=3)]},
        {"v": PROTOCOL_VERSION, "id": 3, "op": "health"},
        {"v": PROTOCOL_VERSION, "id": 4, "op": "stats"},
        {"v": PROTOCOL_VERSION, "id": 5, "op": "register_fleet", "name": "fz",
         "speed_functions": [{"kind": "constant", "speed": 10.0, "max_size": 100.0}]},
    ]


def _mutate_tcp(frame: dict, rng: np.random.Generator) -> bytes:
    """One mutated, newline-terminated TCP frame."""
    strategy = int(rng.integers(0, 14))
    obj = dict(frame)
    if strategy == 0:  # valid passthrough
        pass
    elif strategy == 1 and obj:  # drop a key
        obj.pop(list(obj)[int(rng.integers(0, len(obj)))])
    elif strategy == 2 and obj:  # junk value for a key
        key = list(obj)[int(rng.integers(0, len(obj)))]
        obj[key] = _JUNK[int(rng.integers(0, len(_JUNK)))]
    elif strategy == 3:  # wrong protocol version
        obj["v"] = [0, 2, -1, "1", None][int(rng.integers(0, 5))]
    elif strategy == 4:  # weird id
        obj["id"] = [{"a": 1}, [1], "x" * 500, None][int(rng.integers(0, 4))]
    elif strategy == 5:  # unknown / mistyped op
        obj["op"] = ["noop", "PLAN", 7, None, "plan "][int(rng.integers(0, 5))]
    elif strategy == 6:  # JSON but not an object
        return [b"42\n", b"null\n", b'"hi"\n', b"[]\n", b"[1,2,3]\n", b"true\n"][
            int(rng.integers(0, 6))
        ]
    elif strategy == 7:  # deep nesting (parser stack overflow bait)
        depth = int(rng.integers(64, 4000))
        return (b'{"a":' * depth + b"1" + b"}" * depth) + b"\n"
    elif strategy == 8:  # truncated JSON
        raw = json.dumps(obj).encode("utf-8")
        cut = int(rng.integers(1, max(2, len(raw))))
        return raw[:cut] + b"\n"
    elif strategy == 9:  # invalid UTF-8 inside the frame
        return b'{"op": "\xff\xfe\x80"}\n'
    elif strategy == 10:  # raw binary garbage (newlines stripped)
        raw = rng.bytes(int(rng.integers(1, 200)))
        return raw.replace(b"\n", b"\x00").replace(b"\r", b"\x00") + b"\n"
    elif strategy == 11:  # duplicate keys
        return b'{"op":"plan","op":"health","v":1,"v":2,"id":0,"id":0}\n'
    elif strategy == 12 and ("n" in obj or "ns" in obj):  # junk problem size
        size = _SIZES[int(rng.integers(0, len(_SIZES)))]
        if "n" in obj:
            obj["n"] = size
        else:
            obj["ns"] = [*obj["ns"][:-1], size]
    else:  # oversized-but-legal payload: a big plan_many sweep
        obj = {"v": PROTOCOL_VERSION, "id": 6, "op": "plan_many",
               "fleet": obj.get("fleet", "?"),
               "ns": [int(x) for x in rng.integers(0, 1000, size=2000)]}
    return json.dumps(obj).encode("utf-8") + b"\n"


def _answered_internal(doc: dict) -> bool:
    """True when a response, or one ``plan_many`` item of it, is ``internal``."""
    error, result = doc.get("error"), doc.get("result")
    items = result.get("results") if isinstance(result, dict) else None
    return (isinstance(error, dict) and error.get("code") == "internal") or (
        isinstance(items, list)
        and any(isinstance(it, dict) and it.get("code") == "internal" for it in items)
    )


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


def _check_lines(lines: list[bytes], index: int, seed: int,
                 failures: list[FuzzFailure]) -> None:
    """Every emitted line must be a strict JSON object with a typed verdict."""
    for line in lines:
        try:
            doc = json.loads(line, parse_constant=_refuse_constant)
        except (ValueError, RecursionError):  # NaN and Infinity included
            failures.append(FuzzFailure(
                "malformed-response", index, seed,
                f"server emitted a non-JSON line: {line[:120]!r}", "protocol"))
            continue
        if not isinstance(doc, dict) or "ok" not in doc:
            failures.append(FuzzFailure(
                "malformed-response", index, seed,
                f"response is not a typed frame: {line[:120]!r}", "protocol"))
            continue
        if not doc["ok"]:
            code = (doc.get("error") or {}).get("code")
            if code not in ERROR_CODES:
                failures.append(FuzzFailure(
                    "untyped-error", index, seed,
                    f"error code {code!r} not in ERROR_CODES", "protocol"))
        if _answered_internal(doc):
            failures.append(FuzzFailure(
                "internal", index, seed,
                f"server answered internal: {line[:120]!r}", "protocol"))


def _frame_id(frame: bytes) -> str | int | None:
    """The id a TCP frame must be answered under (``None``: no answer owed).

    The frame is decoded exactly as the server decodes it; only string
    and integer ids count (a JSON ``true`` is not an integer).
    """
    try:
        req_id = decode_frame(frame).get("id")
    except ProtocolError:
        return None
    if isinstance(req_id, str) or (
        isinstance(req_id, int) and not isinstance(req_id, bool)
    ):
        return req_id
    return None


def _probe(conn: _Conn, index: int, seed: int,
           failures: list[FuzzFailure], frame_id: str | int | None) -> bool:
    """Send a uniquely-tagged health probe; collect lines until it answers.

    Unless ``frame_id`` is ``None``, the mutated frame's own answer is
    awaited too, on the same timeout.  Returns ``False`` when the
    connection needs to be re-opened (EOF or timeout).  A timeout waiting
    for the probe is the definition of a hang; one waiting only for the
    frame is ``unanswered``.
    """
    probe_id = f"probe-{index}"
    conn.send(json.dumps(
        {"v": PROTOCOL_VERSION, "id": probe_id, "op": "health"}
    ).encode() + b"\n")
    waiting: list = [probe_id] if frame_id is None else [probe_id, frame_id]
    lines: list[bytes] = []

    def unanswered(why: str) -> FuzzFailure:
        return FuzzFailure(
            "unanswered", index, seed,
            f"frame id {frame_id!r} got no response {why}", "protocol")

    try:
        while waiting:
            line = conn.readline()
            if not line:
                # The server closed the connection.  Legal only right
                # after an over-limit frame (documented close); either
                # way the next frame gets a fresh connection.  An EOF
                # *before any response* to the probe is a wedge unless a
                # typed error explains the close.
                _check_lines(lines, index, seed, failures)
                if not lines:
                    failures.append(FuzzFailure(
                        "connection-wedge", index, seed,
                        "server closed the connection without any response",
                        "protocol"))
                elif frame_id in waiting:
                    failures.append(
                        unanswered("before the server closed the connection")
                    )
                return False
            lines.append(line)
            try:
                doc = json.loads(line)
            except (json.JSONDecodeError, RecursionError):
                doc = None
            if isinstance(doc, dict):
                got = doc.get("id")
                # Types must match too: a stale ``true`` is not id 1.
                waiting = [w for w in waiting
                           if not (type(w) is type(got) and w == got)]
    except socket.timeout:
        if probe_id in waiting:
            failures.append(FuzzFailure(
                "hang", index, seed,
                "health probe got no response within "
                f"{_PROBE_TIMEOUT:g}s of a mutated frame", "protocol"))
        else:
            failures.append(unanswered(f"within {_PROBE_TIMEOUT:g}s"))
        return False
    _check_lines(lines, index, seed, failures)
    return True


def _mutate_http(frame: dict, rng: np.random.Generator,
                 body_of: Callable[[dict], bytes]) -> bytes:
    """One mutated HTTP/1.1 request (bytes on the wire)."""
    strategy = int(rng.integers(0, 7))
    body = body_of(frame)
    if strategy == 0:  # valid POST /v1/rpc
        head = (f"POST /v1/rpc HTTP/1.1\r\ncontent-length: {len(body)}\r\n\r\n")
        return head.encode() + body
    if strategy == 1:  # non-numeric content-length
        junk = ["abc", "-5", "1e3", "", str(MAX_FRAME_BYTES + 1), "0x10"][
            int(rng.integers(0, 6))
        ]
        return (f"POST /v1/rpc HTTP/1.1\r\ncontent-length: {junk}\r\n\r\n"
                ).encode() + body
    if strategy == 2:  # body shorter than declared (server sees EOF)
        head = f"POST /v1/rpc HTTP/1.1\r\ncontent-length: {len(body) + 50}\r\n\r\n"
        return head.encode() + body
    if strategy == 3:  # wrong method / unknown path
        method = ["PUT", "DELETE", "FOO", "GET"][int(rng.integers(0, 4))]
        path = ["/v1/rpc", "/nope", "/health/../x", "/"][int(rng.integers(0, 4))]
        return f"{method} {path} HTTP/1.1\r\n\r\n".encode()
    if strategy == 4:  # garbage request line
        return [b"GARBAGE\r\n\r\n", b"GET\r\n\r\n", b"\x01\x02\x03\r\n\r\n"][
            int(rng.integers(0, 3))
        ]
    if strategy == 5:  # mutated body behind an honest content-length
        raw = _mutate_tcp(frame, rng).rstrip(b"\n")
        return (f"POST /v1/rpc HTTP/1.1\r\ncontent-length: {len(raw)}\r\n\r\n"
                ).encode() + raw
    # header spam
    headers = "".join(f"x-h{i}: {i}\r\n" for i in range(int(rng.integers(1, 60))))
    return (f"GET /health HTTP/1.1\r\n{headers}\r\n").encode()


def _http_internal(raw: bytes) -> bool:
    """True when an HTTP reply's JSON body answered ``internal``."""
    try:
        doc = json.loads(raw.partition(b"\r\n\r\n")[2])
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError):
        return False
    return isinstance(doc, dict) and _answered_internal(doc)


def _http_roundtrip(host: str, port: int, payload: bytes) -> bytes:
    """Send one request, half-close, read to EOF (server closes)."""
    with socket.create_connection((host, port), timeout=_PROBE_TIMEOUT) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        out = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return out
            out += chunk


def fuzz_protocol(
    frames: int = 500,
    seed: int = 0,
    *,
    only_frame: int | None = None,
    log: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Throw ``frames`` seeded mutated frames at a live server.

    Roughly every fourth frame goes to the HTTP listener instead of the
    NDJSON TCP port.  Frame ``k`` is a pure function of ``(seed, k)``;
    ``only_frame`` replays a single one.
    """
    report = FuzzReport(seed=seed, layer="protocol")
    failures = report.failures
    handle = start_in_thread(ServeConfig(shards=1, queue_depth=64, port=0, http_port=0))
    k = -1
    try:
        setup_rng = np.random.default_rng([seed, 0xF0])
        sfs = [speed_function_to_dict(sf) for sf in _small_fleet(setup_rng)]
        conn = _Conn(handle.host, handle.port)
        fleets = []
        beds = (("fuzzbed", sfs), ("fuzzbed-unbounded", sfs + [_UNBOUNDED]))
        for name, members in beds:
            conn.send(json.dumps({
                "v": PROTOCOL_VERSION, "id": "setup", "op": "register_fleet",
                "name": name, "speed_functions": members,
            }).encode() + b"\n")
            doc = json.loads(conn.readline())
            if not doc.get("ok"):  # pragma: no cover - setup must succeed
                raise RuntimeError(f"fleet registration failed: {doc}")
            fleets.append(doc["result"]["fingerprint"])

        indices = range(frames) if only_frame is None else [only_frame]
        for k in indices:
            rng = np.random.default_rng([seed, 0xF00D, k])
            frame = _valid_frames(fleets, rng)[int(rng.integers(0, 5))]
            report.cases += 1
            if k % 4 == 3 and handle.http_port:
                payload = _mutate_http(
                    frame, rng,
                    lambda f: json.dumps(f).encode("utf-8"),
                )
                before = len(failures)
                try:
                    raw = _http_roundtrip(handle.host, handle.http_port, payload)
                    if raw and not raw.startswith(b"HTTP/1.1 "):
                        failures.append(FuzzFailure(
                            "malformed-response", k, seed,
                            f"HTTP reply has no status line: {raw[:120]!r}",
                            "protocol"))
                    elif _http_internal(raw):
                        failures.append(FuzzFailure(
                            "internal", k, seed,
                            f"HTTP reply answered internal: {raw[:120]!r}",
                            "protocol"))
                except socket.timeout:
                    failures.append(FuzzFailure(
                        "hang", k, seed, "HTTP request timed out", "protocol"))
                # The server must stay healthy regardless of the mutation.
                try:
                    health = _http_roundtrip(
                        handle.host, handle.http_port,
                        b"GET /health HTTP/1.1\r\n\r\n",
                    )
                    if b"200 OK" not in health.split(b"\r\n", 1)[0]:
                        failures.append(FuzzFailure(
                            "unhealthy", k, seed,
                            f"GET /health returned {health[:60]!r} after a "
                            "mutated HTTP request", "protocol"))
                except (socket.timeout, OSError):
                    failures.append(FuzzFailure(
                        "hang", k, seed,
                        "GET /health did not answer after a mutated HTTP "
                        "request", "protocol"))
                if log and len(failures) > before:
                    for f in failures[before:]:
                        log(f.line())
                continue
            mutated = _mutate_tcp(frame, rng)
            conn.send(mutated)
            before = len(failures)
            if not _probe(conn, k, seed, failures, _frame_id(mutated)):
                conn.close()
                conn = _Conn(handle.host, handle.port)
            if log and len(failures) > before:
                for f in failures[before:]:
                    log(f.line())
        conn.close()
    finally:
        try:
            handle.stop(drain=False)
        except RuntimeError as exc:  # a frame wedged a shard for good
            failures.append(FuzzFailure(
                "wedged", k, seed,
                f"{exc} after the sweep; a frame up to this one wedged a shard",
                "protocol"))
            if log:
                log(failures[-1].line())
    _record("protocol", failures)
    return report


# ---------------------------------------------------------------------------
# Adapt chaos
# ---------------------------------------------------------------------------

_KNOTS = np.array([1e3, 1e4, 1e5, 5e5, 1e6, 2e6])
_SHAPE = np.array([1.0, 0.98, 0.92, 0.70, 0.20, 0.02])


def _small_fleet(rng: np.random.Generator) -> list[PiecewiseLinearSpeedFunction]:
    """2-4 heterogeneous machines with realistic memory-cliff curves."""
    p = int(rng.integers(2, 5))
    fleet = []
    for _ in range(p):
        peak = float(rng.uniform(50.0, 400.0))
        scale = float(rng.uniform(0.8, 2.0))
        fleet.append(PiecewiseLinearSpeedFunction(_KNOTS * scale, _SHAPE * peak))
    return fleet


def _random_script(
    rng: np.random.Generator, p: int, t0: float
) -> FaultScript:
    """A random scenario that always leaves at least one machine alive."""
    events: list = []
    n_drop = int(rng.integers(0, p))  # at most p-1 machines die
    victims = rng.permutation(p)[:n_drop]
    for m in victims:
        events.append(Dropout(int(m), at_time=float(rng.uniform(0.05, 1.2)) * t0))
    for _ in range(int(rng.integers(0, 3))):
        events.append(LoadShift(
            int(rng.integers(0, p)),
            at_time=float(rng.uniform(0.0, 1.0)) * t0,
            factor=float(rng.uniform(0.25, 2.5)),
        ))
    return FaultScript(events=tuple(events))


def fuzz_adapt(
    runs: int = 6,
    seed: int = 0,
    *,
    only_run: int | None = None,
    log: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Chaos-test the adaptive simulator under random fault scripts.

    Run ``k`` is a pure function of ``(seed, k)``; ``only_run`` replays
    one.  Invariants checked after every run: non-negative allocations
    bounded by the problem size, dead machines end empty, fault-free
    runs conserve the plan bit-exactly, finite makespan, and rerun
    determinism.
    """
    report = FuzzReport(seed=seed, layer="adapt")
    failures = report.failures

    def fail(kind: str, k: int, detail: str) -> None:
        f = FuzzFailure(kind, k, seed, detail, "adapt")
        failures.append(f)
        if log:
            log(f.line())

    indices = range(runs) if only_run is None else [only_run]
    for k in indices:
        rng = np.random.default_rng([seed, 0xADA, k])
        fleet = _small_fleet(rng)
        p = len(fleet)
        side = int(rng.integers(40, 121))
        n = 3 * side * side  # elements of the three N x N matrices
        alloc = partition(n, fleet).allocation
        report.cases += 1

        # A fault-free control run must conserve the total exactly and
        # stay within one stripe row (3N elements) of the plan — the
        # executor quantizes allocations to whole rows.
        clean = simulate_striped_matmul_adaptive(
            side, alloc, fleet, policy=AdaptivePolicy(patience=2), seed=k,
        )
        row = 3 * side
        if int(clean.final_elements.sum()) != n or np.any(
            np.abs(clean.final_elements - alloc) > row
        ):
            fail("conservation", k,
                 f"fault-free run moved elements beyond row quantization: "
                 f"{clean.final_elements} vs plan {alloc}")
        t0 = clean.makespan

        script = _random_script(rng, p, t0)
        load_sigma = float(rng.uniform(0.0, 0.15))
        kwargs = dict(
            policy=AdaptivePolicy(patience=2), script=script, seed=k,
            load_mean=float(rng.uniform(0.0, 0.2)), load_sigma=load_sigma,
        )
        out = simulate_striped_matmul_adaptive(side, alloc, fleet, **kwargs)

        if out.final_elements.shape != (p,) or np.any(out.final_elements < 0):
            fail("shape", k, f"bad final allocation {out.final_elements}")
        # Replans repartition the *remaining* work, so the final
        # allocation sums to at most the original problem size.
        if int(out.final_elements.sum()) > n:
            fail("conservation", k,
                 f"final allocation sums to {int(out.final_elements.sum())} "
                 f"> n={n}")
        if not np.isfinite(out.makespan) or out.makespan < 0:
            fail("makespan", k, f"non-finite makespan {out.makespan}")
        drops = script.dropouts()
        if out.dropouts_survived > len(drops):
            fail("recovery", k,
                 f"survived {out.dropouts_survived} dropouts but the script "
                 f"held only {len(drops)}")
        # Dropouts are observed at quantum boundaries, so a machine that
        # finishes within a few quanta of its drop time legitimately
        # keeps its work; anything later must have been migrated off.
        grace = 0.05 * t0
        for e in drops:
            done_at = float(out.finish_seconds[e.machine])
            if out.final_elements[e.machine] != 0 and done_at > e.at_time + grace:
                fail("recovery", k,
                     f"machine {e.machine} dropped at t={e.at_time:.4g} but "
                     f"still holds {int(out.final_elements[e.machine])} "
                     f"elements (finished at {done_at:.4g})")

        # Bit-identical determinism: same (plan, script, seed) -> same run.
        again = simulate_striped_matmul_adaptive(side, alloc, fleet, **kwargs)
        if (not np.array_equal(again.final_elements, out.final_elements)
                or again.makespan != out.makespan
                or again.events != out.events
                or again.replans != out.replans):
            fail("determinism", k, "rerun with identical arguments diverged")
    _record("adapt", failures)
    return report
