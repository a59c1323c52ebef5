"""Per-fleet telemetry sink: observed timings keyed for model re-fitting.

The paper builds speed bands from *offline* benchmark points; the
self-adaptability follow-on (Lastovetsky/Reddy/Rychkov/Clarke,
arXiv:1109.3074) makes refinement part of execution.  This sink is the
plumbing between the two: the serving layer (and the adaptive
simulators) drop their observed solve and per-step timings here, keyed
by **fleet fingerprint + problem-size band**, and the online-learning
layer (:class:`repro.model.OnlineBandRefitter`) re-fits
piecewise-linear bands from the aggregated table instead of
re-benchmarking.

Every ingested record is one frozen :class:`Observation` — the unified
shape shared by :meth:`FleetTelemetrySink.observe`,
:meth:`repro.adapt.DriftDetector.ingest` and the online refitter.  Two
observation kinds share the banding:

* ``solve`` (``machine == -1``) — end-to-end plan latency for one
  problem size on one fleet (what the serve stack records per answered
  request); the ``duration`` field carries the seconds;
* ``step`` (``machine >= 0``) — a realised effective *speed* for one
  machine at one size (what execution steps yield), which is exactly
  the shape :meth:`repro.adapt.DriftDetector.observe` consumes — see
  :meth:`DriftDetector.ingest`.

Size bands are powers of two (``[2^k, 2^(k+1))``): coarse enough that a
band accumulates statistics quickly, fine enough that a paging cliff
lands in its own band.  Aggregates are exact (count/sum/min/max/last),
bounded at one cell per (fingerprint, kind, machine, band); a small
bounded deque of raw step observations per fleet feeds drift detection
and online re-fitting without unbounded growth.
"""

from __future__ import annotations

import json
import math
import threading
from collections import deque
from dataclasses import dataclass
from typing import IO, Mapping

from .registry import get_registry

__all__ = ["FleetTelemetrySink", "Observation", "size_band"]


def size_band(n: float) -> tuple[float, float]:
    """The power-of-two band ``[lo, hi)`` containing ``n`` (``n >= 0``)."""
    n = float(n)
    if n < 1.0:
        return (0.0, 1.0)
    k = int(n).bit_length() - 1
    return (float(2**k), float(2 ** (k + 1)))


@dataclass(frozen=True)
class Observation:
    """One observed timing: the unified record shared across the stack.

    The single shape consumed by :meth:`FleetTelemetrySink.observe`,
    :meth:`repro.adapt.DriftDetector.ingest` and
    :class:`repro.model.OnlineBandRefitter` (it is re-exported as
    ``repro.adapt.Observation``).  Fields:

    * ``machine`` — machine index in its fleet; ``-1`` means a
      fleet-level observation (an end-to-end solve latency);
    * ``size`` — the problem size (elements) the timing refers to;
    * ``duration`` — wall seconds (meaningful for ``solve`` records);
    * ``speed`` — realised effective speed in the model's units
      (meaningful for ``step`` records);
    * ``timestamp`` — simulated or wall time the observation was taken;
    * ``source`` — free-form provenance tag (``"step"``, ``"solve"``,
      ``"serve"``, ``"sim"``, ...).
    """

    machine: int
    size: float
    duration: float = 0.0
    speed: float = 0.0
    timestamp: float = 0.0
    source: str = "step"

    def __post_init__(self) -> None:
        machine = int(self.machine)
        size = float(self.size)
        duration = float(self.duration)
        speed = float(self.speed)
        timestamp = float(self.timestamp)
        if machine < -1:
            raise ValueError(f"machine must be >= -1, got {machine}")
        if not math.isfinite(size) or size <= 0.0:
            raise ValueError(f"size must be positive and finite, got {size!r}")
        if not math.isfinite(duration) or duration < 0.0:
            raise ValueError(
                f"duration must be non-negative and finite, got {duration!r}"
            )
        if not math.isfinite(speed) or speed < 0.0:
            raise ValueError(f"speed must be non-negative and finite, got {speed!r}")
        if not math.isfinite(timestamp):
            raise ValueError(f"timestamp must be finite, got {timestamp!r}")
        object.__setattr__(self, "machine", machine)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "duration", duration)
        object.__setattr__(self, "speed", speed)
        object.__setattr__(self, "timestamp", timestamp)
        object.__setattr__(self, "source", str(self.source))

    @property
    def kind(self) -> str:
        """``"solve"`` for fleet-level records, ``"step"`` otherwise."""
        return "solve" if self.machine < 0 else "step"

    @property
    def time(self) -> float:
        """Alias of ``timestamp``, the attribute ``DriftDetector.ingest`` reads."""
        return self.timestamp

    def to_wire(self) -> dict:
        """The JSON-safe mapping used by the serve protocol's ``observe`` op."""
        return {
            "machine": self.machine,
            "size": self.size,
            "duration": self.duration,
            "speed": self.speed,
            "timestamp": self.timestamp,
            "source": self.source,
        }

    @classmethod
    def from_wire(cls, raw: Mapping) -> "Observation":
        """Build from a wire mapping, ignoring unknown keys."""
        return cls(
            machine=raw.get("machine", 0),
            size=raw["size"],
            duration=raw.get("duration", 0.0),
            speed=raw.get("speed", 0.0),
            timestamp=raw.get("timestamp", raw.get("time", 0.0)),
            source=str(raw.get("source", "step")),
        )

    @classmethod
    def from_step(
        cls, machine: int, size: float, speed: float, *, time: float = 0.0
    ) -> "Observation":
        """A ``step`` record from positional ``(machine, size, speed)``."""
        return cls(
            machine=machine, size=size, speed=speed, timestamp=time, source="step"
        )


@dataclass
class _Cell:
    """Exact aggregates of one (fingerprint, kind, machine, band) key."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    last: float = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.last = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class FleetTelemetrySink:
    """Thread-safe aggregation of observed timings per fleet fingerprint."""

    def __init__(self, *, recent_steps: int = 512):
        if recent_steps < 0:
            raise ValueError(f"recent_steps must be non-negative, got {recent_steps}")
        # key: (fingerprint, kind, machine, band_lo, band_hi)
        self._cells: dict[tuple[str, str, int, float, float], _Cell] = {}
        self._recent: dict[str, deque[Observation]] = {}
        self._recent_cap = int(recent_steps)
        self._lock = threading.Lock()
        self._observations = get_registry().counter(
            "serve.telemetry.observations",
            help="solve/step timings ingested by the per-fleet sink",
        )

    # -- ingest ---------------------------------------------------------
    def observe(self, fingerprint: str, observation: Observation) -> None:
        """Ingest one unified :class:`Observation`.

        ``solve`` records (``machine == -1``) aggregate ``duration``
        seconds; ``step`` records aggregate ``speed`` and additionally
        land in the bounded per-fleet recent deque that feeds drift
        detection and online re-fitting.
        """
        fp = str(fingerprint)
        lo, hi = size_band(observation.size)
        if observation.machine < 0:
            key = (fp, "solve", -1, lo, hi)
            value = observation.duration
        else:
            key = (fp, "step", observation.machine, lo, hi)
            value = observation.speed
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                cell = self._cells[key] = _Cell()
            cell.add(value)
            if observation.machine >= 0 and self._recent_cap:
                recent = self._recent.get(fp)
                if recent is None:
                    recent = self._recent[fp] = deque(maxlen=self._recent_cap)
                recent.append(observation)
            self._observations.inc()

    def observe_solve(self, fingerprint: str, *, n: float, seconds: float) -> None:
        """One observed end-to-end solve latency for problem size ``n``.

        Thin adapter over :meth:`observe` (kept for callers predating
        the unified :class:`Observation` record).
        """
        self.observe(
            fingerprint,
            Observation(machine=-1, size=n, duration=seconds, source="solve"),
        )

    def observe_step(
        self,
        fingerprint: str,
        *,
        machine: int,
        size: float,
        speed: float,
        time: float = 0.0,
    ) -> None:
        """One realised per-machine effective speed at ``size`` elements.

        Thin adapter over :meth:`observe` (kept for callers predating
        the unified :class:`Observation` record).
        """
        self.observe(
            fingerprint,
            Observation(
                machine=machine, size=size, speed=speed, timestamp=time, source="step"
            ),
        )

    # -- query ----------------------------------------------------------
    def rows(self, fingerprint: str | None = None) -> list[dict]:
        """The exportable table, one row per aggregation cell.

        ``solve`` rows aggregate seconds, ``step`` rows aggregate MFlops
        speeds; rows are sorted (fingerprint, kind, machine, band) so the
        table is diff-stable across exports.
        """
        with self._lock:
            items = sorted(self._cells.items())
        out = []
        for (fp, kind, machine, lo, hi), cell in items:
            if fingerprint is not None and fp != fingerprint:
                continue
            out.append(
                {
                    "fingerprint": fp,
                    "kind": kind,
                    "machine": machine if machine >= 0 else None,
                    "band_lo": lo,
                    "band_hi": hi,
                    "count": cell.count,
                    "mean": cell.mean,
                    "min": cell.min,
                    "max": cell.max,
                    "last": cell.last,
                    "total": cell.total,
                }
            )
        return out

    def recent(
        self, fingerprint: str, *, limit: int | None = None
    ) -> list[Observation]:
        """Recent raw step :class:`Observation` records (oldest first)."""
        with self._lock:
            recent = list(self._recent.get(str(fingerprint), ()))
        return recent[-limit:] if limit is not None else recent

    def fingerprints(self) -> list[str]:
        with self._lock:
            return sorted({key[0] for key in self._cells})

    def __len__(self) -> int:
        with self._lock:
            return len(self._cells)

    # -- export ---------------------------------------------------------
    def to_ndjson(self, fh: IO[str], fingerprint: str | None = None) -> int:
        """One aggregation row per line; returns the row count."""
        rows = self.rows(fingerprint)
        for row in rows:
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
        return len(rows)

    def clear_recent(self, fingerprint: str) -> None:
        """Drop the recent-observation deque for one fleet (aggregates stay)."""
        with self._lock:
            self._recent.pop(str(fingerprint), None)

    def clear(self) -> None:
        with self._lock:
            self._cells.clear()
            self._recent.clear()
