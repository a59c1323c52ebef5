"""Drift detection against speed-band envelopes.

Section 1 of the paper models a machine's speed as a *band*; a running
computation yields free observations (assigned size, realised effective
speed) every step.  :class:`DriftDetector` checks each observation
against the machine's :class:`~repro.core.band.SpeedBand` envelope
(widened by a configurable slack) and flags **drift** — a permanent
departure from the band, as opposed to in-band fluctuation — once
``patience`` consecutive observations fall outside it.

The detector also maintains a smoothed per-machine *speed factor*
(observed / midline-predicted, exponentially weighted), which is what
the :class:`~repro.adapt.replanner.Replanner` uses to rescale the model
speed functions when rebuilding the fleet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .. import obs
from ..core.band import SpeedBand
from ..core.speed_function import SpeedFunction
from ..exceptions import ConfigurationError

__all__ = ["DriftDetector", "DriftEvent"]


@dataclass(frozen=True)
class DriftEvent:
    """A confirmed drift: ``patience`` consecutive out-of-band observations.

    Attributes
    ----------
    machine:
        The drifting machine.
    time:
        Simulated (or wall) time of the confirming observation.
    size:
        Problem size of the confirming observation.
    observed / predicted:
        Realised effective speed versus the band midline's prediction at
        that size (MFlops).
    factor:
        The detector's smoothed observed/predicted ratio at confirmation
        time — the scale the replanner applies to the model function.
    """

    machine: int
    time: float
    size: float
    observed: float
    predicted: float
    factor: float

    @property
    def severity(self) -> float:
        """Relative departure from the prediction (0 = none)."""
        if self.predicted <= 0:
            return float("inf")
        return abs(self.observed - self.predicted) / self.predicted


class DriftDetector:
    """Flags machines whose observed speeds leave their band envelope.

    Parameters
    ----------
    bands:
        One :class:`~repro.core.band.SpeedBand` per machine — or a bare
        :class:`~repro.core.speed_function.SpeedFunction`, which is
        wrapped in a band of relative width ``default_width``.
    slack:
        Extra relative widening of every envelope check (noise guard).
    patience:
        Consecutive out-of-band observations needed to confirm a drift.
        In-band observations reset the streak: transient excursions
        shorter than ``patience`` steps never trigger a replan.
    smoothing:
        EWMA weight of a new observation in the per-machine speed factor
        (1.0 = trust the latest observation completely).
    default_width:
        Band width used when a bare speed function is given.
    """

    def __init__(
        self,
        bands: Sequence[SpeedBand | SpeedFunction],
        *,
        slack: float = 0.05,
        patience: int = 3,
        smoothing: float = 0.5,
        default_width: float = 0.10,
    ):
        if not bands:
            raise ConfigurationError("at least one band is required")
        if slack < 0:
            raise ConfigurationError(f"slack must be non-negative, got {slack!r}")
        if patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {patience!r}")
        if not (0 < smoothing <= 1):
            raise ConfigurationError(f"smoothing must be in (0, 1], got {smoothing!r}")
        self._bands: list[SpeedBand] = [
            b if isinstance(b, SpeedBand) else SpeedBand(b, width=default_width)
            for b in bands
        ]
        self._slack = float(slack)
        self._patience = int(patience)
        self._smoothing = float(smoothing)
        p = len(self._bands)
        self._streak = np.zeros(p, dtype=np.int64)
        self._factor = np.ones(p, dtype=float)
        #: Total observations / out-of-band observations / confirmed drifts.
        self.observations = 0
        self.outliers = 0
        self.drifts = 0

    @property
    def p(self) -> int:
        return len(self._bands)

    @property
    def bands(self) -> tuple[SpeedBand, ...]:
        return tuple(self._bands)

    def factors(self) -> np.ndarray:
        """Smoothed observed/predicted speed ratio per machine (1.0 = on model)."""
        return self._factor.copy()

    def streaks(self) -> np.ndarray:
        """Current consecutive out-of-band streak per machine."""
        return self._streak.copy()

    def observe(
        self, machine: int, size: float, speed: float, *, time: float = 0.0
    ) -> DriftEvent | None:
        """Feed one observation; returns a :class:`DriftEvent` on confirmation.

        After a confirmation the machine's streak resets (the caller is
        expected to act — replan, rebuild — and subsequent observations
        are judged afresh), but the smoothed factor is retained.
        """
        if not (0 <= machine < self.p):
            raise ConfigurationError(
                f"no machine {machine} in a {self.p}-machine detector"
            )
        if size <= 0 or speed < 0 or not np.isfinite(speed):
            raise ConfigurationError(
                f"invalid observation (size={size!r}, speed={speed!r})"
            )
        self.observations += 1
        band = self._bands[machine]
        x = min(float(size), band.max_size)
        predicted = float(band.midline.speed(x))
        ratio = speed / predicted if predicted > 0 else float("inf")
        w = self._smoothing
        self._factor[machine] = (1 - w) * self._factor[machine] + w * ratio
        if band.contains(x, speed, slack=self._slack):
            self._streak[machine] = 0
            return None
        self.outliers += 1
        self._streak[machine] += 1
        if self._streak[machine] < self._patience:
            return None
        self._streak[machine] = 0
        self.drifts += 1
        if obs.is_enabled():
            obs.record_adapt(drifts=1)
        return DriftEvent(
            machine=machine,
            time=float(time),
            size=float(size),
            observed=float(speed),
            predicted=predicted,
            factor=float(self._factor[machine]),
        )

    def ingest(self, observations) -> list[DriftEvent]:
        """Feed a batch of step observations; return every confirmed drift.

        ``observations`` is an iterable of unified
        :class:`~repro.adapt.Observation` records — what
        :meth:`repro.obs.FleetTelemetrySink.recent` returns, the bridge
        from live serving telemetry to drift confirmation.  Anything
        observation-shaped (``machine`` / ``size`` / ``speed`` /
        ``time`` attributes) is accepted.  Observations for machines this
        detector does not know are skipped (a sink may aggregate a
        larger fleet than one detector watches — and fleet-level
        ``machine == -1`` solve records skip automatically); malformed
        ones raise as :meth:`observe` would.
        """
        events: list[DriftEvent] = []
        for rec in observations:
            machine = int(rec.machine)
            if not (0 <= machine < self.p):
                continue
            event = self.observe(
                machine, float(rec.size), float(rec.speed), time=float(rec.time)
            )
            if event is not None:
                events.append(event)
        return events

    def reset_streaks(self) -> None:
        """Clear every streak but keep the learned speed factors.

        Called after an applied replan: the new allocation was built
        *from* the factors, so they stay; the streaks restart because the
        drift has been acted on.
        """
        self._streak[:] = 0

    def reset(self, machine: int | None = None) -> None:
        """Clear streaks (and factors) for one machine or all machines."""
        if machine is None:
            self._streak[:] = 0
            self._factor[:] = 1.0
        else:
            self._streak[machine] = 0
            self._factor[machine] = 1.0
