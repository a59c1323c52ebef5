"""The unified observation record, re-exported for the adaptive layer.

:class:`Observation` is *defined* in :mod:`repro.obs.sink` — the lowest
layer of the stack — because both :mod:`repro.adapt` and
:mod:`repro.serve` consume it and neither may import the other.  This
module gives it its documented home in the adaptive API
(``repro.adapt.Observation``): the one frozen record shared by
:meth:`repro.obs.FleetTelemetrySink.observe`,
:meth:`repro.adapt.DriftDetector.ingest` and
:class:`repro.model.OnlineBandRefitter`.

Two thin adapters build it for older call sites:
``FleetTelemetrySink.observe_step`` / ``observe_solve`` take keyword
timings, and :meth:`Observation.from_step` takes the positional
``(machine, size, speed)`` shape.  :meth:`DriftDetector.ingest` also
accepts any other object with ``machine`` / ``size`` / ``speed`` /
``time`` attributes.
"""

from __future__ import annotations

from ..obs.sink import Observation

__all__ = ["Observation"]
