"""repro.adapt — fault-tolerant adaptive execution.

The partitioners in :mod:`repro.core` assume the model is right and the
machines stay up.  This package closes the loop for long-running
executions on real networks, where section 1's "constant and stochastic
fluctuations in the workload" become permanent shifts and machines
disappear altogether:

* :mod:`repro.adapt.observation` — the frozen :class:`Observation`
  record shared by telemetry ingest, drift detection and the online
  band refitter (:class:`repro.model.OnlineBandRefitter`);
* :mod:`repro.adapt.detector` — :class:`DriftDetector` judges per-step
  effective-speed observations against the model's
  :class:`~repro.core.band.SpeedBand` envelopes and confirms drifts
  after ``patience`` consecutive outliers;
* :mod:`repro.adapt.replanner` — :class:`Replanner` rescales the model
  by the observed factors, asks a cached
  :class:`~repro.planner.Planner` for the optimal remaining partition,
  and applies the **savings-versus-migration-cost** rule; dropout
  recovery redistributes orphaned elements over the survivors with
  :func:`~repro.core.bounded.partition_bounded`;
* :mod:`repro.adapt.migration` — minimal deterministic element moves
  between two allocations, priced over the
  :class:`~repro.machines.comm.CommModel` links;
* :mod:`repro.adapt.faults` — scripted dropouts, permanent load shifts
  and transient communication faults, so every scenario is a pure
  function of ``(plan, script, seed)``;
* :mod:`repro.adapt.retry` — deterministic exponential-backoff retry
  with per-attempt timeouts for real task dispatch;
* :mod:`repro.adapt.mm` / :mod:`repro.adapt.lu` — adaptive counterparts
  of the two simulators, bit-identical to the static ones when
  adaptation is :data:`DISABLED` and the environment is clean.

Everything is observable through the ``adapt.*`` metrics (drifts,
replans, migrated elements, retries, dropouts survived).
"""

from __future__ import annotations

from .detector import DriftDetector, DriftEvent
from .faults import (
    CommFault,
    Dropout,
    FaultInjector,
    FaultScript,
    InjectedCommError,
    LoadShift,
)
from .lu import AdaptiveLUSimulation, simulate_lu_adaptive
from .migration import MigrationPlan, Move, apply_migration, plan_migration
from .mm import AdaptiveMMSimulation, simulate_striped_matmul_adaptive
from .observation import Observation
from .replanner import (
    DISABLED,
    AdaptivePolicy,
    ReplanDecision,
    Replanner,
    scale_speed_function,
)
from .retry import NO_RETRY, RetryExhaustedError, RetryPolicy, call_with_retry

__all__ = [
    "DISABLED",
    "NO_RETRY",
    "AdaptiveLUSimulation",
    "AdaptiveMMSimulation",
    "AdaptivePolicy",
    "CommFault",
    "DriftDetector",
    "DriftEvent",
    "Dropout",
    "FaultInjector",
    "FaultScript",
    "InjectedCommError",
    "LoadShift",
    "MigrationPlan",
    "Move",
    "Observation",
    "ReplanDecision",
    "Replanner",
    "RetryExhaustedError",
    "RetryPolicy",
    "apply_migration",
    "call_with_retry",
    "plan_migration",
    "scale_speed_function",
    "simulate_lu_adaptive",
    "simulate_striped_matmul_adaptive",
]
