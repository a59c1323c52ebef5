"""repro.obs — dependency-free metrics, tracing and profiling.

The observability substrate for the whole library:

* :mod:`repro.obs.registry` — thread-safe counters, gauges and
  fixed-bucket histograms in a labelled :class:`MetricsRegistry`, plus
  the process-wide :func:`enable` / :func:`disable` switch whose
  disabled path costs one attribute read;
* :mod:`repro.obs.spans` — nestable :func:`span` contexts building a
  structured trace tree, and :func:`record` for merging modelled
  (simulator) durations into the same tree;
* :mod:`repro.obs.timing` — the canonical best-of-``repeats`` wall
  timer shared by the measurement harness and the cost experiments;
* :mod:`repro.obs.export` — JSON snapshot and Prometheus text
  exporters plus the ``repro trace`` tree renderer;
* :mod:`repro.obs.logconfig` — key=value structured logging wired to
  the CLI's ``-v`` / ``--log-level`` flags.

Hot paths (core solvers, planner, simulators) are permanently
instrumented but gated: with telemetry disabled (the default) they pay
one :func:`is_enabled` check per *call*, never per iteration —
``benchmarks/bench_obs_overhead.py`` holds that to <2% of a solve.

Quick tour::

    from repro import obs

    obs.enable()
    with obs.span("my.workload", n=123):
        planner.plan(123)
    print(obs.export.render_spans())
    print(obs.export.to_prometheus())
    obs.disable()
"""

from __future__ import annotations

from . import context, export, flight, logconfig, registry, sink, spans, timing
from .context import TraceContext, new_span_id, new_trace_id
from .export import (
    OPENMETRICS_CONTENT_TYPE,
    PROMETHEUS_CONTENT_TYPE,
    render_spans,
    snapshot,
    to_json,
    to_prometheus,
    write_json,
)
from .flight import FlightRecorder, RequestTrace
from .sink import FleetTelemetrySink, Observation, size_band
from .logconfig import KeyValueFormatter, configure_logging, verbosity_to_level
from .registry import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable,
    enable,
    enabled,
    get_registry,
    is_enabled,
    set_registry,
)
from .spans import Span, Tracer, get_tracer, record, set_tracer, span
from .timing import TimedResult, Timer, best_of

__all__ = [
    "Counter",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "FleetTelemetrySink",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "KeyValueFormatter",
    "MetricsRegistry",
    "OPENMETRICS_CONTENT_TYPE",
    "Observation",
    "PROMETHEUS_CONTENT_TYPE",
    "RequestTrace",
    "Span",
    "TimedResult",
    "Timer",
    "TraceContext",
    "Tracer",
    "best_of",
    "clear_all",
    "configure_logging",
    "context",
    "disable",
    "enable",
    "enabled",
    "export",
    "flight",
    "get_registry",
    "get_tracer",
    "is_enabled",
    "logconfig",
    "new_span_id",
    "new_trace_id",
    "record",
    "record_adapt",
    "record_batch",
    "record_solver",
    "registry",
    "render_spans",
    "reset_all",
    "set_registry",
    "set_tracer",
    "sink",
    "size_band",
    "snapshot",
    "span",
    "spans",
    "timing",
    "to_json",
    "to_prometheus",
    "verbosity_to_level",
    "write_json",
]


def reset_all() -> None:
    """Zero every metric in place and drop collected spans."""
    get_registry().reset()
    get_tracer().clear()


def clear_all() -> None:
    """Drop all metrics and spans (previously handed-out metric objects
    keep counting but are no longer exported)."""
    get_registry().clear()
    get_tracer().clear()


# ---------------------------------------------------------------------------
# Domain helpers: one registry touch per *call*, used by the instrumented
# hot paths in repro.core.  Callers gate on is_enabled() first.
# ---------------------------------------------------------------------------

_SOLVER_ITERATION_BUCKETS = DEFAULT_COUNT_BUCKETS


def record_solver(
    algorithm: str,
    *,
    iterations: int,
    intersections: int,
    probes: int,
    warm: bool,
    switched: bool = False,
) -> None:
    """Account one core-solver call (bisection / combined / modified).

    ``probes`` counts the bracket probes: the figure-18 search for cold
    starts, the :func:`~repro.core.geometry.ensure_bracket` repairs for
    warm starts.  ``switched`` marks a combined-algorithm handover to
    the modified algorithm.
    """
    reg = get_registry()
    labels = {"algorithm": algorithm}
    reg.counter("core.solve.calls", labels=labels).inc()
    reg.counter("core.solve.iterations.total", labels=labels).inc(int(iterations))
    reg.counter("core.solve.intersections.total", labels=labels).inc(int(intersections))
    reg.counter("core.solve.bracket_probes.total", labels=labels).inc(int(probes))
    if warm:
        reg.counter("core.solve.warm_starts", labels=labels).inc()
    if switched:
        reg.counter("core.solve.switches", labels=labels).inc()
    reg.histogram(
        "core.solve.iterations", buckets=_SOLVER_ITERATION_BUCKETS, labels=labels
    ).observe(int(iterations))


def record_adapt(
    *,
    drifts: int = 0,
    replans: int = 0,
    migrated_elements: int = 0,
    retries: int = 0,
    dropouts: int = 0,
) -> None:
    """Account adaptive-execution events (``repro.adapt``).

    Counters: confirmed drifts, applied replans, migrated elements,
    dispatch retries, and dropouts survived via redistribution.
    """
    reg = get_registry()
    if drifts:
        reg.counter("adapt.drifts").inc(int(drifts))
    if replans:
        reg.counter("adapt.replans").inc(int(replans))
    if migrated_elements:
        reg.counter("adapt.migrated.elements").inc(int(migrated_elements))
    if retries:
        reg.counter("adapt.retries").inc(int(retries))
    if dropouts:
        reg.counter("adapt.dropouts.survived").inc(int(dropouts))


def record_batch(*, sizes: int, steps: int) -> None:
    """Account one lockstep batch solve (``partition_bisection_many``)."""
    reg = get_registry()
    reg.counter("core.batch.calls").inc()
    reg.counter("core.batch.sizes.total").inc(int(sizes))
    reg.counter("core.batch.steps.total").inc(int(steps))
    reg.histogram(
        "core.batch.sizes", buckets=DEFAULT_COUNT_BUCKETS
    ).observe(int(sizes))
