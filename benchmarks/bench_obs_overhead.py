"""Observability overhead: the disabled path must be free.

The ISSUE's acceptance bar: with telemetry disabled, the instrumented
``partition_bisection`` / ``Planner.plan`` hot paths show < 2% overhead.
The instrumentation was designed so a disabled call executes exactly one
``is_enabled()`` attribute read (solvers) or one no-op ``span()`` plus
two always-on structural counter bumps (planner) — nanoseconds against
solve times of hundreds of microseconds to milliseconds.  These benches
measure both sides of that ratio and assert the budget directly, and
additionally pin the primitive costs so a regression in the gate itself
(say, a lock sneaking into ``is_enabled``) shows up even before it is
multiplied into a hot loop.

The serve-tracing gates at the bottom apply the same idiom to request
tracing: the full per-request tracing budget (trace-context mint, the
spans built from the shard's timing record, flight-recorder write,
exemplar) must stay under 5% of a served p=1080 request, and the
tracing-disabled path — one branch plus a sampled-counter bump — under
2%.
"""

from __future__ import annotations

from time import perf_counter, time

import pytest

from repro import obs
from repro.core.bisection import partition_bisection
from repro.experiments import tile_speed_functions
from repro.obs import FlightRecorder, RequestTrace, TraceContext
from repro.obs.context import new_span_id
from repro.obs.spans import Span
from repro.planner import Fleet, Planner
from repro.serve.client import ServeClient
from repro.serve.server import start_in_thread
from repro.serve.service import ServeConfig, _batch_span, _item_span

#: Acceptance bar from the ISSUE: disabled telemetry costs < 2%.
MAX_DISABLED_OVERHEAD = 0.02

#: Acceptance bar from the ISSUE: request tracing costs < 5% of a serve.
MAX_TRACING_OVERHEAD = 0.05


@pytest.fixture(autouse=True)
def telemetry_disabled():
    """Benches run against the default (disabled) state and restore it."""
    obs.disable()
    yield
    obs.disable()


@pytest.fixture(scope="module")
def fleet_1080(mm_models):
    return Fleet(tile_speed_functions(mm_models, 1080), name="obs-bench-p1080")


def _per_call_seconds(fn, *, number: int = 20_000, repeats: int = 5) -> float:
    """Best-of-``repeats`` mean cost of one ``fn()`` call."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (perf_counter() - t0) / number)
    return best


def _best_of(fn, *, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def _noop_span():
    with obs.span("bench.noop"):
        pass


# ---------------------------------------------------------------------------
# Primitive costs: the only instructions a disabled hot path executes.
# ---------------------------------------------------------------------------


def test_perf_disabled_is_enabled(benchmark):
    assert obs.is_enabled() is False
    benchmark(obs.is_enabled)
    # An attribute read should be well under a microsecond even on a
    # loaded CI box; 5µs is an order-of-magnitude safety margin.
    assert _per_call_seconds(obs.is_enabled) < 5e-6


def test_perf_disabled_noop_span(benchmark):
    benchmark(_noop_span)
    assert _per_call_seconds(_noop_span) < 5e-6


# ---------------------------------------------------------------------------
# The acceptance assertions: measured instrumentation budget vs measured
# solve time, on the figure-21 p=1080 configuration.
# ---------------------------------------------------------------------------


def test_disabled_overhead_partition_bisection_under_2pct(fleet_1080, benchmark):
    sfs = fleet_1080.speed_functions
    n = 2_000_000_000

    def check():
        solve = _best_of(lambda: partition_bisection(n, sfs))
        # One gated is_enabled() read per solve call — everything else
        # (record_solver and its counters) sits behind the gate.
        budget = _per_call_seconds(obs.is_enabled)
        ratio = budget / solve
        assert ratio < MAX_DISABLED_OVERHEAD, (
            f"disabled telemetry costs {ratio:.3%} of a p=1080 solve "
            f"({budget * 1e9:.0f}ns vs {solve * 1e3:.2f}ms)"
        )
        return ratio

    ratio = benchmark.pedantic(check, rounds=1, iterations=1)
    assert ratio < MAX_DISABLED_OVERHEAD


def test_disabled_overhead_planner_plan_under_2pct(fleet_1080, benchmark):
    planner = Planner(fleet_1080)
    n = 2_000_000_000
    counter = obs.get_registry().counter("bench.obs.budget")

    def cold_plan():
        planner.cache.clear()
        return planner.plan(n)

    def check():
        plan = _best_of(cold_plan)
        # A disabled cold plan executes: one no-op planner.solve span,
        # one is_enabled() read in the solver, and the always-on
        # structural counters (cache miss + cold-plan count).
        budget = (
            _per_call_seconds(_noop_span)
            + _per_call_seconds(obs.is_enabled)
            + 2 * _per_call_seconds(counter.inc)
        )
        ratio = budget / plan
        assert ratio < MAX_DISABLED_OVERHEAD, (
            f"disabled telemetry costs {ratio:.3%} of a p=1080 cold plan "
            f"({budget * 1e9:.0f}ns vs {plan * 1e3:.2f}ms)"
        )
        return ratio

    ratio = benchmark.pedantic(check, rounds=1, iterations=1)
    assert ratio < MAX_DISABLED_OVERHEAD


# ---------------------------------------------------------------------------
# Enabled mode still has to work (and stay sane) on the same hot path.
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Serve tracing: the per-request tracing budget vs a measured served
# request on the figure-21 p=1080 fleet.
# ---------------------------------------------------------------------------


def _measure_served_request(fleet, *, tracing: bool) -> float:
    """Best-of mean per-request latency through a real server."""
    config = ServeConfig(shards=2, tracing=tracing)
    best = float("inf")
    with start_in_thread(config) as handle:
        with ServeClient(handle.host, handle.port) as client:
            info = client.register_fleet(fleet.speed_functions, name=fleet.name)
            fingerprint = info["fingerprint"]
            client.plan(fingerprint, 2_000_000_000)  # warm the shard
            for _ in range(3):
                t0 = perf_counter()
                for _ in range(20):
                    client.plan(fingerprint, 2_000_000_000, allocation=False)
                best = min(best, (perf_counter() - t0) / 20)
    return best


#: The shard's timing record and the item verdict of a one-item batch.
_TIMING = {"shard": 0, "started": 0.0, "seconds": 1e-3, "solve_seconds": 1e-3,
           "sizes": 1}
_ITEM = {"ok": True}


def _tracing_budget_once(hist, recorder) -> None:
    """Every tracing step one served ``plan`` request executes.

    Mirrors the request lifecycle of a batch of one, which is what
    :func:`_measure_served_request`'s sequential client sees: mint
    identity + root span (listener ``_open_trace``), mint the batch's two
    shared span ids and build the batch, solve and item spans from the
    shard's timing record with the functions ``_deliver`` calls
    (``_batch_span``, ``_item_span``), then observe the latency with an
    exemplar and file the trace in the flight recorder (``_close_trace``).
    """
    ctx = TraceContext.new()
    root = Span(
        name="serve.plan", trace_id=ctx.trace_id, span_id=ctx.span_id,
        attrs={"n": 2_000_000_000}, started=time(),
    )
    batch = _batch_span(root, _TIMING, new_span_id(), new_span_id(), 1)
    _item_span(batch, 2_000_000_000, _ITEM)
    hist.observe(1e-3, exemplar=ctx.trace_id)
    root.seconds = 1e-3
    recorder.record(
        RequestTrace(
            trace_id=ctx.trace_id, op="plan", fleet="bench", n=2_000_000_000,
            started=0.0, seconds=1e-3, root=root,
        )
    )


def test_serve_tracing_enabled_overhead_under_5pct(fleet_1080, benchmark):
    hist = obs.get_registry().histogram("bench.trace.latency")
    recorder = FlightRecorder(capacity=256)

    def check():
        serve = _measure_served_request(fleet_1080, tracing=True)
        budget = _per_call_seconds(
            lambda: _tracing_budget_once(hist, recorder),
            number=2_000, repeats=5,
        )
        ratio = budget / serve
        assert ratio < MAX_TRACING_OVERHEAD, (
            f"request tracing costs {ratio:.3%} of a served p=1080 plan "
            f"({budget * 1e6:.1f}µs vs {serve * 1e3:.2f}ms)"
        )
        return ratio

    ratio = benchmark.pedantic(check, rounds=1, iterations=1)
    assert ratio < MAX_TRACING_OVERHEAD


def test_serve_tracing_disabled_overhead_under_2pct(fleet_1080, benchmark):
    recorder = FlightRecorder(capacity=256)

    def check():
        serve = _measure_served_request(fleet_1080, tracing=False)
        # Tracing off executes exactly one branch plus the sampled
        # counter bump in _open_trace; nothing else on the request path.
        budget = _per_call_seconds(recorder.note_sampled)
        ratio = budget / serve
        assert ratio < MAX_DISABLED_OVERHEAD, (
            f"disabled tracing costs {ratio:.3%} of a served p=1080 plan "
            f"({budget * 1e9:.0f}ns vs {serve * 1e3:.2f}ms)"
        )
        return ratio

    ratio = benchmark.pedantic(check, rounds=1, iterations=1)
    assert ratio < MAX_DISABLED_OVERHEAD


def test_enabled_mode_records_solver_metrics(fleet_1080, benchmark):
    sfs = fleet_1080.speed_functions
    n = 2_000_000_000

    def check():
        with obs.enabled(True):
            result = partition_bisection(n, sfs)
        reg = obs.get_registry()
        calls = reg.counter("core.solve.calls", labels={"algorithm": "bisection"})
        iters = reg.counter(
            "core.solve.iterations.total", labels={"algorithm": "bisection"}
        )
        assert calls.value >= 1
        assert iters.value >= result.iterations
        return result

    result = benchmark.pedantic(check, rounds=1, iterations=1)
    assert int(result.allocation.sum()) == n
