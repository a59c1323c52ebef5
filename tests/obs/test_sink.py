"""FleetTelemetrySink: banding, aggregation cells, drift-detector bridge."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.sink import FleetTelemetrySink, Observation, size_band


class TestSizeBand:
    @pytest.mark.parametrize(
        "n, lo, hi",
        [
            (0, 0.0, 1.0),
            (0.5, 0.0, 1.0),
            (1, 1.0, 2.0),
            (2, 2.0, 4.0),
            (3, 2.0, 4.0),
            (1023, 512.0, 1024.0),
            (1024, 1024.0, 2048.0),
            (2_000_000_000, float(2**30), float(2**31)),
        ],
    )
    def test_powers_of_two(self, n, lo, hi):
        assert size_band(n) == (lo, hi)

    def test_band_contains_its_input(self):
        for n in (1, 7, 100, 12345, 10**9):
            lo, hi = size_band(n)
            assert lo <= n < hi


class TestObservation:
    def test_kinds(self):
        assert Observation(machine=-1, size=10, duration=0.5).kind == "solve"
        assert Observation(machine=0, size=10, speed=1.0).kind == "step"

    def test_coercion_and_time_alias(self):
        o = Observation(machine="2", size="100", speed="5.5", timestamp="7")
        assert o.machine == 2 and o.size == 100.0 and o.speed == 5.5
        assert o.time == o.timestamp == 7.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"machine": -2, "size": 10},
            {"machine": 0, "size": 0},
            {"machine": 0, "size": float("nan")},
            {"machine": 0, "size": 10, "duration": -1.0},
            {"machine": 0, "size": 10, "speed": float("inf")},
            {"machine": 0, "size": 10, "timestamp": float("nan")},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Observation(**kwargs)

    def test_wire_roundtrip(self):
        o = Observation(machine=3, size=1e5, speed=42.0, timestamp=9.0, source="sim")
        assert Observation.from_wire(o.to_wire()) == o

    def test_from_wire_accepts_legacy_time_key(self):
        o = Observation.from_wire({"machine": 1, "size": 10, "speed": 2.0, "time": 5.0})
        assert o.timestamp == 5.0

    def test_from_step_adapter(self):
        o = Observation.from_step(1, 100.0, 50.0, time=3.0)
        assert (o.machine, o.size, o.speed, o.time) == (1, 100.0, 50.0, 3.0)
        assert o.kind == "step" and o.source == "step"

    def test_exported_at_top_level(self):
        import repro
        from repro.adapt import Observation as AdaptObservation

        assert repro.Observation is Observation
        assert AdaptObservation is Observation


class TestUnifiedObserve:
    def test_observe_routes_by_machine(self, fresh_obs):
        sink = FleetTelemetrySink()
        sink.observe("fp", Observation(machine=-1, size=1000, duration=0.01))
        sink.observe("fp", Observation(machine=0, size=1000, speed=10.0))
        kinds = [r["kind"] for r in sink.rows("fp")]
        assert kinds == ["solve", "step"]

    def test_solve_records_never_land_in_recent(self, fresh_obs):
        sink = FleetTelemetrySink()
        sink.observe("fp", Observation(machine=-1, size=1000, duration=0.01))
        sink.observe("fp", Observation(machine=0, size=1000, speed=10.0))
        recent = sink.recent("fp")
        assert len(recent) == 1 and recent[0].machine == 0

    def test_recent_returns_observations(self, fresh_obs):
        sink = FleetTelemetrySink()
        for i in range(4):
            sink.observe_step("fp", machine=i, size=10, speed=1.0, time=float(i))
        recent = sink.recent("fp", limit=2)
        assert all(isinstance(o, Observation) for o in recent)
        assert [o.machine for o in recent] == [2, 3]

    def test_clear_recent_keeps_aggregates(self, fresh_obs):
        sink = FleetTelemetrySink()
        sink.observe_step("fp", machine=0, size=10, speed=1.0)
        sink.clear_recent("fp")
        assert sink.recent("fp") == []
        assert len(sink) == 1
        assert sink.rows("fp")[0]["count"] == 1

    def test_legacy_adapters_share_the_pipeline(self, fresh_obs):
        sink = FleetTelemetrySink()
        sink.observe_step("fp", machine=0, size=10, speed=3.0, time=1.0)
        assert sink.recent("fp") == [Observation.from_step(0, 10.0, 3.0, time=1.0)]


class TestAggregation:
    def test_solve_cells_key_by_band(self, fresh_obs):
        sink = FleetTelemetrySink()
        sink.observe_solve("fp", n=1000, seconds=0.010)
        sink.observe_solve("fp", n=1010, seconds=0.030)   # same band
        sink.observe_solve("fp", n=5000, seconds=0.020)   # different band
        assert len(sink) == 2
        (row_a, row_b) = sink.rows("fp")
        assert row_a["kind"] == "solve"
        assert row_a["machine"] is None                   # solve rows have no machine
        assert row_a["count"] == 2
        assert row_a["mean"] == pytest.approx(0.020)
        assert row_a["min"] == 0.010 and row_a["max"] == 0.030
        assert row_a["last"] == 0.030
        assert row_b["count"] == 1

    def test_step_cells_key_by_machine(self, fresh_obs):
        sink = FleetTelemetrySink()
        sink.observe_step("fp", machine=0, size=1000, speed=100.0)
        sink.observe_step("fp", machine=1, size=1000, speed=200.0)
        rows = sink.rows()
        assert [r["machine"] for r in rows] == [0, 1]
        assert [r["last"] for r in rows] == [100.0, 200.0]

    def test_rows_filter_and_stable_order(self, fresh_obs):
        sink = FleetTelemetrySink()
        sink.observe_solve("b", n=10, seconds=0.1)
        sink.observe_solve("a", n=10, seconds=0.1)
        sink.observe_step("a", machine=0, size=10, speed=1.0)
        assert [r["fingerprint"] for r in sink.rows()] == ["a", "a", "b"]
        assert [r["kind"] for r in sink.rows("a")] == ["solve", "step"]
        assert sink.fingerprints() == ["a", "b"]

    def test_observation_counter(self, fresh_obs):
        sink = FleetTelemetrySink()
        sink.observe_solve("fp", n=10, seconds=0.1)
        sink.observe_step("fp", machine=0, size=10, speed=1.0)
        counter = fresh_obs.get_registry().counter("serve.telemetry.observations")
        assert counter.value == 2

    def test_clear(self, fresh_obs):
        sink = FleetTelemetrySink()
        sink.observe_step("fp", machine=0, size=10, speed=1.0)
        sink.clear()
        assert len(sink) == 0
        assert sink.recent("fp") == []


class TestRecentSteps:
    def test_bounded_and_oldest_first(self, fresh_obs):
        sink = FleetTelemetrySink(recent_steps=3)
        for i in range(5):
            sink.observe_step("fp", machine=i, size=10, speed=1.0, time=float(i))
        recent = sink.recent("fp")
        assert [o.machine for o in recent] == [2, 3, 4]
        assert recent[-1] == Observation.from_step(4, 10.0, 1.0, time=4.0)
        assert [o.machine for o in sink.recent("fp", limit=2)] == [3, 4]

    def test_zero_cap_keeps_no_raw_steps(self, fresh_obs):
        sink = FleetTelemetrySink(recent_steps=0)
        sink.observe_step("fp", machine=0, size=10, speed=1.0)
        assert sink.recent("fp") == []
        assert len(sink) == 1    # the aggregate cell still exists

    def test_negative_cap_rejected(self, fresh_obs):
        with pytest.raises(ValueError):
            FleetTelemetrySink(recent_steps=-1)


class TestExport:
    def test_ndjson_rows(self, fresh_obs):
        sink = FleetTelemetrySink()
        sink.observe_solve("fp", n=10, seconds=0.1)
        sink.observe_step("other", machine=0, size=10, speed=1.0)
        buf = io.StringIO()
        assert sink.to_ndjson(buf, "fp") == 1
        row = json.loads(buf.getvalue())
        assert row["fingerprint"] == "fp"
        assert row["kind"] == "solve"
