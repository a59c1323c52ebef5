"""FlightRecorder: bounded retention policies, queries, NDJSON dumps."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs.flight import FlightRecorder, RequestTrace
from repro.obs.spans import Span


def _trace(i: int, *, status: str = "ok", seconds: float = 0.001) -> RequestTrace:
    return RequestTrace(
        trace_id=f"{i:032x}", op="plan", status=status,
        fleet="fp", n=1000 + i, started=float(i), seconds=seconds,
    )


class TestRequestTrace:
    def test_summary_has_no_spans(self):
        t = _trace(1)
        t.root = Span(name="serve.plan", trace_id=t.trace_id)
        assert "spans" not in t.summary()
        assert t.summary()["trace_id"] == t.trace_id


class TestRetention:
    def test_ring_evicts_fifo(self, fresh_obs):
        rec = FlightRecorder(capacity=4, slow_k=0)
        for i in range(6):
            rec.record(_trace(i))
        stats = rec.stats()
        assert stats["recorded"] == 6
        assert stats["evicted"] == 2
        assert stats["ring_size"] == 4
        assert rec.get(_trace(0).trace_id) is None       # rolled out
        assert rec.get(_trace(5).trace_id) is not None   # newest survives

    def test_errors_survive_ring_eviction(self, fresh_obs):
        rec = FlightRecorder(capacity=2, slow_k=0)
        bad = _trace(0, status="deadline_exceeded")
        rec.record(bad)
        for i in range(1, 10):
            rec.record(_trace(i))
        # The ring flushed it long ago, the error store still has it.
        assert rec.get(bad.trace_id) is bad
        assert rec.traces(errors_only=True) == [bad]

    def test_error_store_is_bounded(self, fresh_obs):
        rec = FlightRecorder(capacity=2, retain_capacity=3, slow_k=0)
        for i in range(5):
            rec.record(_trace(i, status="overloaded"))
        errors = rec.traces(errors_only=True)
        assert len(errors) == 3
        # Oldest failures give way; listing is most recent first.
        assert [t.started for t in errors] == [4.0, 3.0, 2.0]

    def test_slowest_survive_independently_of_recency(self, fresh_obs):
        rec = FlightRecorder(capacity=2, slow_k=2)
        whale = _trace(0, seconds=9.0)
        rec.record(whale)
        for i in range(1, 20):
            rec.record(_trace(i, seconds=0.001))
        assert rec.get(whale.trace_id) is whale
        slow = rec.traces(slow_only=True)
        assert slow[0] is whale                 # slowest first
        assert len(slow) == 2

    def test_note_sampled_counts(self, fresh_obs):
        rec = FlightRecorder()
        rec.note_sampled()
        rec.note_sampled(3)
        assert rec.stats()["sampled"] == 4

    @pytest.mark.parametrize(
        "kwargs", [{"capacity": 0}, {"retain_capacity": 0}, {"slow_k": -1}]
    )
    def test_invalid_bounds_rejected(self, fresh_obs, kwargs):
        with pytest.raises(ValueError):
            FlightRecorder(**{"capacity": 4, **kwargs})


class TestQueries:
    def test_listing_is_most_recent_first_and_limited(self, fresh_obs):
        rec = FlightRecorder(capacity=8, slow_k=0)
        for i in range(5):
            rec.record(_trace(i))
        listed = rec.traces(limit=3)
        assert [t.started for t in listed] == [4.0, 3.0, 2.0]

    def test_len_deduplicates_across_stores(self, fresh_obs):
        rec = FlightRecorder(capacity=8, slow_k=4)
        # One trace sits in the ring, the error store AND the slow store.
        rec.record(_trace(0, status="internal", seconds=5.0))
        assert len(rec) == 1

    def test_get_unknown_id(self, fresh_obs):
        assert FlightRecorder().get("feedface") is None

    def test_clear(self, fresh_obs):
        rec = FlightRecorder()
        rec.record(_trace(0, status="internal"))
        rec.clear()
        assert len(rec) == 0
        assert rec.traces() == []


class TestNdjson:
    def test_dump_writes_one_trace_per_line(self, fresh_obs, tmp_path):
        rec = FlightRecorder(capacity=8, slow_k=0)
        traced = _trace(1)
        traced.root = Span(name="serve.plan", trace_id=traced.trace_id)
        rec.record(traced)
        rec.record(_trace(2, status="overloaded"))

        path = tmp_path / "flight.ndjson"
        assert rec.dump(str(path)) == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2

        by_id = {doc["trace_id"]: doc for doc in map(json.loads, lines)}
        assert set(by_id) == {traced.trace_id, _trace(2).trace_id}
        assert by_id[traced.trace_id]["spans"]["name"] == "serve.plan"
        assert by_id[_trace(2).trace_id]["status"] == "overloaded"

    def test_to_ndjson_counts(self, fresh_obs):
        rec = FlightRecorder()
        rec.record(_trace(0))
        buf = io.StringIO()
        assert rec.to_ndjson(buf) == 1
        assert buf.getvalue().count("\n") == 1
