"""Protocol fuzzing and adapt chaos: seeded, deterministic, clean runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.verify import fuzz_adapt, fuzz_protocol
from repro.verify import fuzz as fuzz_module
from repro.verify.fuzz import FuzzFailure, _frame_id, _mutate_tcp


@pytest.fixture(autouse=True)
def fresh_registry():
    previous = obs.set_registry(obs.MetricsRegistry())
    try:
        yield
    finally:
        obs.set_registry(previous)


class TestProtocolFuzz:
    def test_mutations_never_break_the_server(self):
        report = fuzz_protocol(frames=60, seed=1)
        assert report.cases == 60
        assert report.ok, [f.line() for f in report.failures]

    def test_single_frame_replay(self):
        report = fuzz_protocol(frames=500, seed=1, only_frame=17)
        assert report.cases == 1
        assert report.ok, [f.line() for f in report.failures]

    def test_mutations_are_deterministic(self):
        frame = {"v": 1, "id": 1, "op": "plan", "fleet": "fp", "n": 10}
        for k in range(12):
            a = _mutate_tcp(frame, np.random.default_rng([3, 0xF00D, k]))
            b = _mutate_tcp(frame, np.random.default_rng([3, 0xF00D, k]))
            assert a == b

    def test_only_string_and_integer_ids_are_owed_an_answer(self):
        assert _frame_id(b'{"id": 7, "op": "plan"}\n') == 7
        assert _frame_id(b'{"id": "k", "op": "warp"}\n') == "k"
        for frame in (b'{"id": true}\n', b'{"id": 1.5}\n', b'{"id": null}\n',
                      b'{"id": [1]}\n', b'{"op": "plan"}\n', b"[1]\n",
                      b'{"id": 1\n'):
            assert _frame_id(frame) is None

    def test_a_dropped_answer_is_reported_unanswered(self, monkeypatch):
        # The health probe still answers, so only the frame's own id shows
        # that its answer was lost.
        from repro.serve.service import PlanningService

        handle = PlanningService.handle

        async def drop_plans(service, raw):
            if isinstance(raw, dict) and raw.get("op") in ("plan", "plan_many"):
                raise RuntimeError("answer dropped")
            return await handle(service, raw)

        monkeypatch.setattr(PlanningService, "handle", drop_plans)
        monkeypatch.setattr(fuzz_module, "_PROBE_TIMEOUT", 2.0)
        report = fuzz_protocol(frames=8, seed=4, only_frame=1)  # a plan_many frame
        assert [(f.kind, f.index) for f in report.failures] == [("unanswered", 1)]

    def test_an_internal_answer_is_a_failure(self, monkeypatch):
        from repro.serve.protocol import error_response
        from repro.serve.service import PlanningService

        handle = PlanningService.handle

        async def fail_plans(service, raw):
            if isinstance(raw, dict) and raw.get("op") in ("plan", "plan_many"):
                return error_response(raw.get("id"), "internal", "boom")
            return await handle(service, raw)

        monkeypatch.setattr(PlanningService, "handle", fail_plans)
        report = fuzz_protocol(frames=8, seed=4, only_frame=1)  # a plan_many frame
        assert [(f.kind, f.index) for f in report.failures] == [("internal", 1)]

    def test_a_server_that_will_not_stop_is_reported_wedged(self, monkeypatch):
        from repro.serve.server import ServerHandle

        stop = ServerHandle.stop

        def stop_then_fail(handle, **kwargs):
            stop(handle, **kwargs)
            raise RuntimeError("server thread did not stop in time")

        monkeypatch.setattr(ServerHandle, "stop", stop_then_fail)
        report = fuzz_protocol(frames=4)
        assert [(f.kind, f.index) for f in report.failures] == [("wedged", 3)]

    def test_counter_increments(self):
        fuzz_protocol(frames=8, seed=2)
        counter = obs.get_registry().counter(
            "verify.cases", labels={"layer": "fuzz.protocol"}
        )
        assert counter.value == 1  # one sweep recorded


class TestAdaptChaos:
    def test_random_fault_scripts_hold_invariants(self):
        report = fuzz_adapt(runs=3, seed=1)
        assert report.cases == 3
        assert report.ok, [f.line() for f in report.failures]

    def test_single_run_replay(self):
        report = fuzz_adapt(runs=6, seed=1, only_run=2)
        assert report.cases == 1
        assert report.ok, [f.line() for f in report.failures]


class TestFailureReporting:
    def test_protocol_replay_flag(self):
        f = FuzzFailure("hang", 12, 7, "no answer", "protocol")
        assert f.replay == "python -m repro verify --seed 7 --only-frame 12"

    def test_adapt_replay_flag(self):
        f = FuzzFailure("recovery", 3, 7, "stuck", "adapt")
        assert f.replay == "python -m repro verify --seed 7 --only-run 3"
        assert "--only-run 3" in f.line()
