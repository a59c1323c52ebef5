"""The request contract both front-ends keep: the node and the router.

A planning server and a cluster router answer the same protocol through
the same front-end pipeline (parse, trace, dispatch, envelope, record).
Every case here runs against both — ``start_in_thread`` and
``start_router_in_thread`` in front of one thread node — and drives them
through ``handle.call(handle.service.handle(raw))``, so the assertions
see exactly what a listener would write back.
"""

from __future__ import annotations

import json
import re

import pytest

from repro import Fleet, obs
from repro.serve.protocol import PROTOCOL_VERSION, encode_frame

#: A client-supplied trace context (lowercase hex ids).
CLIENT_TRACE = {"trace_id": "ab" * 16, "span_id": "cd" * 8}

#: Machines with no memory bound: only the 2**53 size limit caps a plan.
UNBOUNDED = [{"kind": "constant", "speed": 10.0}, {"kind": "constant", "speed": 30.0}]


class FrontEndUnderTest:
    """One booted front-end, its metric prefix and a registered fleet."""

    def __init__(self, handle, prefix: str, fingerprint: str = ""):
        self.handle = handle
        self.prefix = prefix
        self.fingerprint = fingerprint

    def send(self, raw, timeout: float = 60.0):
        return self.handle.call(self.handle.service.handle(raw), timeout=timeout)

    def sample(self, family: str) -> float:
        """One sample of the Prometheus exposition (0 when absent)."""
        pattern = "^" + re.escape(family) + r" (\S+)$"
        match = re.search(pattern, obs.to_prometheus(), re.MULTILINE)
        return float(match.group(1)) if match else 0.0

    def plan(self, n: int, req_id: int = 1, **extra):
        return self.send({"v": PROTOCOL_VERSION, "id": req_id, "op": "plan",
                          "fleet": self.fingerprint, "n": n, **extra})


@pytest.fixture(params=["serve", "cluster"])
def front_end(request, trio_spec):
    from repro.cluster import RouterConfig, start_router_in_thread, start_thread_node
    from repro.serve import ServeConfig, start_in_thread

    if request.param == "serve":
        handle = start_in_thread(ServeConfig(shards=1))
        node = None
    else:
        node = start_thread_node("contract")
        handle = start_router_in_thread(RouterConfig(probe_interval=0), [node.info])
    try:
        fe = FrontEndUnderTest(handle, request.param)
        reg = fe.send({"v": PROTOCOL_VERSION, "id": 0, "op": "register_fleet",
                       "name": "trio", "speed_functions": trio_spec["speed_functions"]})
        assert reg["ok"], reg
        fe.fingerprint = reg["result"]["fingerprint"]
        yield fe
    finally:
        handle.stop()
        if node is not None:
            node.stop()


def test_malformed_frames_answer_typed_errors(front_end):
    answers = [
        front_end.send("not a frame"),
        front_end.send({"v": 99, "id": 1, "op": "plan"}),
        front_end.send({"v": 1, "id": 2, "op": "warp"}),
        front_end.send({"v": 1, "id": 3, "op": "plan", "fleet": front_end.fingerprint}),
        front_end.send({"v": 1, "id": 4, "op": ["cluster_status"]}),
    ]
    assert [a["error"]["code"] for a in answers] == [
        "invalid_request", "unsupported_version", "unknown_op", "invalid_request",
        "invalid_request",
    ]
    assert [a["id"] for a in answers] == [None, 1, 2, 3, 4]


def test_request_metrics_move(front_end):
    p = front_end.prefix
    requests = front_end.sample(f"{p}_requests_total")
    plans = front_end.sample(f'{p}_request_seconds_count{{op="plan"}}')
    assert front_end.plan(1000)["ok"]
    assert front_end.sample(f"{p}_requests_total") == requests + 1
    assert front_end.sample(f'{p}_request_seconds_count{{op="plan"}}') == plans + 1


def test_responses_are_counted_by_status(front_end):
    p = front_end.prefix
    ok = front_end.sample(f'{p}_responses_total{{status="ok"}}')
    err = front_end.sample(f'{p}_responses_total{{status="error"}}')
    assert front_end.plan(1000)["ok"]
    assert not front_end.send({"v": 1, "id": 2, "op": "warp"})["ok"]
    assert front_end.sample(f'{p}_responses_total{{status="ok"}}') == ok + 1
    assert front_end.sample(f'{p}_responses_total{{status="error"}}') == err + 1


def test_client_trace_is_echoed_and_filed(front_end):
    resp = front_end.plan(1000, trace=CLIENT_TRACE)
    assert resp["ok"], resp
    assert resp["trace_id"] == CLIENT_TRACE["trace_id"]
    trace = front_end.handle.service.recorder.get(CLIENT_TRACE["trace_id"])
    assert trace is not None
    assert trace.root.name == f"{front_end.prefix}.plan"
    assert trace.root.parent_id == CLIENT_TRACE["span_id"]


def test_a_plan_for_zero_answers_an_all_zero_allocation(front_end):
    resp = front_end.plan(0)
    assert resp["ok"], resp
    result = resp["result"]
    assert result["n"] == 0
    assert result["allocation"] == [0] * result["p"]
    trace = front_end.handle.service.recorder.get(resp["trace_id"])
    assert trace is not None and trace.ok


def test_plan_many_trace_files_the_worst_item_code(front_end):
    resp = front_end.send({"v": 1, "id": 1, "op": "plan_many",
                           "fleet": front_end.fingerprint, "ns": [100, 10**15]})
    assert resp["ok"], resp  # the envelope stays ok; items carry verdicts
    good, bad = resp["result"]["results"]
    assert good["ok"] and bad["code"] == "infeasible"
    trace = front_end.handle.service.recorder.get(resp["trace_id"])
    assert trace.root.name == f"{front_end.prefix}.plan_many"
    assert trace.status == "infeasible"


def test_unknown_fleet_error_carries_a_trace_id(front_end):
    resp = front_end.send({"v": 1, "id": 1, "op": "plan",
                           "fleet": "no-such-fleet", "n": 1000})
    assert resp["error"]["code"] == "unknown_fleet"
    trace = front_end.handle.service.recorder.get(resp.get("trace_id", ""))
    assert trace is not None and trace.status == "unknown_fleet"


def test_draining_front_end_refuses_plans(front_end):
    front_end.handle.call(front_end.handle.service.drain())
    assert front_end.handle.service.draining
    resp = front_end.plan(1000)
    assert resp["error"]["code"] == "shutting_down"
    assert resp["trace_id"]


def _register_unbounded(front_end) -> str:
    reg = front_end.send({"v": 1, "id": 0, "op": "register_fleet",
                          "name": "unbounded", "speed_functions": UNBOUNDED})
    assert reg["ok"], reg
    return reg["result"]["fingerprint"]


def _strict_json(frame: bytes) -> dict:
    """Decode as an RFC 8259 parser would: ``NaN`` and ``Infinity`` fail."""

    def refuse(constant: str):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(frame, parse_constant=refuse)


def test_register_and_stats_answers_are_strict_json(front_end, trio_sfs, trio_spec):
    unbounded = front_end.send({"v": 1, "id": 0, "op": "register_fleet",
                                "name": "unbounded", "speed_functions": UNBOUNDED})
    bounded = front_end.send({"v": 1, "id": 1, "op": "register_fleet",
                              "name": "trio",
                              "speed_functions": trio_spec["speed_functions"]})
    stats = front_end.send({"v": 1, "id": 2, "op": "stats"})
    unbounded, bounded, stats = (
        _strict_json(encode_frame(answer)) for answer in (unbounded, bounded, stats)
    )
    assert unbounded["result"]["capacity"] is None
    assert bounded["result"]["capacity"] == Fleet(trio_sfs).capacity
    doc = stats["result"]
    (node,) = doc["nodes"].values() if "nodes" in doc else (doc,)  # one node
    fleets = node["fleets"]
    assert fleets[unbounded["result"]["fingerprint"]]["capacity"] is None


def test_a_plan_past_2_53_is_infeasible_and_the_shard_keeps_answering(front_end):
    fleet = _register_unbounded(front_end)
    huge = front_end.send({"v": 1, "id": 1, "op": "plan", "fleet": fleet,
                           "n": 1e19}, timeout=10.0)
    assert huge["error"]["code"] == "infeasible", huge
    after = front_end.send({"v": 1, "id": 2, "op": "plan", "fleet": fleet,
                            "n": 1000}, timeout=10.0)
    assert after["ok"], after


def test_a_plan_many_item_past_2_53_fails_alone(front_end):
    fleet = _register_unbounded(front_end)
    resp = front_end.send({"v": 1, "id": 1, "op": "plan_many", "fleet": fleet,
                           "ns": [1000, 1e19]}, timeout=10.0)
    assert resp["ok"], resp
    good, bad = resp["result"]["results"]
    assert good["ok"] and bad["code"] == "infeasible"


@pytest.mark.parametrize("n", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_sizes_are_invalid_requests(front_end, n):
    plan = front_end.send({"v": 1, "id": 1, "op": "plan",
                           "fleet": front_end.fingerprint, "n": n}, timeout=10.0)
    many = front_end.send({"v": 1, "id": 2, "op": "plan_many",
                           "fleet": front_end.fingerprint, "ns": [1000, n]},
                          timeout=10.0)
    assert plan["error"]["code"] == "invalid_request", plan
    assert many["error"]["code"] == "invalid_request", many


#: The keys every front end's admin documents open with.
HEALTH_SKELETON = {"status", "role", "uptime_seconds"}
STATS_SKELETON = {"role", "uptime_seconds", "requests", "responses_ok",
                  "responses_error", "trace", "process_cpu_s"}


def _admin(front_end, op: str) -> dict:
    resp = front_end.send({"v": 1, "id": 0, "op": op})
    assert resp["ok"], resp
    return resp["result"]


def test_health_and_stats_carry_the_skeleton(front_end):
    role = {"serve": "server", "cluster": "router"}[front_end.prefix]
    health, stats = _admin(front_end, "health"), _admin(front_end, "stats")
    assert HEALTH_SKELETON <= health.keys(), health
    assert STATS_SKELETON <= stats.keys(), stats
    assert (health["status"], health["role"], stats["role"]) == ("ok", role, role)
    assert stats["requests"] >= stats["responses_ok"] >= 1
    assert {"recorded", "capacity"} <= stats["trace"].keys()


def test_process_cpu_grows_across_a_burst_of_plans(front_end):
    before = _admin(front_end, "stats")["process_cpu_s"]
    for i in range(20):
        assert front_end.plan(1000 + 17 * i, req_id=i)["ok"]
    assert _admin(front_end, "stats")["process_cpu_s"] > before


def test_a_repeated_drain_leaves_health_draining(front_end):
    service = front_end.handle.service
    front_end.handle.call(service.drain())
    front_end.handle.call(service.drain())
    assert _admin(front_end, "health")["status"] == "draining"
    assert service.health()["status"] == "draining"
