"""Wire protocol: parsing, validation, framing, fleet-spec round trips."""

from __future__ import annotations

import pytest

from repro import Fleet
from repro.exceptions import (
    ConfigurationError,
    InfeasiblePartitionError,
    InvalidSpeedFunctionError,
)
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    HealthRequest,
    PlanManyRequest,
    PlanRequest,
    ProtocolError,
    RegisterFleetRequest,
    StatsRequest,
    decode_frame,
    encode_frame,
    error_code_for,
    error_response,
    fleet_spec_from_speed_functions,
    ok_response,
    parse_request,
    plan_fields,
    speed_functions_from_fleet_spec,
)


class TestParseRequest:
    def test_plan(self):
        req = parse_request(
            {"v": 1, "id": 7, "op": "plan", "fleet": "fp", "n": 12345.0,
             "timeout_ms": 50, "allocation": False}
        )
        assert isinstance(req, PlanRequest)
        assert (req.id, req.fleet, req.n) == (7, "fp", 12345)
        assert req.timeout_ms == 50.0
        assert req.allocation is False

    def test_plan_many(self):
        req = parse_request({"op": "plan_many", "fleet": "fp", "ns": [1, 2.0, 3]})
        assert isinstance(req, PlanManyRequest)
        assert req.ns == (1, 2, 3)
        assert req.allocation is True

    def test_plan_fields_round_trip(self):
        assert plan_fields("fp", n=5) == {"fleet": "fp", "n": 5, "allocation": True}
        trace = {"trace_id": "ab" * 16, "span_id": "cd" * 8}
        fields = plan_fields("fp", ns=[3, 4.0], timeout_ms=50, allocation=False,
                             trace=trace, tenant="t", idempotency_key="k")
        req = parse_request({"op": "plan_many", **fields})
        assert isinstance(req, PlanManyRequest)
        assert (req.ns, req.timeout_ms, req.allocation) == ((3, 4), 50.0, False)
        assert (req.tenant, req.idempotency_key) == ("t", "k")
        assert req.trace.trace_id == trace["trace_id"]

    def test_health_and_stats(self):
        assert isinstance(parse_request({"op": "health", "id": 1}), HealthRequest)
        assert isinstance(parse_request({"op": "stats"}), StatsRequest)

    def test_register_fleet(self, trio_spec):
        req = parse_request(
            {"op": "register_fleet", "name": "t",
             "speed_functions": trio_spec["speed_functions"],
             "options": {"mode": "angle", "refine": "paper"},
             "algorithm": "combined", "cache_size": 16}
        )
        assert isinstance(req, RegisterFleetRequest)
        assert req.options.mode == "angle"
        assert req.options.refine == "paper"
        assert req.algorithm == "combined"

    @pytest.mark.parametrize(
        "raw, code",
        [
            ("not a mapping", "invalid_request"),
            ({"op": "plan", "fleet": "fp", "n": 1, "v": 2}, "unsupported_version"),
            ({"fleet": "fp", "n": 1}, "invalid_request"),  # missing op
            ({"op": "teleport"}, "unknown_op"),
            ({"op": "plan", "n": 1}, "invalid_request"),  # missing fleet
            ({"op": "plan", "fleet": "fp"}, "invalid_request"),  # missing n
            ({"op": "plan", "fleet": "fp", "n": True}, "invalid_request"),
            ({"op": "plan", "fleet": "fp", "n": 1, "timeout_ms": 0}, "invalid_request"),
            ({"op": "plan", "fleet": "fp", "n": 1, "timeout_ms": "fast"}, "invalid_request"),
            ({"op": "plan_many", "fleet": "fp", "ns": "123"}, "invalid_request"),
            ({"op": "plan_many", "fleet": "fp", "ns": [1, None]}, "invalid_request"),
            ({"op": "register_fleet", "speed_functions": []}, "invalid_request"),
            ({"op": "register_fleet", "speed_functions": ["x"]}, "invalid_request"),
        ],
    )
    def test_malformed_requests(self, raw, code):
        with pytest.raises(ProtocolError) as err:
            parse_request(raw)
        assert err.value.code == code

    @pytest.mark.parametrize(
        "field, value",
        [
            ("algorithm", "quantum"),
            ("cache_size", 0),
            ("cache_size", True),
            ("name", 7),
            ("options", {"mode": "sideways"}),
            ("options", {"refine": "vibes"}),
            ("options", {"bogus_option": 1}),
            ("options", {"region": {}}),  # real field, not wire-settable
            ("options", "mode=tangent"),
        ],
    )
    def test_register_fleet_field_validation(self, trio_spec, field, value):
        raw = {
            "op": "register_fleet",
            "speed_functions": trio_spec["speed_functions"],
            field: value,
        }
        with pytest.raises(ProtocolError) as err:
            parse_request(raw)
        assert err.value.code == "invalid_request"
        if field == "options" and isinstance(value, dict):
            assert next(iter(value)) in str(err.value)

    def test_protocol_error_is_a_configuration_error(self):
        assert issubclass(ProtocolError, ConfigurationError)
        with pytest.raises(ValueError):
            ProtocolError("no_such_code", "x")


class TestFraming:
    def test_round_trip(self):
        frame = encode_frame({"op": "health", "id": 3})
        assert frame.endswith(b"\n")
        assert b"\n" not in frame[:-1]
        assert decode_frame(frame) == {"op": "health", "id": 3}

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError) as err:
            decode_frame(b"{nope")
        assert err.value.code == "invalid_request"
        with pytest.raises(ProtocolError):
            decode_frame(b"[1, 2]")  # an array is not a request object

    def test_responses_carry_version_and_id(self):
        ok = ok_response(9, {"x": 1})
        assert ok == {"v": PROTOCOL_VERSION, "id": 9, "ok": True, "result": {"x": 1}}
        err = error_response(None, "overloaded", "busy")
        assert err["error"]["code"] == "overloaded"
        assert err["ok"] is False
        with pytest.raises(ValueError):
            error_response(1, "not_a_code", "x")


class TestErrorMapping:
    def test_library_exceptions_map_to_wire_codes(self):
        assert error_code_for(InfeasiblePartitionError("n")) == "infeasible"
        assert error_code_for(ConfigurationError("bad")) == "invalid_request"
        assert error_code_for(InvalidSpeedFunctionError("bad")) == "invalid_request"
        assert error_code_for(RuntimeError("boom")) == "internal"
        assert error_code_for(ProtocolError("overloaded", "x")) == "overloaded"


class TestFleetSpecs:
    def test_register_request_spec_keeps_the_fingerprint(self, trio_sfs, trio_spec):
        req = parse_request(
            {"op": "register_fleet", "name": "t", "cache_size": 16,
             "speed_functions": trio_spec["speed_functions"],
             "options": {"mode": "angle"}}
        )
        spec = req.spec()
        assert (spec["name"], spec["mode"], spec["cache_size"]) == ("t", "angle", 16)
        rebuilt = Fleet(speed_functions_from_fleet_spec(spec), name="t")
        assert rebuilt.fingerprint == Fleet(trio_sfs, name="t").fingerprint

    def test_spec_round_trip_preserves_fingerprint(self, trio_sfs):
        spec = fleet_spec_from_speed_functions(trio_sfs, name="t")
        rebuilt = Fleet(speed_functions_from_fleet_spec(spec), name="t")
        assert rebuilt.fingerprint == Fleet(trio_sfs, name="t").fingerprint

    def test_spec_survives_json(self, trio_sfs):
        import json

        spec = fleet_spec_from_speed_functions(trio_sfs)
        wired = json.loads(json.dumps(spec))
        rebuilt = Fleet(speed_functions_from_fleet_spec(wired))
        assert rebuilt.fingerprint == Fleet(trio_sfs).fingerprint
