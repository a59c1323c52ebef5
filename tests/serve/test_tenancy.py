"""Unit tests for repro.serve.tenancy plus protocol/service integration.

Covers the pieces below the fair queue (whose scheduling properties live
in ``test_wfq_properties.py``):

* :class:`TokenBucket` refill arithmetic under an injected clock;
* :class:`TenantQuota` / :class:`TenancyConfig` validation and lookup;
* :class:`QuotaManager` verdicts (unmetered default, per-tenant buckets);
* protocol parsing of the additive ``tenant`` / ``idempotency_key``
  fields, including their limits;
* the ``throttled`` error code end to end;
* the backward-compatibility snapshot: frames without the new fields
  must parse to byte-identical requests and serve byte-identical
  responses, tenancy idle.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.exceptions import ConfigurationError
from repro.serve import ServeClient, ServeError
from repro.serve.protocol import (
    ERROR_CODES,
    MAX_IDEMPOTENCY_KEY_LEN,
    MAX_TENANT_LEN,
    PROTOCOL_VERSION,
    ProtocolError,
    parse_request,
)
from repro.serve.tenancy import (
    QuotaManager,
    TenancyConfig,
    TenantQuota,
    TokenBucket,
)


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


# -- token bucket --------------------------------------------------------
def test_token_bucket_burst_then_refill():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=4.0, clock=clock)
    assert all(bucket.try_acquire(1.0) for _ in range(4))
    assert not bucket.try_acquire(1.0)
    clock.advance(1.0)  # 2 tokens back
    assert bucket.try_acquire(1.0)
    assert bucket.try_acquire(1.0)
    assert not bucket.try_acquire(1.0)


def test_token_bucket_caps_at_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=100.0, burst=3.0, clock=clock)
    clock.advance(3600.0)
    assert all(bucket.try_acquire(1.0) for _ in range(3))
    assert not bucket.try_acquire(1.0)


def test_token_bucket_fractional_costs():
    clock = FakeClock()
    bucket = TokenBucket(rate=1.0, burst=1.0, clock=clock)
    assert bucket.try_acquire(0.5)
    assert bucket.try_acquire(0.5)
    assert not bucket.try_acquire(0.5)


# -- config validation ---------------------------------------------------
def test_quota_validation():
    with pytest.raises(ConfigurationError):
        TenantQuota(weight=0.0)
    with pytest.raises(ConfigurationError):
        TenantQuota(weight=-1.0)
    with pytest.raises(ConfigurationError):
        TenantQuota(rate=-1.0)
    with pytest.raises(ConfigurationError):
        TenantQuota(rate=1.0, burst=0.0)
    assert TenantQuota().rate is None  # unmetered by default


def test_tenancy_config_lookup_falls_back_to_default():
    config = TenancyConfig(
        tenants={"gold": TenantQuota(weight=8.0)},
        default=TenantQuota(weight=2.0),
    )
    assert config.quota_for("gold").weight == 8.0
    assert config.quota_for("anyone-else").weight == 2.0
    assert config.quota_for("").weight == 2.0


# -- quota manager -------------------------------------------------------
def test_quota_manager_unmetered_without_config():
    quotas = QuotaManager(None)
    assert all(quotas.try_acquire("anyone", 1000.0) for _ in range(100))
    assert quotas.weight_for("anyone") == 1.0


def test_quota_manager_meters_only_rated_tenants():
    clock = FakeClock()
    quotas = QuotaManager(
        TenancyConfig(
            tenants={"metered": TenantQuota(rate=1.0, burst=2.0)},
        ),
        clock=clock,
    )
    assert quotas.try_acquire("metered", 1.0)
    assert quotas.try_acquire("metered", 1.0)
    assert not quotas.try_acquire("metered", 1.0)
    # The default quota has no rate: other tenants stay unmetered.
    assert all(quotas.try_acquire("free", 10.0) for _ in range(50))


def test_quota_manager_weights():
    quotas = QuotaManager(
        TenancyConfig(
            tenants={"gold": TenantQuota(weight=8.0)},
            default=TenantQuota(weight=0.5),
        )
    )
    assert quotas.weight_for("gold") == 8.0
    assert quotas.weight_for("bronze") == 0.5


# -- protocol fields -----------------------------------------------------
def _plan_frame(**extra) -> dict:
    return {"v": PROTOCOL_VERSION, "id": 1, "op": "plan", "fleet": "f" * 32,
            "n": 1000, **extra}


def test_throttled_is_a_registered_error_code():
    assert "throttled" in ERROR_CODES


def test_parse_tenant_and_idempotency_key():
    req = parse_request(_plan_frame(tenant="acme", idempotency_key="k-1"))
    assert req.tenant == "acme"
    assert req.idempotency_key == "k-1"


def test_parse_rejects_bad_tenant_values():
    with pytest.raises(ProtocolError):
        parse_request(_plan_frame(tenant=7))
    with pytest.raises(ProtocolError):
        parse_request(_plan_frame(tenant="x" * (MAX_TENANT_LEN + 1)))
    with pytest.raises(ProtocolError):
        parse_request(_plan_frame(idempotency_key=""))
    with pytest.raises(ProtocolError):
        parse_request(
            _plan_frame(idempotency_key="x" * (MAX_IDEMPOTENCY_KEY_LEN + 1))
        )


def test_plan_many_carries_the_fields_too():
    frame = {"v": PROTOCOL_VERSION, "id": 2, "op": "plan_many",
             "fleet": "f" * 32, "ns": [10, 20], "tenant": "acme",
             "idempotency_key": "batch-7"}
    req = parse_request(frame)
    assert req.tenant == "acme" and req.idempotency_key == "batch-7"


def test_legacy_frames_parse_identically():
    """A v1 frame without the new fields is exactly the old request."""
    req = parse_request(_plan_frame())
    assert req.tenant == "" and req.idempotency_key is None
    # The request dataclass gained only additive, defaulted fields.
    fields = {f.name for f in dataclasses.fields(req)}
    assert {"fleet", "n", "timeout_ms", "allocation", "trace"} <= fields


# -- end to end ----------------------------------------------------------
def test_throttled_error_code_end_to_end(start_server, trio_sfs):
    handle = start_server(
        shards=1,
        tenancy=TenancyConfig(
            tenants={"capped": TenantQuota(rate=0.001, burst=2.0)}
        ),
    )
    with ServeClient(handle.host, handle.port) as client:
        fp = client.register_fleet(trio_sfs, name="trio")["fingerprint"]
        assert client.plan(fp, 400_000, tenant="capped")["ok"]
        assert client.plan(fp, 410_000, tenant="capped")["ok"]
        with pytest.raises(ServeError) as excinfo:
            client.plan(fp, 420_000, tenant="capped")
        assert excinfo.value.code == "throttled"
        # Other tenants are untouched by the capped tenant's verdict.
        assert client.plan(fp, 430_000, tenant="other")["ok"]
        assert client.plan(fp, 440_000)["ok"]
        tenants = client.stats()["tenancy"]["tenants"]
        assert tenants["capped"]["throttled"] == 1


def test_legacy_traffic_snapshot_with_tenancy_idle(start_server, trio_sfs):
    """Requests without tenant/idempotency_key behave exactly as before.

    Two servers — one default config, one with tenancy configured —
    must answer a legacy frame with byte-identical result payloads,
    and the default server must report tenancy disabled.
    """
    plain = start_server(shards=1)
    quota = start_server(
        shards=1,
        tenancy=TenancyConfig(tenants={"vip": TenantQuota(weight=9.0)}),
    )
    answers = []
    for handle in (plain, quota):
        with ServeClient(handle.host, handle.port) as client:
            fp = client.register_fleet(trio_sfs, name="trio")["fingerprint"]
            answers.append(client.plan(fp, 650_000))
            stats = client.stats()
    assert answers[0] == answers[1]
    with ServeClient(plain.host, plain.port) as client:
        assert client.stats()["tenancy"]["enabled"] is False
    assert stats["tenancy"]["enabled"] is True
