"""repro.serve — a concurrent partition-planning service.

The paper's partitioner is a *query*: given a fleet's speed functions
and a problem size ``n``, return an optimal allocation.  Schedulers ask
that question thousands of times per second, so this package wraps the
:mod:`repro.planner` query layer in a production-shaped service:

* :mod:`repro.serve.protocol` — a versioned JSON request/response
  protocol (``plan``, ``plan_many``, ``register_fleet``, ``observe``,
  ``health``, ``stats``) with typed validation reusing
  :class:`~repro.core.options.PartitionOptions` and the library's
  :class:`~repro.exceptions.ConfigurationError` conventions;
* :mod:`repro.serve.hashring` — the consistent-hash ring that pins each
  fleet fingerprint to one worker shard;
* :mod:`repro.serve.shard` — the sharded worker pool (threads or
  ``multiprocessing``): each shard owns the :class:`~repro.planner.Planner`
  instances for its fingerprints, so plan caches stay shard-local and
  lock-free;
* :mod:`repro.serve.frontend` — the request pipeline (parse, trace,
  dispatch, envelope, record) this package's service and the
  :mod:`repro.cluster` router share;
* :mod:`repro.serve.service` — micro-batching (concurrent ``plan``
  requests for one fleet coalesce into a single
  :meth:`~repro.planner.Planner.plan_many` sweep), admission control
  (bounded per-shard queues, deadlines, explicit ``overloaded``
  shedding) and graceful drain;
* :mod:`repro.serve.server` — the asyncio front-end: newline-delimited
  JSON over TCP plus an optional stdlib-only HTTP/1.1 listener serving
  ``/metrics`` (Prometheus), ``/health``, ``/stats`` and ``POST /v1/rpc``;
* :mod:`repro.serve.client` — a blocking client, an asyncio load
  generator, and the latency/throughput report used by
  ``benchmarks/bench_serve_throughput.py`` and ``make serve-smoke``.

Quick tour::

    from repro.serve import ServeConfig, start_in_thread, ServeClient

    handle = start_in_thread(ServeConfig(shards=2))
    with ServeClient(handle.host, handle.port) as client:
        fp = client.register_fleet(speed_functions, name="testbed")
        result = client.plan(fp, 10_000_000)
    handle.stop()
"""

from __future__ import annotations

from .client import AsyncServeClient, LoadReport, ServeClient, ServeError, run_load
from .hashring import HashRing
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_response,
    fleet_spec_from_speed_functions,
    ok_response,
    parse_request,
    speed_functions_from_fleet_spec,
)
from .service import OnlineRefitConfig, PlanningService, ServeConfig
from .server import PlanServer, ServerHandle, start_in_thread
from .shard import ShardPool
from .tenancy import QuotaManager, TenancyConfig, TenantQuota, TokenBucket, WFQueue

__all__ = [
    "AsyncServeClient",
    "HashRing",
    "LoadReport",
    "OnlineRefitConfig",
    "PROTOCOL_VERSION",
    "PlanServer",
    "PlanningService",
    "ProtocolError",
    "QuotaManager",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerHandle",
    "ShardPool",
    "TenancyConfig",
    "TenantQuota",
    "TokenBucket",
    "WFQueue",
    "decode_frame",
    "encode_frame",
    "error_response",
    "fleet_spec_from_speed_functions",
    "ok_response",
    "parse_request",
    "run_load",
    "speed_functions_from_fleet_spec",
    "start_in_thread",
]
