"""The four benchmark workloads and the load generator that drives them.

Each workload builds its inputs from the seed, sets up (fleets, server
children, registration, warm-up or fill), runs one timed phase, and
checks the answers it got outside the timed region.  The timed phase is
measured from the client side of the public API only; the layer pass in
``layers.py`` reads what each workload captured for it.

Why these four (README.md has the full table):

* ``solve`` — repro.core and repro.planner alone, no serve layer: a
  solver change shows here, a front-end change cannot.
* ``serve_hot`` — every request an L1 cache hit, so the whole cost is the
  serve stack (codec, admission, WFQ inbox, batch window, shard hop,
  tracing); a solver change predicts no move here.
* ``serve_cold`` — every size distinct on process shards behind a full
  shared warm tier: warm-started ``plan_many`` sweeps and the pickled
  shard boundary dominate, where a long-lived process-mode server sits.
* ``mixed_routed`` — open-loop arrivals through the cluster router with
  two weighted tenants, idempotent retries and ``observe`` writes that
  drive an online refit: the only workload that writes.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import Counter
from typing import Any, Callable, Mapping

import numpy as np

from common import (
    P,
    P_SMALL,
    Checker,
    ServerChild,
    cold_reference,
    fresh_sizes,
    median,
    pwl_speed_functions,
    quantile,
    rng_for,
    rss_peak_mb,
    solve_families,
    table2_models,
    zipf_pool,
)

#: Closed-loop clients in flight for the served closed-loop workloads.
CONCURRENCY = 32
#: TCP connections the generator may open to the server under test.
CONNECTIONS = 2
#: Frames (and plans) kept per workload for the layer pass.
SAMPLES = 64


def item_of(envelope: Mapping) -> dict:
    """The result inside a response envelope (an error item on failure)."""
    if envelope.get("ok"):
        return {"ok": True, **envelope["result"]}
    err = envelope.get("error") or {}
    return {"ok": False, "code": err.get("code", "internal")}


def latency_metrics(latencies_s) -> tuple[dict, dict]:
    """p50/p90/p99 in ms, and the samples each rests on (``.beyond``: past it)."""
    n = len(latencies_s)
    metrics = {
        f"latency_p{q}_ms": quantile(latencies_s, q / 100) * 1e3 for q in (50, 90, 99)
    }
    samples = {"latency_p50_ms": n}
    for q in (90, 99):
        samples[f"latency_p{q}_ms.beyond"] = n - int(np.ceil(q / 100 * n))
    return metrics, samples


# ---------------------------------------------------------------------------
# The load generator: one asyncio loop, at most two pipelined connections
# ---------------------------------------------------------------------------


class Generator:
    """Drives one server through ``AsyncServeClient`` on a private loop."""

    def __init__(self, host: str, port: int):
        from repro.serve import AsyncServeClient

        self.loop = asyncio.new_event_loop()
        self.clients = [
            self.run(AsyncServeClient.connect(host, port)) for _ in range(CONNECTIONS)
        ]

    def run(self, coro):
        return self.loop.run_until_complete(coro)

    def close(self) -> None:
        for client in self.clients:
            self.run(client.close())
        self.loop.close()

    def closed_loop(
        self,
        seconds: float,
        next_request: Callable[[], dict],
        record: Callable[[dict, dict, float], None],
        concurrency: int = CONCURRENCY,
    ) -> float:
        """``concurrency`` callers, each sending its next ``plan`` on a reply.

        Returns the elapsed seconds; requests sent before the deadline are
        all awaited, so the elapsed time includes their completion.
        """

        async def caller(i: int) -> None:
            client = self.clients[i % len(self.clients)]
            while time.perf_counter() < deadline:
                fields = next_request()
                t0 = time.perf_counter()
                response = await client.call("plan", **fields)
                record(fields, response, time.perf_counter() - t0)

        async def drive() -> None:
            await asyncio.gather(*(caller(i) for i in range(concurrency)))

        start = time.perf_counter()
        deadline = start + seconds
        self.run(drive())
        return time.perf_counter() - start

    def open_loop(
        self,
        schedule: list[tuple[float, str, dict]],
        record: Callable[[int, dict, float, float], None],
    ) -> tuple[list[float], float]:
        """Send each ``(offset, op, fields)`` when due, whatever is pending.

        ``record`` gets the operation's index, its response, its latency
        from the due time (so a stall also counts against every request
        queued behind it) and its round trip from the send.  Returns the
        generator's own lateness (send time minus due time) per operation
        and the seconds from the start to the last answer.
        """
        lateness: list[float] = []

        async def one(i: int, op: str, fields: dict, due: float) -> None:
            sent = time.perf_counter()
            response = await self.clients[i % len(self.clients)].call(op, **fields)
            done = time.perf_counter()
            record(i, response, done - due, done - sent)

        async def drive() -> None:
            tasks = []
            for i, (offset, op, fields) in enumerate(schedule):
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                lateness.append(time.perf_counter() - due)
                tasks.append(asyncio.ensure_future(one(i, op, fields, due)))
            await asyncio.gather(*tasks)

        start = time.perf_counter()
        self.run(drive())
        return lateness, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Shared lifecycle: setup, one timed phase, checks, teardown."""

    name = ""

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = int(seed)
        self.smoke = smoke
        self.checker = Checker()
        self.children: list[ServerChild] = []
        self.gen: Generator | None = None
        self.errors: Counter = Counter()
        #: Inputs captured for the layer pass; ``round_trips`` maps a
        #: response's trace id to the client's round trip in seconds.
        self.capture: dict[str, Any] = {"frames": [], "round_trips": {}}

    def spawn(self, config, **kwargs) -> ServerChild:
        child = ServerChild(config, **kwargs)
        self.children.append(child)
        return child

    def rss_peak_mb(self) -> float:
        return rss_peak_mb([c.pid for c in self.children] or [os.getpid()])

    def teardown(self) -> None:
        if self.gen is not None:
            self.gen.close()
            self.gen = None
        while self.children:
            self.children.pop().stop()

    def _keep_frame(self, op: str, fields: dict, response: dict) -> None:
        frames = self.capture["frames"]
        if len(frames) < SAMPLES:
            frames.append(({"v": 1, "id": len(frames) + 1, "op": op, **fields}, response))

    def _keep_round_trip(self, response: dict, seconds: float) -> None:
        if "trace_id" in response:
            self.capture["round_trips"][response["trace_id"]] = seconds

    @staticmethod
    def _served_result(elapsed: float, ok: int, latencies: list[float]) -> dict:
        metrics, samples = latency_metrics(latencies)
        metrics["throughput_per_s"] = ok / elapsed
        samples["throughput_per_s"] = ok
        return {"metrics": metrics, "samples": samples}

    def _stats(self, child: ServerChild) -> dict:
        from repro.serve import ServeClient

        with ServeClient(child.host, child.port) as client:
            return client.stats()


class Solve(Workload):
    """In-process closed loop over the planner, one planner per fleet family."""

    name = "solve"

    def setup(self) -> None:
        from repro.planner import Fleet, Planner

        self.families = solve_families()
        self.planners = {
            name: Planner(Fleet(sfs, name=f"bench-{name}"))
            for name, sfs in self.families.items()
        }
        rng = rng_for(self.seed, self.name)
        self.streams = {
            name: fresh_sizes(rng, planner.fleet.capacity)
            for name, planner in self.planners.items()
        }
        self.order = list(self.planners)
        for i in range(12 if self.smoke else 96):
            name = self.order[i % len(self.order)]
            self.planners[name].plan(next(self.streams[name]))

    def run(self, seconds: float) -> dict:
        latencies: list[float] = []
        self.kept: list[tuple[str, Any]] = []
        first = []
        i = 0
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            name = self.order[i % len(self.order)]
            n = next(self.streams[name])
            t0 = time.perf_counter()
            plan = self.planners[name].plan(n)
            latencies.append(time.perf_counter() - t0)
            if i % 50 == 0:
                self.kept.append((name, plan))
            if name == "pwl" and len(first) < SAMPLES:
                first.append(plan)
            i += 1
        elapsed = time.perf_counter() - start
        self._capture(first)
        result = self._served_result(elapsed, i, latencies)
        result.update(attempted=i, failed=0)
        return result

    def _capture(self, plans) -> None:
        """Layer-pass inputs from the first timed plans on the pwl fleet."""
        from repro.serve.protocol import ok_response
        from repro.serve.shard import result_to_dict

        fingerprint = self.planners["pwl"].fleet.fingerprint
        for plan in plans:
            fields = {"fleet": fingerprint, "n": int(plan.n), "allocation": True}
            self._keep_frame("plan", fields, ok_response(0, result_to_dict(plan)))
        stats = [planner.stats() for planner in self.planners.values()]
        self.capture.update(
            families=self.families,
            sfs=self.families["pwl"],
            sizes=[int(plan.n) for plan in plans],
            slopes=[plan.slope for plan in plans if plan.slope is not None],
            iterations=[plan.iterations for plan in plans],
            cache=(sum(s.cache.hits for s in stats), sum(s.cache.misses for s in stats)),
            warm=(sum(s.warm_plans for s in stats), sum(s.cold_plans for s in stats)),
        )

    def check(self) -> None:
        for name, plan in self.kept:
            self.checker.allocation(plan, cold_reference(plan.n, self.families[name]))


class _ClosedLoopServe(Workload):
    """One server child driven by 32 closed-loop callers asking for allocations."""

    config: dict = {}
    warm_seconds = 0.5

    def setup(self) -> None:
        from repro.serve import ServeClient, ServeConfig

        self.sfs = pwl_speed_functions()
        self.server = self.spawn(ServeConfig(http_port=0, **self.config))
        with ServeClient(self.server.host, self.server.port) as client:
            info = client.register_fleet(self.sfs, name=f"bench-{self.name}")
            self.fp = info["fingerprint"]
            self.capacity = info["capacity"]
            self._prepare(client)
        self.gen = Generator(self.server.host, self.server.port)
        self.latencies: list[float] = []
        self.ok = 0
        self.items: list[dict] = []
        self.gen.closed_loop(
            0.1 if self.smoke else self.warm_seconds, self._next, lambda *_: None
        )

    def _prepare(self, client) -> None:
        """Build the size stream and warm or fill the server, before timing."""
        raise NotImplementedError

    def _next(self) -> dict:
        return {"fleet": self.fp, "n": self._next_size(), "allocation": True}

    def _record(self, fields: dict, response: dict, seconds: float) -> None:
        self.latencies.append(seconds)
        item = item_of(response)
        if item["ok"]:
            self.ok += 1
        else:
            self.errors[item["code"]] += 1
        self._keep_frame("plan", fields, response)
        self._keep_round_trip(response, seconds)
        if len(self.items) < SAMPLES:
            self.items.append(item)
        self._keep(fields["n"], item)

    def run(self, seconds: float) -> dict:
        elapsed = self.gen.closed_loop(seconds, self._next, self._record)
        result = self._served_result(elapsed, self.ok, self.latencies)
        result.update(attempted=len(self.latencies), failed=sum(self.errors.values()))
        ok_items = [it for it in self.items if it["ok"]]
        self.capture.update(
            sfs=self.sfs,
            families={"pwl": self.sfs},
            sizes=self._checked_sizes(),
            slopes=[it["slope"] for it in ok_items if it.get("slope") is not None],
            iterations=[it["iterations"] for it in ok_items],
        )
        return result


class ServeHot(_ClosedLoopServe):
    """64 zipfian sizes, all cached before timing: the serve stack alone."""

    name = "serve_hot"

    def _prepare(self, client) -> None:
        rng = rng_for(self.seed, self.name)
        self.pool, weights = zipf_pool(rng, self.capacity)
        self.draws = iter(rng.choice(len(self.pool), size=1 << 20, p=weights).tolist())
        client.plan_many(self.fp, self.pool)
        self.served: dict[int, dict] = {}

    def _next_size(self) -> int:
        return self.pool[next(self.draws)]

    def _keep(self, n: int, item: dict) -> None:
        self.served.setdefault(n, item)

    def _checked_sizes(self) -> list[int]:
        return list(self.pool)

    def check(self) -> None:
        for n, item in self.served.items():
            self.checker.allocation(item, cold_reference(n, self.sfs))

    def tracing_cost_pct(self, burst: float) -> float:
        """1 - traced / untraced throughput over short alternating bursts."""
        from repro.serve import ServeClient, ServeConfig

        untraced = ServerChild(ServeConfig(http_port=0, tracing=False))
        try:
            with ServeClient(untraced.host, untraced.port) as client:
                client.register_fleet(self.sfs, name=f"bench-{self.name}")
                client.plan_many(self.fp, self.pool)
            other = Generator(untraced.host, untraced.port)
            try:
                rates: dict[bool, list[float]] = {True: [], False: []}
                for _ in range(2):
                    for traced, gen in ((True, self.gen), (False, other)):
                        done = [0]

                        def count(fields, response, seconds, done=done) -> None:
                            done[0] += bool(response.get("ok"))

                        elapsed = gen.closed_loop(burst, self._next, count)
                        rates[traced].append(done[0] / elapsed)
            finally:
                other.close()
        finally:
            untraced.stop()
        return 100.0 * (1.0 - median(rates[True]) / median(rates[False]))


class ServeCold(_ClosedLoopServe):
    """Distinct sizes on process shards behind a full shared warm tier."""

    name = "serve_cold"
    config = {"worker_mode": "process"}
    warm_seconds = 1.0

    def _prepare(self, client) -> None:
        from repro.serve import ServeConfig

        filler = pwl_speed_functions(P_SMALL)
        filler_fp = client.register_fleet(filler, name="bench-filler")["fingerprint"]
        filler_sizes = fresh_sizes(
            rng_for(self.seed, "filler"), sum(sf.max_size for sf in filler)
        )
        bound = ServeConfig().warm_tier_size
        entries = 0
        while entries < bound:
            missing = bound - entries
            for start in range(0, missing, 256):
                client.plan_many(
                    filler_fp,
                    [next(filler_sizes) for _ in range(min(256, missing - start))],
                    allocation=False,
                )
            entries = self._settled_entries(client)
        self.sizes = fresh_sizes(rng_for(self.seed, self.name), self.capacity)
        self.answered = 0
        self.kept: list[tuple[int, dict]] = []

    @staticmethod
    def _settled_entries(client) -> int:
        """Warm-tier entries once the write-behind mirrors have landed."""
        last = -1
        while True:
            entries = client.stats()["tenancy"]["warm_tier"]["entries"]
            if entries == last:
                return entries
            last = entries
            time.sleep(0.05)

    def _next_size(self) -> int:
        return next(self.sizes)

    def _keep(self, n: int, item: dict) -> None:
        if self.answered % 20 == 0:
            self.kept.append((n, item))
        self.answered += 1

    def _checked_sizes(self) -> list[int]:
        return [n for n, _ in self.kept]

    def check(self) -> None:
        for n, item in self.kept:
            self.checker.allocation(item, cold_reference(n, self.sfs))


def observe_records(
    models, start: int, count: int, rng: np.random.Generator, *, drift: bool
) -> list[dict]:
    """``observe`` records for machines 0-3, whose models both fleets share.

    Without ``drift`` the speeds are the models' own, so a refit check
    finds nothing to do.  With it, machines run 2x faster above size 1e6
    for the first 256 records of every 512 — the band-shape drift the
    online refitter must chase.
    """
    records = []
    for k in range(start, start + count):
        machine = k % 4
        model = models[machine]
        lo, hi = float(model.knot_sizes[0]), float(model.max_size)
        size = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        drifted = drift and (k // 256) % 2 == 0 and size > 1e6
        speed = float(model.speed(size)) * (2.0 if drifted else 1.0)
        records.append({"machine": machine, "size": size, "speed": speed,
                        "timestamp": float(k), "source": "step"})
    return records


class MixedRouted(Workload):
    """Open-loop reads and writes through a router to one refitting node."""

    name = "mixed_routed"
    #: Plan arrivals per second.
    RATE = 50.0
    RECORDS_PER_OBSERVE = 32
    #: Seconds between writes of undrifted records to the interactive fleet.
    STEADY_WRITE_EVERY = 0.8
    #: Seconds between writes of drifting records to the batch fleet.  The
    #: node checks for a refit every 128 records (four such writes), so
    #: a 10 s window holds one refit at a fixed phase: frequent refits
    #: would make every tail percentile hinge on a handful of stalls.
    DRIFT_WRITE_EVERY = 2.5
    WARMUP_SECONDS = 2.0

    def setup(self) -> None:
        from repro.cluster import NodeInfo, RouterConfig
        from repro.serve import (
            OnlineRefitConfig,
            ServeClient,
            ServeConfig,
            TenancyConfig,
            TenantQuota,
        )

        self.tenancy = TenancyConfig(tenants={
            "interactive": TenantQuota(weight=8.0),
            "batch": TenantQuota(weight=1.0),
        })
        self.node = self.spawn(ServeConfig(
            http_port=0, online_refit=OnlineRefitConfig(), tenancy=self.tenancy,
        ))
        self.router = self.spawn(
            RouterConfig(replication=1, http_port=0), kind="router",
            nodes=[NodeInfo(self.node.host, self.node.port, self.node.http_port)],
        )
        self.models = table2_models()
        self.big_sfs = pwl_speed_functions(P)
        self.small_sfs = pwl_speed_functions(P_SMALL)
        self.rng = rng_for(self.seed, self.name)
        with ServeClient(self.router.host, self.router.port) as client:
            big = client.register_fleet(self.big_sfs, name="bench-batch")
            small = client.register_fleet(self.small_sfs, name="bench-interactive")
            self.big_fp, self.small_fp = big["fingerprint"], small["fingerprint"]
            self.pool, self.weights = zipf_pool(self.rng, big["capacity"])
            self.batch_fresh = fresh_sizes(self.rng, big["capacity"])
            self.interactive_fresh = fresh_sizes(self.rng, small["capacity"])
            client.plan_many(self.big_fp, self.pool, allocation=False, tenant="batch")
        self.clock = 0.0
        self.records = {self.big_fp: 0, self.small_fp: 0}
        self.drift_sent: list[dict] = []
        self.keys: list[tuple[str, int]] = []
        self.gen = Generator(self.router.host, self.router.port)
        warmup = self._schedule(0.5 if self.smoke else self.WARMUP_SECONDS)
        self.gen.open_loop(warmup, lambda *_: None)

    def _plan(self) -> dict:
        """One plan request: ~69% batch (zipfian or fresh), ~31% interactive."""
        rng = self.rng
        if rng.random() < 0.69:
            n = (self.pool[int(rng.choice(len(self.pool), p=self.weights))]
                 if rng.random() < 0.8 else next(self.batch_fresh))
            return {"fleet": self.big_fp, "n": n, "allocation": False, "tenant": "batch"}
        fields = {"fleet": self.small_fp, "n": next(self.interactive_fresh),
                  "allocation": True, "tenant": "interactive"}
        if rng.random() < 0.1:
            if self.keys and rng.random() < 0.5:
                key, fields["n"] = self.keys[int(rng.integers(len(self.keys)))]
            else:
                key = f"bench-{self.seed}-{len(self.keys)}"
                self.keys.append((key, fields["n"]))
            fields["idempotency_key"] = key
        return fields

    def _schedule(self, seconds: float) -> list[tuple[float, str, dict]]:
        """The next ``seconds`` of operations, as ``(offset, op, fields)``.

        Plans arrive as a seeded Poisson process conditioned on its count:
        ``RATE * seconds`` arrivals at sorted uniform times.  The gaps are
        as bursty as a plain Poisson stream's, but every window offers the
        same load, so throughput moves with the server, not with the draw.
        ``observe`` writes (~3% of operations) tick on fixed clocks that
        run on across calls, so every timed window holds the same writes
        at the same phase.
        """
        offsets = np.sort(self.rng.uniform(0.0, seconds, round(self.RATE * seconds)))
        schedule = [(float(t), "plan", self._plan()) for t in offsets]
        for fp, every in ((self.small_fp, self.STEADY_WRITE_EVERY),
                          (self.big_fp, self.DRIFT_WRITE_EVERY)):
            first = every / 2 + every * np.ceil((self.clock - every / 2) / every)
            for tick in np.arange(first, self.clock + seconds, every):
                records = observe_records(
                    self.models, self.records[fp], self.RECORDS_PER_OBSERVE, self.rng,
                    drift=fp == self.big_fp,
                )
                self.records[fp] += len(records)
                if fp == self.big_fp:
                    self.drift_sent.extend(records)
                schedule.append((float(tick - self.clock), "observe",
                                 {"fleet": fp, "observations": records}))
        self.clock += seconds
        schedule.sort(key=lambda op: op[0])
        return schedule

    def run(self, seconds: float) -> dict:
        schedule = self._schedule(seconds)
        plans: list[float] = []
        observes: list[float] = []
        answers: list[dict] = [{}] * len(schedule)

        def record(i: int, response: dict, latency: float, round_trip: float) -> None:
            _, op, fields = schedule[i]
            item = item_of(response)
            (observes if op == "observe" else plans).append(latency)
            if not item["ok"]:
                self.errors[item["code"]] += 1
            if op == "plan":
                self._keep_frame(op, fields, response)
                self._keep_round_trip(response, round_trip)
            answers[i] = item

        lateness, elapsed = self.gen.open_loop(schedule, record)
        self.answered = list(zip(schedule, answers))
        ok_plans = sum(1 for (_, op, _), it in self.answered if op == "plan" and it["ok"])
        result = self._served_result(elapsed, ok_plans, plans)
        batch = [(fields["n"], it) for (_, _, fields), it in self.answered
                 if fields.get("tenant") == "batch" and it["ok"]]
        self.capture.update(
            observe_ms=(quantile(observes, 0.5) * 1e3, quantile(observes, 0.9) * 1e3,
                        len(observes)),
            sfs=self.big_sfs,
            families={"pwl": self.big_sfs},
            sizes=[n for n, _ in batch][:SAMPLES],
            slopes=[it["slope"] for _, it in batch if it.get("slope") is not None][:SAMPLES],
            iterations=[it["iterations"] for _, it in batch],
            tenancy=self.tenancy,
            tenants=[f["tenant"] for _, op, f in schedule if op == "plan"],
            drift_window=self.drift_sent[:128],
        )
        result.update(
            attempted=len(schedule),
            failed=sum(self.errors.values()),
            lateness={
                "p50_ms": quantile(lateness, 0.5) * 1e3,
                "p99_ms": quantile(lateness, 0.99) * 1e3,
                "max_ms": max(lateness, default=0.0) * 1e3,
                "count": len(lateness),
            },
        )
        return result

    def check(self) -> None:
        references: dict[int, Any] = {}
        for (_, op, fields), item in self.answered:
            if op == "observe":
                self.checker.observe(item, len(fields["observations"]))
            elif fields["tenant"] == "batch":
                self.checker.summary(item, fields["n"], P)
            else:
                n = fields["n"]
                if n not in references:
                    references[n] = cold_reference(n, self.small_sfs)
                self.checker.allocation(item, references[n])


WORKLOAD_CLASSES = {cls.name: cls for cls in (Solve, ServeHot, ServeCold, MixedRouted)}
