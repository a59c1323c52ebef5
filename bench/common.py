"""Shared pieces of the repo benchmark: inputs, server children, checks.

Everything here talks to the library only through its public API.  The
fleet shapes are copied from ``benchmarks/bench_core_vectorised.py`` and
the calibration loop from ``benchmarks/perf_guard.py`` on purpose: the
benchmark must keep measuring the same thing while those files change.
"""

from __future__ import annotations

import http.client
import json
import math
import multiprocessing as mp
import os
import statistics
import sys
import time
import zlib
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: The p of the large fleet every workload plans on (figure 21's scale).
P = 1080
#: The p of the small fleets (mixed_routed's interactive tenant, fillers).
P_SMALL = 64

WORKLOADS = ("solve", "serve_hot", "serve_cold", "mixed_routed")


def load_spec() -> dict:
    """``BENCHMARK.json``: the workloads, the metrics, their units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def use_checkout_src() -> None:
    """Import the library from this checkout's ``src``, or exit non-zero.

    The benchmark measures the code next to it and nothing else, so an
    installed copy elsewhere must never stand in for a missing ``src``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no library source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent, reproducible random stream per (seed, purpose)."""
    return np.random.default_rng([int(seed), zlib.crc32(stream.encode())])


def fresh_sizes(rng: np.random.Generator, capacity: float) -> Iterator[int]:
    """Problem sizes in [2%, 90%] of capacity that never repeat."""
    lo, hi = int(0.02 * capacity), int(0.9 * capacity)
    seen: set[int] = set()
    while True:
        n = int(rng.integers(lo, hi))
        if n not in seen:
            seen.add(n)
            yield n


def zipf_pool(rng: np.random.Generator, capacity: float, k: int = 64):
    """``k`` distinct sizes and their zipfian (1/rank) draw weights."""
    sizes = []
    gen = fresh_sizes(rng, capacity)
    while len(sizes) < k:
        sizes.append(next(gen))
    weights = 1.0 / np.arange(1, k + 1)
    return sizes, weights / weights.sum()


def table2_models():
    from repro.experiments import build_network_models
    from repro.machines import table2_network

    return build_network_models(table2_network(), "matmul")


def pwl_speed_functions(p: int = P) -> list:
    """The testbed's 12 piecewise-linear models tiled to ``p`` machines."""
    from repro.experiments import tile_speed_functions

    return list(tile_speed_functions(table2_models(), p))


def step_speed_functions(p: int = P) -> list:
    """A heterogeneous cache/memory/swap staircase fleet."""
    from repro.core.step_model import StepSpeedFunction

    rng = np.random.default_rng(1080)
    fleet = []
    for _ in range(p):
        peak = float(rng.uniform(40.0, 400.0))
        bs = np.array([2e5, 8e5, 4e6]) * float(rng.uniform(0.6, 1.4))
        ss = peak * np.array([1.0, float(rng.uniform(0.3, 0.7)),
                              float(rng.uniform(0.02, 0.15))])
        fleet.append(StepSpeedFunction(bs, ss))
    return fleet


def rescaled_speed_functions(p: int = P) -> list:
    """The piecewise-linear fleet after an EWMA-style per-machine rescale."""
    rng = np.random.default_rng(2004)
    factors = rng.uniform(0.7, 1.3, p)
    return [sf.scaled(float(f)) for sf, f in zip(pwl_speed_functions(p), factors)]


def solve_families(p: int = P) -> dict[str, list]:
    return {
        "pwl": pwl_speed_functions(p),
        "step": step_speed_functions(p),
        "rescaled": rescaled_speed_functions(p),
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Nearest-rank q-quantile (0 for no samples)."""
    if not len(values):
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))])


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def calibration_seconds(repeats: int = 5) -> float:
    """Median time of a fixed numpy/interpreter mix touching no repro code.

    Recorded beside every run so numbers from different machines can be
    normalised; it is never gated.
    """
    x = np.arange(1.0, P + 1.0)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(400):
            y = np.sqrt(x * (1.0 + 1e-4 * i)) + 3.0
            np.minimum(y, x, out=y)
            acc += float(y.sum())
            idx = int(np.searchsorted(x, acc % P))
            acc += x[idx]
        times.append(time.perf_counter() - t0)
    return median(times)


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------


def _children_of() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        # The command name may hold spaces; the ppid follows its ')'.
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        kids.setdefault(ppid, []).append(int(entry))
    return kids


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def rss_peak_mb(roots) -> float:
    """Peak resident set (VmHWM) summed over the process trees at ``roots``."""
    kids = _children_of()
    total, stack, seen = 0, list(roots), set()
    while stack:
        pid = stack.pop()
        if pid in seen:
            continue
        seen.add(pid)
        total += _hwm_kb(pid)
        stack.extend(kids.get(pid, ()))
    return total / 1024.0


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def _plan_fields(plan) -> tuple:
    if isinstance(plan, Mapping):
        return plan.get("n"), plan.get("allocation"), plan.get("makespan")
    return plan.n, plan.allocation, plan.makespan


class Checker:
    """Counts answers checked and answers wrong, keeping a few reasons."""

    def __init__(self):
        self.checked = 0
        self.wrong = 0
        self.reasons: list[str] = []

    def _verdict(self, reason: str | None) -> bool:
        self.checked += 1
        if reason is None:
            return True
        self.wrong += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)
        return False

    def allocation(self, served, reference) -> bool:
        """``served`` (a wire item or a plan) must equal ``reference`` bit for bit."""
        n, alloc, makespan = _plan_fields(served)
        ref_n, ref_alloc, ref_makespan = _plan_fields(reference)
        reason = None
        if isinstance(served, Mapping) and not served.get("ok", False):
            reason = f"n={ref_n}: error {served.get('code')}"
        elif n != ref_n:
            reason = f"n={ref_n}: answer is for n={n}"
        elif alloc is None or not np.array_equal(
            np.asarray(alloc, dtype=np.int64), np.asarray(ref_alloc, dtype=np.int64)
        ):
            reason = f"n={ref_n}: allocation differs from a cold solve"
        elif float(makespan) != float(ref_makespan):
            reason = f"n={ref_n}: makespan {makespan!r} != {float(ref_makespan)!r}"
        return self._verdict(reason)

    def summary(self, served: Mapping, n: int, p: int) -> bool:
        """A summary-only item must echo n and p and carry a finite makespan."""
        reason = None
        makespan = served.get("makespan")
        if not served.get("ok", False):
            reason = f"n={n}: error {served.get('code')}"
        elif served.get("n") != n or served.get("p") != p:
            reason = f"n={n}: answer is for n={served.get('n')} p={served.get('p')}"
        elif not isinstance(makespan, (int, float)) or not math.isfinite(makespan) \
                or makespan <= 0:
            reason = f"n={n}: makespan {makespan!r} is not a positive finite number"
        return self._verdict(reason)

    def observe(self, served: Mapping, records: int) -> bool:
        """An ``observe`` answer must accept every record it was sent."""
        reason = None
        if not served.get("ok", False) or served.get("accepted") != records:
            reason = f"observe of {records} records answered {dict(served)!r}"
        return self._verdict(reason)


def cold_reference(n: int, speed_functions):
    """The oracle every served plan is compared with: a cold one-shot solve."""
    from repro.core.bisection import partition_bisection

    return partition_bisection(int(n), speed_functions)


# ---------------------------------------------------------------------------
# Server children
# ---------------------------------------------------------------------------


def _server_main(conn, src: str, kind: str, config, nodes) -> None:
    """Child body: boot one server (or router), report ports, await stop."""
    if src not in sys.path:
        sys.path.insert(0, src)
    if kind == "router":
        from repro.cluster import start_router_in_thread

        handle = start_router_in_thread(config, nodes)
    else:
        from repro.serve import start_in_thread

        handle = start_in_thread(config)
    conn.send({"port": handle.port, "http_port": handle.http_port})
    try:
        conn.recv()
    except EOFError:
        pass
    handle.stop()
    conn.close()


class ServerChild:
    """A planning server or cluster router in its own non-daemon process.

    Non-daemon so that a process-mode server can start its shard pool's
    ``multiprocessing.Manager``; :meth:`stop` always reaps it.
    """

    def __init__(self, config, *, kind: str = "server", nodes=(), timeout: float = 60.0):
        ctx = mp.get_context("spawn")
        self._conn, child_conn = ctx.Pipe()
        self._process = ctx.Process(
            target=_server_main,
            args=(child_conn, str(SRC), kind, config, list(nodes)),
            name=f"bench-{kind}",
        )
        self._process.start()
        child_conn.close()
        try:
            if not self._conn.poll(timeout):
                raise EOFError
            ports = self._conn.recv()
        except EOFError:
            self.stop()
            raise RuntimeError(f"bench {kind} child did not start") from None
        self.host = "127.0.0.1"
        self.port = int(ports["port"])
        self.http_port = ports["http_port"]

    @property
    def pid(self) -> int:
        return self._process.pid

    def stop(self, timeout: float = 30.0) -> None:
        if self._process.is_alive():
            try:
                self._conn.send("stop")
            except (BrokenPipeError, OSError):
                pass
            self._process.join(timeout)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(10.0)
        self._conn.close()

    def http_json(self, path: str) -> Any:
        """GET one JSON document from the child's HTTP listener."""
        conn = http.client.HTTPConnection(self.host, self.http_port, timeout=30)
        try:
            conn.request("GET", path)
            body = conn.getresponse().read()
        finally:
            conn.close()
        return json.loads(body)

    def traces(self, limit: int = 256) -> list[dict]:
        """Every trace the child's flight recorder retains (span trees included)."""
        listing = self.http_json(f"/debug/traces?limit={limit}")["traces"]
        out = []
        for row in listing:
            doc = self.http_json(f"/debug/traces?id={row['trace_id']}")
            if "spans" in doc:
                out.append(doc)
        return out
