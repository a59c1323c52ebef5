#!/usr/bin/env python
"""Compiled-pack speedup bench: every model family at figure-21 scale.

Times a cold ``partition_bisection`` at ``p = 1080`` over three fleets —
piecewise-linear (the original fast path), step-model and EWMA-rescaled
(both newly compiled through the knot protocol) — against the per-object
oracle: the same solve on an explicit
:class:`repro.core.vectorized.ObjectSet` evaluator.  The measured quantity
is the dimensionless ratio ``per-object / compiled`` on the same
machine, so it needs no external calibration; ``perf_guard.py`` imports
:func:`measure_speedups` and gates the step and rescaled ratios at
``MIN_COMPILED_SPEEDUP`` as part of ``make bench-smoke``.

Both paths must also produce bit-identical allocations (these families
compile exactly); a mismatch fails the run before any timing is
reported.

Usage::

    python benchmarks/bench_core_vectorised.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.bisection import partition_bisection  # noqa: E402
from repro.core.step_model import StepSpeedFunction  # noqa: E402
from repro.core.vectorized import ObjectSet  # noqa: E402
from repro.experiments import build_network_models, tile_speed_functions  # noqa: E402
from repro.machines import table2_network  # noqa: E402

P = 1080
N = 2_000_000_000

#: The acceptance floor: the compiled path must beat the per-object
#: oracle by at least this factor on the newly compiled fleets.  The
#: ratio compares two runs on the same machine in the same process, so
#: machine-speed drift cancels and the gate is stable on shared hosts.
MIN_COMPILED_SPEEDUP = 5.0


def _step_fleet(p: int) -> list[StepSpeedFunction]:
    """A heterogeneous cache/memory/swap staircase fleet."""
    rng = np.random.default_rng(1080)
    fleet = []
    for _ in range(p):
        peak = float(rng.uniform(40.0, 400.0))
        bs = np.array([2e5, 8e5, 4e6]) * float(rng.uniform(0.6, 1.4))
        ss = peak * np.array([1.0, float(rng.uniform(0.3, 0.7)),
                              float(rng.uniform(0.02, 0.15))])
        fleet.append(StepSpeedFunction(bs, ss))
    return fleet


def build_fleets() -> dict[str, list]:
    """The three p=1080 fleets of the guarded workload."""
    mm_models = build_network_models(table2_network(), "matmul")
    pwl = list(tile_speed_functions(mm_models, P))
    rng = np.random.default_rng(2004)
    factors = rng.uniform(0.7, 1.3, P)
    rescaled = [sf.scaled(float(f)) for sf, f in zip(pwl, factors)]
    return {"pwl": pwl, "step": _step_fleet(P), "rescaled": rescaled}


def _best_of(fn, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def measure_speedups(repeats: int = 2) -> dict[str, dict[str, float]]:
    """Cold compiled-vs-per-object solve times per fleet.

    Each compiled timing includes the pack construction (the solve is
    *cold*: ``partition_bisection`` packs the fleet itself), so the
    ratio reflects what a one-shot caller actually gains.
    """
    results: dict[str, dict[str, float]] = {}
    for name, sfs in build_fleets().items():
        compiled_result = partition_bisection(N, sfs)
        pure_result = partition_bisection(N, sfs, pack=ObjectSet(sfs))
        if not np.array_equal(compiled_result.allocation, pure_result.allocation):
            raise AssertionError(
                f"{name}: compiled and per-object allocations diverged"
            )
        compiled_s = _best_of(lambda: partition_bisection(N, sfs), repeats)
        pure_s = _best_of(
            lambda: partition_bisection(N, sfs, pack=ObjectSet(sfs)), repeats
        )
        results[name] = {
            "compiled_seconds": compiled_s,
            "per_object_seconds": pure_s,
            "speedup": pure_s / compiled_s,
        }
    return results


def main() -> int:
    status = 0
    for name, r in measure_speedups().items():
        print(
            f"bench-core-vectorised: {name:9s} p={P} compiled "
            f"{r['compiled_seconds'] * 1e3:8.2f} ms  per-object "
            f"{r['per_object_seconds'] * 1e3:8.2f} ms  -> "
            f"{r['speedup']:6.1f}x"
        )
        if name in ("step", "rescaled") and r["speedup"] < MIN_COMPILED_SPEEDUP:
            print(
                f"bench-core-vectorised: FAIL — {name} fleet compiled path is "
                f"only {r['speedup']:.1f}x the per-object oracle "
                f"(floor {MIN_COMPILED_SPEEDUP:.0f}x)",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
