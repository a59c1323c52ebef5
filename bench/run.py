#!/usr/bin/env python3
"""The repo benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python bench/run.py [--workload W] [--seed S] [--seconds T]
                        [--trace 0|1] [--out DIR] [--smoke]

Each workload runs in fresh Python processes against the library in this
checkout's ``src``: the set-up is repeated (``setup_s`` is the median of
the repeats) and the last process goes on to the timed phase, the
correctness checks and, with tracing, the layer pass.  Every metric is
printed by name with its unit, a run record lands in
``DIR/<workload>-s<seed>.json`` and the last line of standard output is
one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones, and no ``--trace`` both.  The exit
code is 1 when any answer was wrong, 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    ROOT,
    WORKLOADS,
    calibration_seconds,
    load_spec,
    median,
    use_checkout_src,
)
from layers import LAYER_UNITS

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Wall-clock budget of one workload, set-ups and layer pass included.
WORKLOAD_BUDGET_S = 170.0
#: The open-loop generator may run this late (p99) before a run is invalid.
MAX_LATENESS_P99_MS = 10.0
#: Metrics every run records but BENCHMARK.json does not declare.
RECORDED_UNITS = {"latency_p90_ms": "ms", "latency_p99_ms": "ms"}

SMOKE_SECONDS = 1.0

#: Where the workers' temporary files go (ignored by git with ``out/``).
TMP_DIR = BENCH_DIR / "out" / "tmp"
MAX_TMPDIR_CHARS = 72


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _worker_env() -> dict[str, str]:
    """The workers' environment, with temporary files kept in the checkout.

    A process-mode shard pool's ``multiprocessing.Manager`` listens on a
    Unix socket under ``TMPDIR``.  Socket addresses hold 107 bytes and
    multiprocessing adds about 32 to the directory, so a checkout whose
    path is longer than ``MAX_TMPDIR_CHARS`` keeps the system default.
    """
    env = dict(os.environ)
    if len(str(TMP_DIR)) <= MAX_TMPDIR_CHARS:
        TMP_DIR.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(TMP_DIR)
    return env


def _launch(workload: str, args, deadline: float, *, setup_only: bool, trace: bool) -> dict:
    """Run one worker process to completion; kill its whole group on timeout."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
    ]
    cmd += ["--setup-only"] * setup_only + ["--trace"] * trace + ["--smoke"] * args.smoke
    cmd += ["--launched", repr(time.monotonic())]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, env=_worker_env(), start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"bench: {workload} worker timed out")
    if proc.returncode != 0:
        raise SystemExit(f"bench: {workload} worker failed with exit code {proc.returncode}")
    return json.loads(stdout.decode().strip().splitlines()[-1])


def run_workload(workload: str, args, spec: dict, context: dict) -> dict:
    """Set up several times, run the timed phase once, write the run record."""
    started = time.monotonic()
    deadline = started + WORKLOAD_BUDGET_S
    repeats = 1 if args.smoke else SETUP_REPEATS
    setups = [
        _launch(workload, args, deadline, setup_only=True, trace=False)["setup_s"]
        for _ in range(repeats - 1)
    ]
    result = _launch(workload, args, deadline, setup_only=False, trace=args.trace != 0)
    setups.append(result["setup_s"])
    result["metrics"]["setup_s"] = median(setups)
    result["samples"]["setup_s"] = len(setups)
    result["samples"]["rss_peak_mb"] = 1

    lateness = result.get("lateness")
    valid = lateness is None or lateness["p99_ms"] <= MAX_LATENESS_P99_MS
    units = {**RECORDED_UNITS, **LAYER_UNITS}
    units.update((m["name"], m["unit"]) for m in spec["end_to_end"])
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in {**result["metrics"], **result.get("layers", {})}.items()
    }
    record = {
        "workload": workload,
        "seed": args.seed,
        **context,
        "run": {
            "seconds": args.seconds,
            "setups": setups,
            "smoke": args.smoke,
            "traced": "layers" in result,
            "wall_s": time.monotonic() - started,
        },
        "samples": {**result["samples"], **result.get("layer_samples", {})},
        "lateness": lateness,
        "valid": valid,
        "attempted": result["attempted"],
        "failed": result["failed"] + result["wrong"],
        "checked": result["checked"],
        "wrong": result["wrong"],
        "wrong_reasons": result["reasons"],
        "errors": result["errors"],
        "error_rate": (result["failed"] + result["wrong"]) / max(1, result["attempted"]),
        "metrics": metrics,
        "claim": None,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / f"{workload}-s{args.seed}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    return record


def _report(record: dict) -> None:
    print(f"bench: {record['workload']} seed={record['seed']} "
          f"seconds={record['run']['seconds']:g} setups={len(record['run']['setups'])}")
    for name, metric in record["metrics"].items():
        count = record["samples"].get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {name:28s} {metric['value']:14.4f} {metric['unit']}{suffix}")
    print(f"  checked {record['checked']} answers, {record['wrong']} wrong; "
          f"{record['failed']} of {record['attempted']} operations failed "
          f"(error_rate {record['error_rate']:.4f})")
    for reason in record["wrong_reasons"]:
        print(f"  wrong: {reason}")
    if record["lateness"] is not None:
        late = record["lateness"]
        print(f"  generator lateness p50 {late['p50_ms']:.3f} ms, "
              f"p99 {late['p99_ms']:.3f} ms, max {late['max_ms']:.3f} ms")
    if not record["valid"]:
        print(f"  INVALID: generator lateness p99 above {MAX_LATENESS_P99_MS} ms")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"timed phase length (default {spec['run_seconds']} s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only, 1: per-layer metrics "
                             "(default: both)")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    parser.add_argument("--smoke", action="store_true",
                        help="the same code paths, shortened (all four in under 60 s)")
    args = parser.parse_args(argv)
    use_checkout_src()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])

    import numpy as np

    context = {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration_s": calibration_seconds(),
    }
    declared = {
        0: spec["end_to_end"],
        1: spec["per_layer"],
        None: spec["end_to_end"] + spec["per_layer"],
    }[args.trace]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        record = run_workload(workload, args, spec, context)
        _report(record)
        correct &= record["wrong"] == 0
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = "" if args.workload else f"{workload}."
        for m in declared:
            metrics[prefix + m["name"]] = record["metrics"][m["name"]]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
