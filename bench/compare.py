#!/usr/bin/env python3
"""Compare two directories of run records, workload by workload.

    python bench/compare.py DIR_A DIR_B

``DIR_A`` holds the parent's runs and ``DIR_B`` the change's, as written
by ``bench/run.py --out DIR`` (one ``<workload>-s<seed>.json`` per run;
runs are paired by seed).  For every workload and every end-to-end
metric of ``BENCHMARK.json`` it prints each side's median and quartiles
and one verdict:

* ``unresolved`` — either side's quartile spread is wider than the
  metric's bound, unless every run of B beats every run of A;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B wins at least 9 in 10 seed pairs and the medians differ
  by more than A's quartile spread;
* ``within bound`` — otherwise.

Runs marked invalid (the open-loop generator ran late) are left out and
counted.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from common import load_spec


def load_runs(directory: Path) -> tuple[dict[str, dict[int, dict]], int]:
    """``{workload: {seed: record}}`` of valid records, and the invalid count."""
    runs: dict[str, dict[int, dict]] = {}
    invalid = 0
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if not record.get("valid", True):
            invalid += 1
            continue
        runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs, invalid


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]],
            *, better: str, bound: float) -> str:
    """The comparison rule of the module notes, for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    b_beats_all = (min(b) > max(a)) if sign > 0 else (max(b) < min(a))
    if (qa[2] - qa[0]) / qa[1] > bound or (qb[2] - qb[0]) / qb[1] > bound:
        return "better" if b_beats_all else "unresolved"
    if sign * (qb[1] - qa[1]) / qa[1] < -bound:
        return "worse"
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (qb[1] - qa[1]) > qa[2] - qa[0]:
        return "better"
    return "within bound"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path, help="the parent's run records")
    parser.add_argument("dir_b", type=Path, help="the change's run records")
    args = parser.parse_args(argv)
    spec = load_spec()
    runs_a, invalid_a = load_runs(args.dir_a)
    runs_b, invalid_b = load_runs(args.dir_b)
    if invalid_a or invalid_b:
        print(f"left out invalid runs: {invalid_a} in A, {invalid_b} in B")
    status = 0
    for workload in sorted(set(runs_a) & set(runs_b)):
        a_runs, b_runs = runs_a[workload], runs_b[workload]
        print(f"{workload}: {len(a_runs)} runs in A, {len(b_runs)} in B")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs.values()]
            b = [r["metrics"][name]["value"] for r in b_runs.values()]
            pairs = [(a_runs[s]["metrics"][name]["value"], b_runs[s]["metrics"][name]["value"])
                     for s in sorted(set(a_runs) & set(b_runs))]
            result = verdict(a, b, pairs, better=metric["better"], bound=metric["bound"])
            status |= result == "worse"
            qa, qb = quartiles(a), quartiles(b)
            print(f"  {name:18s} A {qa[1]:11.4f} [{qa[0]:.4f}, {qa[2]:.4f}]  "
                  f"B {qb[1]:11.4f} [{qb[0]:.4f}, {qb[2]:.4f}] {metric['unit']:4s} "
                  f"{result} (bound {metric['bound']:.0%})")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
