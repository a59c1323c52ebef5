"""Self-tests of the benchmark itself: ``python -m pytest bench -q``.

The smoke test runs all four workloads through ``run.py --smoke`` (the
same code paths as a measured run, shortened) and checks that every
metric ``BENCHMARK.json`` declares comes out with its unit.  The checker
tests show that a wrong answer is counted, and fails the run.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

import compare
import run
from common import BENCH_DIR, WORKLOADS, Checker, load_spec, use_checkout_src
from layers import LAYER_UNITS

SPEC = load_spec()


def test_declared_layer_metrics_are_ones_the_layer_pass_reports():
    for metric in SPEC["per_layer"]:
        assert LAYER_UNITS.get(metric["name"]) == metric["unit"], metric["name"]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    records = {
        record["workload"]: record
        for record in (json.loads(p.read_text(encoding="utf-8")) for p in out.glob("*.json"))
    }
    return summary, records


def test_smoke_run_emits_every_declared_metric_with_its_unit(smoke):
    summary, records = smoke
    assert sorted(records) == sorted(WORKLOADS)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0
    for workload, record in records.items():
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            reported = record["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"], (workload, metric["name"])
            assert summary["metrics"][f"{workload}.{metric['name']}"] == reported
        for name, unit in LAYER_UNITS.items():
            assert record["metrics"][name]["unit"] == unit, (workload, name)
        for metric in SPEC["end_to_end"]:
            assert record["metrics"][metric["name"]]["value"] > 0, (workload, metric["name"])
        assert record["wrong"] == 0 and record["checked"] > 0
        assert record["claim"] is None


@pytest.fixture(scope="module")
def reference():
    use_checkout_src()
    from common import cold_reference, pwl_speed_functions
    from repro.serve.shard import result_to_dict

    plan = cold_reference(10**9, pwl_speed_functions(64))
    return plan, result_to_dict(plan)


def test_checker_accepts_the_reference(reference):
    plan, item = reference
    checker = Checker()
    assert checker.allocation(item, plan) and checker.allocation(plan, plan)
    assert checker.summary(item, plan.n, plan.p)
    assert (checker.checked, checker.wrong) == (3, 0)


def test_checker_counts_a_tampered_allocation(reference):
    plan, item = reference
    allocation = list(item["allocation"])
    allocation[0] += 1
    allocation[1] -= 1
    checker = Checker()
    assert not checker.allocation(dict(item, allocation=allocation), plan)
    assert (checker.checked, checker.wrong) == (1, 1)


def test_checker_counts_a_wrong_makespan(reference):
    plan, item = reference
    checker = Checker()
    assert not checker.allocation(dict(item, makespan=np.nextafter(item["makespan"], 1e300)), plan)
    assert not checker.summary(dict(item, makespan=float("nan")), plan.n, plan.p)
    assert not checker.summary(dict(item, n=plan.n + 1), plan.n, plan.p)
    assert (checker.checked, checker.wrong) == (3, 3)


def test_a_wrong_answer_fails_the_run(monkeypatch, capsys, tmp_path):
    def one_wrong(workload, args, spec, context):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                   for m in spec["end_to_end"] + spec["per_layer"]}
        return {"workload": workload, "seed": args.seed, "wrong": 1, "failed": 1,
                "attempted": 10, "checked": 10, "error_rate": 0.1,
                "wrong_reasons": ["n=1: allocation differs from a cold solve"],
                "run": {"seconds": 1.0, "setups": [1.0]}, "samples": {},
                "lateness": None, "valid": True, "metrics": metrics}

    monkeypatch.setattr(run, "run_workload", one_wrong)
    assert run.main(["--workload", "solve", "--trace", "0", "--out", str(tmp_path)]) == 1
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["correct"] is False and summary["failed"] == 1


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([100, 101, 99, 100], [80, 81, 79, 80], "worse"),
        ([100, 101, 99, 100], [120, 121, 119, 120], "better"),
        ([100, 101, 99, 100], [99, 100, 101, 100], "within bound"),
        ([100, 150, 60, 100], [99, 100, 101, 100], "unresolved"),
    ],
)
def test_compare_verdicts(a, b, expected):
    pairs = list(zip(a, b))
    assert compare.verdict(a, b, pairs, better="higher", bound=0.1) == expected
