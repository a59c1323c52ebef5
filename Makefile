# Developer workflow for the repro library.

PYTHON ?= python

.PHONY: install test bench bench-smoke bench-repo-smoke serve-smoke cluster-smoke verify-smoke check examples experiments lint-docs all clean

# Where the cluster smoke dumps the router's flight recorder on failure
# (CI uploads benchmarks/out/*.ndjson as a post-mortem artifact).
CLUSTER_FLIGHT_DUMP ?= benchmarks/out/cluster-flight-traces.ndjson

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Fast perf regression gate: the allocator/planner/telemetry
# micro-benchmarks plus the adaptive-vs-static ablation at smoke sizes,
# GC off and few rounds so it finishes in minutes, not hours.
# perf_guard additionally emits benchmarks/out/metrics.json, fails on a
# >10% regression of the p=1080 solve vs the recorded baseline (seeded
# on the first run), fails if the knot-compiled step/rescaled fleets
# drop below 5x the per-object oracle (bench_core_vectorised), fails if
# the disabled-adaptation simulators add >2% over the plain executors,
# and fails if the online refit loop (bench_online_refit) stops closing
# a 2x band-shape drift to ±5% or costs >5% of serve throughput.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_perf_allocator.py \
		benchmarks/bench_obs_overhead.py --benchmark-only \
		--benchmark-disable-gc --benchmark-min-rounds=3 -q
	REPRO_BENCH_SMOKE=1 $(PYTHON) -m pytest \
		benchmarks/bench_ablation_adaptive.py --benchmark-only \
		--benchmark-disable-gc -q -s
	$(PYTHON) benchmarks/bench_core_vectorised.py
	$(PYTHON) benchmarks/bench_online_refit.py
	$(PYTHON) benchmarks/perf_guard.py --out benchmarks/out/metrics.json

# The repo benchmark's own tests (bench/test_bench.py), including the
# `bench/run.py --smoke` self-test of all four workloads.
bench-repo-smoke:
	$(PYTHON) -m pytest bench -q

# End-to-end serving smoke: boots the TCP+HTTP server in-process,
# registers a fleet over the wire, bit-checks served plans against a
# direct Planner, runs a small concurrent load, and scrapes /health and
# /metrics.  Exits non-zero on any failure, shed request, or mismatch.
# The second run uses process shards and a 32-entry warm tier, so the
# manager-hosted store evicts under served traffic.
serve-smoke:
	$(PYTHON) -m repro.serve.smoke
	$(PYTHON) -m repro.serve.smoke --worker-mode process --warm-tier-size 32

# End-to-end cluster smoke: a router thread over two real node
# processes — registers a fleet over the wire, bit-checks routed plans,
# exercises cluster_status + aggregated /stats, SIGKILLs one member
# mid-load (every request must still get a replica plan or a typed
# error), and scrapes the router's HTTP plane.  On failure the router's
# flight recorder is dumped to $(CLUSTER_FLIGHT_DUMP) for post-mortems.
cluster-smoke:
	$(PYTHON) -m repro.cluster.smoke --flight-dump $(CLUSTER_FLIGHT_DUMP)

# Seeded verification sweep (repro.verify): 200 differential conformance
# cases across every partitioner, the planner fast paths and in-process
# served plans; 500 mutated protocol frames against a live server; a
# handful of randomized fault-script runs of the adaptive simulator; and
# one kill-a-node cluster chaos run (SIGKILL a member mid-load, audit
# every answer for hangs, untyped errors, or non-bit-identical plans).
# Every failure prints a one-line replay command with its seed.
verify-smoke:
	$(PYTHON) -m repro verify --cases 200 --fuzz-frames 500 --chaos-runs 4 \
		--cluster-runs 1

check: test bench-smoke bench-repo-smoke serve-smoke cluster-smoke verify-smoke

examples:
	for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

experiments:
	$(PYTHON) -m repro all

all: test bench

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
