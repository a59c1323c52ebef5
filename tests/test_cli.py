"""Tests for the command-line experiment runner."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main

#: Small, fast workload arguments shared by the telemetry-command tests.
FAST_WORKLOAD = [
    "--sizes", "1000000,2000000", "--p", "4", "--trace-n", "256", "--block", "64",
]


class TestParser:
    def test_known_experiments(self):
        parser = build_parser()
        for name in ["fig1", "fig2", "table2", "table3", "table4", "fig21",
                     "fig22a", "fig22b", "plan", "all"]:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_options(self):
        args = build_parser().parse_args(["fig21", "--repeats", "5", "--block", "32"])
        assert args.repeats == 5
        assert args.block == 32


class TestCommands:
    def test_fig1_prints_tables(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Comp1" in out
        assert "matmul_atlas" in out

    def test_fig2_prints_bands(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "width % of midline" in out

    def test_table2_prints_paging(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "X12" in out
        assert "Paging" in out

    def test_table3_runs_real_kernel(self, capsys):
        assert main(["table3", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "256x256" in out and "32x2048" in out

    def test_fig21_cost(self, capsys):
        assert main(["fig21", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "1080" in out
        assert "2000000000" in out

    def test_plan_defaults(self, capsys):
        assert main(["plan"]) == 0
        out = capsys.readouterr().out
        assert "Partition plans" in out
        assert "fleet fingerprint" in out
        assert "hit_rate" in out
        # Replaying the six default queries makes them all cache hits.
        assert "hits=6" in out

    def test_plan_custom_sizes_and_fleet(self, capsys):
        assert main([
            "plan", "--sizes", "1000,50000", "--p", "24",
            "--kernel", "lu", "--algorithm", "combined",
        ]) == 0
        out = capsys.readouterr().out
        assert "table2-lu-p24" in out
        assert "combined" in out
        assert "1000" in out and "50000" in out
        assert "plans=2" in out


class TestTelemetryFlags:
    def test_verbose_counts(self):
        args = build_parser().parse_args(["-vv", "plan"])
        assert args.verbose == 2

    def test_log_level_choices(self):
        args = build_parser().parse_args(["plan", "--log-level", "debug"])
        assert args.log_level == "debug"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "--log-level", "chatty"])

    def test_format_choices(self):
        args = build_parser().parse_args(["stats", "--format", "prom"])
        assert args.format == "prom"


class TestStatsCommand:
    def test_stats_table(self, capsys):
        assert main(["stats", *FAST_WORKLOAD]) == 0
        out = capsys.readouterr().out
        assert "core.solve.calls" in out
        assert "planner.cache.hits" in out
        assert "planner.solve.seconds" in out  # per-plan latency histogram
        assert "planner:" in out

    def test_stats_json(self, capsys):
        assert main(["stats", "--format", "json", *FAST_WORKLOAD]) == 0
        doc = json.loads(capsys.readouterr().out)
        counters = {
            (c["name"], c["labels"].get("algorithm", "")): c["value"]
            for c in doc["metrics"]["counters"]
        }
        assert counters[("core.solve.calls", "bisection")] >= 2
        assert any(s["name"] == "repro.workload" for s in doc["spans"])

    def test_stats_prometheus(self, capsys):
        assert main(["stats", "--format", "prom", *FAST_WORKLOAD]) == 0
        out = capsys.readouterr().out
        assert "# TYPE core_solve_calls_total counter" in out
        assert 'le="+Inf"' in out

    def test_stats_metrics_out(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["stats", "--metrics-out", str(path), *FAST_WORKLOAD]) == 0
        doc = json.loads(path.read_text())
        assert doc["metrics"]["counters"]
        assert f"metrics written to {path}" in capsys.readouterr().out

    def test_telemetry_disabled_after_run(self):
        from repro import obs

        assert main(["stats", *FAST_WORKLOAD]) == 0
        assert not obs.is_enabled()


class TestTraceCommand:
    def test_trace_prints_span_tree(self, capsys):
        assert main(["trace", *FAST_WORKLOAD]) == 0
        out = capsys.readouterr().out
        assert "repro.workload" in out
        assert "planner.solve" in out
        assert "simulate.lu" in out
        assert "(sim)" in out

    def test_trace_consistency_footer(self, capsys):
        assert main(["trace", *FAST_WORKLOAD]) == 0
        out = capsys.readouterr().out
        # 256/64 = 4 simulated steps, and span count == trace records.
        assert "simulated LU: 4 step spans, 4 SimulationTrace records" in out


class TestReportCommand:
    def test_report_generates_markdown(self, tmp_path, capsys):
        out = tmp_path / "r.md"
        assert main(["report", "--out", str(out)]) == 0
        text = out.read_text()
        assert "# Reproduction report" in text
        assert "Figure 22(a)" in text and "Figure 22(b)" in text
        assert "Figure 21" in text
        assert "one ray" in text
        assert "report written" in capsys.readouterr().out


class TestServeCommand:
    def test_serve_once_self_check(self, capsys):
        assert main([
            "serve", "--once", "--port", "0", "--http-port", "-1",
            "--p", "4", "--shards", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "serving on" in out
        assert "self-check plan" in out
        assert "draining" in out

    def test_serve_http_disabled_reported(self, capsys):
        assert main([
            "serve", "--once", "--port", "0", "--http-port", "-1",
            "--p", "4", "--shards", "1",
        ]) == 0
        assert "(http disabled)" in capsys.readouterr().out


class TestServeFacingStatsAndTrace:
    @pytest.fixture
    def live_server(self):
        from repro.experiments import build_network_models, tile_speed_functions
        from repro.machines import table2_network
        from repro.serve import ServeClient, ServeConfig, start_in_thread

        config = ServeConfig(shards=1, http_port=0)
        with start_in_thread(config) as handle:
            sfs = tile_speed_functions(
                build_network_models(table2_network(), "matmul"), 4
            )
            with ServeClient(handle.host, handle.port) as client:
                info = client.register_fleet(sfs, name="cli-test")
                resp = client.call(
                    "plan", fleet=info["fingerprint"], n=250_000, allocation=False
                )
            yield f"{handle.host}:{handle.http_port}", resp["trace_id"]

    def test_stats_serve_renders_trace_counters(self, live_server, capsys):
        addr, _ = live_server
        assert main(["stats", "--serve", addr]) == 0
        out = capsys.readouterr().out
        assert "serve.trace.recorded" in out
        assert "serve.trace.sampled" in out
        assert "cli-test" in out

    def test_stats_serve_json(self, live_server, capsys):
        addr, _ = live_server
        assert main(["stats", "--serve", addr, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trace"]["recorded"] >= 1

    def test_trace_serve_lists_and_details(self, live_server, capsys):
        addr, trace_id = live_server
        assert main(["trace", "--serve", addr]) == 0
        assert trace_id in capsys.readouterr().out
        assert main(["trace", "--serve", addr, "--trace-id", trace_id]) == 0
        out = capsys.readouterr().out
        assert "serve.plan" in out
        assert "serve.shard.batch" in out

    def test_unreachable_server_fails_cleanly(self, capsys):
        assert main(["stats", "--serve", "127.0.0.1:1"]) == 1
        assert "repro stats:" in capsys.readouterr().err

    def test_unknown_trace_id_fails_cleanly(self, live_server, capsys):
        addr, _ = live_server
        assert main(["trace", "--serve", addr, "--trace-id", "feedface"]) == 1
        assert "no retained trace" in capsys.readouterr().err


def _name_column(lines: list[str], name: str) -> tuple[int, int]:
    """``(line index, column)`` of the first rendered span called ``name``."""
    for i, line in enumerate(lines):
        if f"{name}  " in line:
            return i, line.index(name)
    raise AssertionError(f"no {name} span in:\n" + "\n".join(lines))


class TestRouterFacingStatsAndTrace:
    """`repro stats --serve` / `repro trace --serve` against a cluster router."""

    @pytest.fixture
    def live_router(self):
        from repro.cluster import (
            RouterConfig, start_router_in_thread, start_thread_node,
        )
        from repro.experiments import build_network_models, tile_speed_functions
        from repro.machines import table2_network
        from repro.serve import ServeClient

        node = start_thread_node("cli")
        try:
            config = RouterConfig(http_port=0, probe_interval=0)
            with start_router_in_thread(config, [node.info]) as router:
                sfs = tile_speed_functions(
                    build_network_models(table2_network(), "matmul"), 4
                )
                with ServeClient(router.host, router.port) as client:
                    info = client.register_fleet(sfs, name="cli-router")
                    resp = client.call(
                        "plan", fleet=info["fingerprint"], n=250_000, allocation=False
                    )
                assert resp["ok"], resp
                addr = f"{router.host}:{router.http_port}"
                yield addr, node.node_id, resp["trace_id"]
        finally:
            node.stop()

    def test_stats_serve_renders_router_and_member_rows(self, live_router, capsys):
        addr, node_id, _ = live_router
        assert main(["stats", "--serve", addr]) == 0
        out = capsys.readouterr().out
        assert "cluster.requests" in out
        member = [line for line in out.splitlines()
                  if node_id in line and "closed" in line]
        assert member, out

    def test_trace_serve_lists_router_and_node_traces(self, live_router, capsys):
        addr, node_id, trace_id = live_router
        assert main(["trace", "--serve", addr]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if trace_id in line]
        assert any("router" in line for line in rows), rows
        assert any(node_id in line for line in rows), rows

    def test_trace_id_grafts_the_node_tree_under_the_attempt(self, live_router, capsys):
        addr, _, trace_id = live_router
        assert main(["trace", "--serve", addr, "--trace-id", trace_id]) == 0
        lines = capsys.readouterr().out.splitlines()
        attempt, attempt_col = _name_column(lines, "cluster.attempt")
        plan, plan_col = _name_column(lines, "serve.plan")
        batch, batch_col = _name_column(lines, "serve.shard.batch")
        assert (attempt, plan) == (plan - 1, batch - 1)
        assert attempt_col < plan_col < batch_col


class TestVerifyCommand:
    def test_small_sweep_is_clean(self, capsys):
        assert main([
            "verify", "--cases", "4", "--fuzz-frames", "0", "--chaos-runs", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "differential ok" in out
        assert "all sweeps clean" in out

    def test_replay_one_case(self, capsys):
        assert main(["verify", "--seed", "3", "--only-case", "7"]) == 0
        out = capsys.readouterr().out
        assert "case 7:" in out
        assert "differential ok: 1 cases" in out

    def test_replay_one_chaos_run(self, capsys):
        assert main(["verify", "--seed", "1", "--only-run", "0"]) == 0
        out = capsys.readouterr().out
        assert "fuzz[adapt] ok: 1 cases" in out
        # The other sweeps are skipped during a replay.
        assert "differential" not in out


class TestErrorPaths:
    """Bad arguments exit non-zero with a message, never a traceback."""

    def test_unparseable_sizes(self, capsys):
        assert main(["plan", "--sizes", "abc"]) == 2
        err = capsys.readouterr().err
        assert "repro plan: error:" in err

    def test_unknown_experiment_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig99"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_bad_flag_value_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--repeats", "two"])
        assert exc.value.code == 2

    def test_serve_invalid_shards(self, capsys):
        assert main([
            "serve", "--once", "--port", "0", "--http-port", "-1",
            "--shards", "0",
        ]) == 2
        assert "repro serve: error:" in capsys.readouterr().err

    def test_stats_invalid_trace_n(self, capsys):
        assert main(["stats", "--trace-n", "0", *FAST_WORKLOAD[:4]]) == 2
        assert "repro stats: error:" in capsys.readouterr().err

    def test_trace_invalid_block(self, capsys):
        assert main(["trace", "--block", "-1", *FAST_WORKLOAD[:4]]) == 2
        assert "repro trace: error:" in capsys.readouterr().err

    def test_verify_parser_flags(self):
        args = build_parser().parse_args(
            ["verify", "--cases", "7", "--seed", "3", "--only-frame", "2"]
        )
        assert args.cases == 7 and args.seed == 3 and args.only_frame == 2
