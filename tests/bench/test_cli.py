"""Tests for the ``python -m repro.bench`` command-line interface."""

import pytest

from repro.bench.cli import build_parser, main
from repro.bench.experiments import EXPERIMENTS, trace_contention_cell
from repro.sim import RUN_JSON_SCHEMA


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("micro-lookup", "micro-trigger", "effort", "table1",
                        "exp1", "exp2", "exp3", "exp4", "exp5"):
            args = parser.parse_args([command])
            assert callable(args.func)

    def test_exp1_accepts_client_list(self):
        args = build_parser().parse_args(["exp1", "--clients", "1", "8"])
        assert args.clients == [1, 8]

    def test_exp_cluster_registered_with_flags(self):
        args = build_parser().parse_args(
            ["exp-cluster", "--quick", "--check",
             "--fault-cases", "node-kill", "--strategies", "Update"])
        assert callable(args.func)
        assert args.quick and args.check
        assert args.fault_cases == ["node-kill"]
        assert args.strategies == ["Update"]

    def test_exp_cluster_rejects_unknown_fault_case(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exp-cluster", "--fault-cases", "nope"])

    def test_exp_adaptive_registered_with_flags(self):
        args = build_parser().parse_args(
            ["exp-adaptive", "--quick", "--check",
             "--strategies", "Update", "Adaptive"])
        assert callable(args.func)
        assert args.quick and args.check
        assert args.strategies == ["Update", "Adaptive"]

    def test_exp_adaptive_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["exp-adaptive", "--strategies", "nope"])

    def test_help_states_the_quick_defaults_the_code_uses(self):
        """exp1's help used to promise "1 4" under --quick; the sweep is 1 6."""
        for experiment in EXPERIMENTS.values():
            for axis in experiment.axes:
                if axis.quick and "--quick" in axis.help and axis.type is int:
                    quick = " ".join(str(value) for value in axis.quick)
                    assert f"{quick} with --quick" in axis.help

    def test_strategies_command_registered(self):
        assert callable(build_parser().parse_args(["strategies"]).func)

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "CacheGenie" in out

    def test_micro_trigger_command(self, capsys):
        assert main(["micro-trigger"]) == 0
        out = capsys.readouterr().out
        assert "Plain INSERT" in out

    def test_effort_command(self, capsys):
        assert main(["effort"]) == 0
        out = capsys.readouterr().out
        assert "Cached objects defined" in out

    def test_strategies_command_lists_every_registered_strategy(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("update-in-place", "invalidate", "leased-invalidate",
                     "async-refresh", "expiry", "adaptive"):
            assert name in out
        for band in ("cold", "hot-contended", "hot-write-heavy"):
            assert band in out

    def test_exp_adaptive_quick_check_passes(self, capsys):
        assert main(["exp-adaptive", "--quick", "--check",
                     "--strategies", "Update", "Adaptive"]) == 0
        out = capsys.readouterr().out
        assert "Adaptive check passed" in out
        assert "Pareto" in out

    def test_exp1_quick_names_the_population_table2_was_computed_at(self, capsys):
        assert main(["exp1", "--quick", "--clients", "1", "4"]) == 0
        out = capsys.readouterr().out
        assert "Table 2 — average latency by page type (4 clients)" in out

    def test_failed_check_exits_nonzero_with_the_report(self):
        with pytest.raises(SystemExit) as failure:
            main(["exp1", "--quick", "--check"])      # one worker: no contention
        assert "CONTENTION CHECK FAILED" in str(failure.value)
        assert "Figure 2a" in str(failure.value)


class TestTracedRunDocument:
    def test_schema_2_carries_the_demand_histogram_not_a_registry(self):
        tracer, document = trace_contention_cell()
        assert document["schema"] == RUN_JSON_SCHEMA == 2
        assert "registry" not in document
        histogram = document["page_total_demand_ms"]
        assert histogram["kind"] == "histogram"
        assert histogram["count"] == len(document["replay"]["pages"])
        assert tracer.finished and document["flame"]
