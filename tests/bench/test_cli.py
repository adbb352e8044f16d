"""Tests for the ``python -m repro.bench`` command-line interface."""

import json

import pytest

from repro.bench.cli import build_parser, main
from repro.bench.experiments import EXPERIMENTS, RUN_JSON_SCHEMA


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


class TestRunDocument:
    """``--json-out`` writes the sweep that ran; ``--trace-out`` traces its
    own replays and changes nothing in it."""

    def test_the_document_is_the_sweep_that_ran(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        main(["exp-contention", "--quick", "--strategies", "Update",
              "--workers", "1", "--json-out", "run.json"])
        document = json.loads((tmp_path / "run.json").read_text())
        assert (document["schema"], document["kind"]) == (RUN_JSON_SCHEMA,
                                                          "sweep")
        assert (document["experiment"], document["quick"],
                document["check"]) == ("exp-contention", True, False)
        assert document["axes"]["scenario"] == ["Update"]
        assert [(row["scenario"], row["workers"])
                for row in document["rows"]] == [("Update", 1)]
        assert document["rows"][0]["p95_latency"] > 0

    def test_tracing_leaves_the_document_as_it_is(self, tmp_path,
                                                  monkeypatch, capsys):
        """Traced over two worker processes, one lane per replay."""
        monkeypatch.chdir(tmp_path)
        argv = ["exp-contention", "--quick", "--workers", "2"]
        main(argv + ["--json-out", "plain.json"])
        main(argv + ["--jobs", "2", "--json-out", "traced.json",
                     "--trace-out", "trace.json"])
        out = capsys.readouterr().out
        assert ((tmp_path / "traced.json").read_bytes()
                == (tmp_path / "plain.json").read_bytes())
        trace = json.loads((tmp_path / "trace.json").read_text())
        lanes = [event["args"]["name"] for event in trace["traceEvents"]
                 if event["name"] == "process_name"]
        assert lanes == ["Update/2/adversarial",
                         "LeasedInvalidate/2/adversarial"]
        for lane in lanes:
            assert f"Flame summary of {lane} (top spans" in out

    def test_each_lane_has_its_own_name(self, tmp_path, monkeypatch):
        """exp-cluster replays its determinism cell twice."""
        monkeypatch.chdir(tmp_path)
        main(["exp-cluster", "--quick", "--strategies", "Update",
              "--fault-cases", "node-kill", "--trace-out", "trace.json"])
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert [event["args"]["name"] for event in trace["traceEvents"]
                if event["name"] == "process_name"] == [
            "Update/node-kill", "Update/node-kill/determinism",
            "Update/node-kill/determinism #2"]

    def test_a_failed_check_still_writes_both_files(self, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as failure:
            main(["exp-contention", "--quick", "--workers", "1", "--check",
                  "--json-out", "run.json", "--trace-out", "trace.json"])
        assert "CONTENTION CHECK FAILED" in str(failure.value)
        assert json.loads((tmp_path / "trace.json").read_text())
        assert main(["report", "run.json"]) == 0
        report = capsys.readouterr().out
        assert "CONTENTION CHECK FAILED" in report
        assert str(failure.value).startswith(report)

    def test_report_refuses_another_kind(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": 2, "kind": "run_document"}))
        with pytest.raises(ValueError, match="not a schema 3 sweep"):
            main(["report", str(path)])
