"""Tests for the table layouts and the derived numbers, on hand-built rows."""

import pytest

from repro.bench import (format_table, plateau_size, render_sweep, skew_gain,
                         speedup_over_nocache)
from repro.bench.experiments import EXP1, EXP2, EXP3, EXP4, SweepResult
from repro.bench.reporting import (ARMS, ROWS, SERIES, YES_NO, Table, flatten,
                                   lookup)
from repro.bench.scenarios import INVALIDATE_SCENARIO, NO_CACHE, UPDATE_SCENARIO

SCENARIOS = (NO_CACHE, INVALIDATE_SCENARIO, UPDATE_SCENARIO)


def sweep(experiment, x, xs, throughput, aux=()):
    """Rows of an x-by-scenario throughput sweep: ``throughput[i][j]`` is the
    i-th scenario's value at the j-th x."""
    scenarios = SCENARIOS[-len(throughput):]
    rows = [{x: value, "scenario": scenario, "throughput": series[j]}
            for j, value in enumerate(xs)
            for scenario, series in zip(scenarios, throughput)]
    return SweepResult(experiment, {x: tuple(xs), "scenario": scenarios},
                       rows, list(aux))


class TestSweepRendering:
    def test_exp1_contains_all_sections(self):
        throughput = [[10.0, 30.0], [20.0, 60.0], [22.0, 70.0]]
        latency = [[0.1, 0.3], [0.05, 0.1], [0.05, 0.09]]
        by_page = [{"LookupBM": 0.2, "CreateBM": 0.1},
                   {"LookupBM": 0.05, "CreateBM": 0.2},
                   {"LookupBM": 0.04, "CreateBM": 0.21}]
        rows = [{"scenario": scenario, "workers": 1, "table2_clients": 15,
                 "latency_by_page": pages,
                 "sweep": [{"clients": count, "throughput": tput,
                            "mean_latency": lat}
                           for count, tput, lat in zip((1, 15), tputs, lats)]}
                for scenario, tputs, lats, pages
                in zip(SCENARIOS, throughput, latency, by_page)]
        result = SweepResult(EXP1, {"clients": (1, 15)}, rows)
        text = render_sweep(result)
        assert "Figure 2a" in text and "Figure 2b" in text
        assert "Table 2 — average latency by page type (15 clients)" in text
        assert "LookupBM" in text and "0.210 s" in text
        assert "Replay engine" not in text      # one worker: no schedule table
        assert speedup_over_nocache(result, UPDATE_SCENARIO) > 2.0

    def test_exp2_percentages(self):
        result = sweep(EXP2, "read_fraction", [0.0, 1.0],
                       [[10.0, 20.0], [10.0, 100.0], [11.0, 110.0]])
        text = render_sweep(result)
        assert "0%" in text and "100%" in text
        series = result.series("throughput", x="read_fraction")
        assert series[UPDATE_SCENARIO][-1] / series[NO_CACHE][-1] == 5.5

    def test_exp3_skew_gain(self):
        result = sweep(EXP3, "zipf", [1.2, 2.0],
                       [[10.0, 10.0], [60.0, 40.0], [75.0, 50.0]])
        assert skew_gain(result, UPDATE_SCENARIO) == 1.5
        assert "zipf" in render_sweep(result)

    def test_exp4_plateau_and_reference_footer(self):
        result = sweep(EXP4, "cache_kb", [1, 2, 4],
                       [[60.0, 85.0, 88.0], [50.0, 90.0, 100.0]],
                       aux=[{"scenario": NO_CACHE, "throughput": 30.0}])
        assert plateau_size(result, UPDATE_SCENARIO) == 4
        assert plateau_size(result, INVALIDATE_SCENARIO) == 2
        text = render_sweep(result)
        assert "NoCache reference throughput: 30.0 req/s" in text
        assert "1 KB" in text


class TestLayouts:
    ROWS_DATA = [{"arm": "B", "x": 1, "value": 2.0, "nested": {"n": 3}},
                 {"arm": "A", "x": 1, "value": 1.0, "nested": {}}]

    def test_series_column_order_follows_the_rows(self):
        table = Table("t", SERIES, (("x", "x", "{}"),
                                    ("req/s", "value", "{:.1f}")), arm="arm")
        header = table.render(self.ROWS_DATA).splitlines()[1]
        assert header.index("B (req/s)") < header.index("A (req/s)")

    def test_arms_layout_puts_metrics_on_lines(self):
        table = Table("t", ARMS, (("Value", "value", "{:.1f}"),
                                  ("Nested", "nested.n", "{}")),
                      arm="arm", corner="Metric")
        _title, header, _rule, value, nested = table.render(
            self.ROWS_DATA).splitlines()
        assert header.split() == ["Metric", "B", "A"]
        assert value.split() == ["Value", "2.0", "1.0"]
        assert nested.split() == ["Nested", "3", "0"]   # missing leaf reads 0

    def test_rows_layout_formats_each_column(self):
        table = Table("title for {arm}", ROWS,
                      (("Arm", "arm", "{}"), ("Big", "value", YES_NO)))
        lines = table.render([{"arm": "A", "value": True}]).splitlines()
        assert lines[0] == "title for A"
        assert lines[-1].split() == ["A", "yes"]

    def test_flatten_lays_entries_over_the_parent(self):
        rows = [{"run": 1, "hit": 0.9, "parts": [{"hit": 0.5}, {"hit": 0.7}]}]
        assert [(r["run"], r["hit"]) for r in flatten(rows, "parts")] == [
            (1, 0.5), (1, 0.7)]

    def test_lookup_default(self):
        assert lookup({"a": {"b": 2}}, "a.b") == 2
        assert lookup({"a": {"b": 2}}, "a.c") == 0
        assert lookup({"a": 1}, "a.b", default=None) is None

    def test_format_table_pads_columns(self):
        text = format_table(["name", "v"], [["a", 1], ["longer-name", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert all(len(line) >= len("longer-name") for line in lines[2:])


class TestRunSweepArguments:
    def test_unknown_axis_is_rejected(self):
        from repro.bench import run_sweep
        with pytest.raises(TypeError):
            run_sweep("exp5", zipf=(1.2,))

    def test_quick_needs_a_quick_sizing(self):
        from repro.bench import run_sweep
        with pytest.raises(ValueError):
            run_sweep("exp5", quick=True)
