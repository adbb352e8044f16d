"""The exp-strategies ablation: all five consistency strategies end-to-end."""

from __future__ import annotations

from repro.bench.cli import build_parser, main
from repro.bench.experiments import (STRATEGY_ABLATION_SCENARIOS,
                                     blocking_db_work, run_sweep)
from repro.bench.reporting import render_sweep
from repro.bench.scenarios import (ASYNC_REFRESH_SCENARIO, EXPIRY_SCENARIO,
                                   INVALIDATE_SCENARIO, LEASED_SCENARIO,
                                   UPDATE_SCENARIO)


class TestStrategyAblation:
    def test_quick_run_covers_all_five_strategies(self):
        result = run_sweep("exp-strategies", quick=True)
        by_scenario = {row["scenario"]: row for row in result.rows}
        assert tuple(by_scenario) == STRATEGY_ABLATION_SCENARIOS
        assert by_scenario[UPDATE_SCENARIO]["strategy"] == "update-in-place"
        assert by_scenario[LEASED_SCENARIO]["strategy"] == "leased-invalidate"
        assert by_scenario[ASYNC_REFRESH_SCENARIO]["strategy"] == "async-refresh"
        # The triggered strategies install triggers; the TTL-based ones don't.
        assert by_scenario[UPDATE_SCENARIO]["triggers"] > 0
        assert by_scenario[LEASED_SCENARIO]["triggers"] > 0
        assert by_scenario[EXPIRY_SCENARIO]["triggers"] == 0
        assert by_scenario[ASYNC_REFRESH_SCENARIO]["triggers"] == 0
        # Every configuration actually served traffic.
        assert all(row["throughput"] > 0 for row in result.rows)

        # Strategy signatures in the counters: updates for update-in-place,
        # invalidations for the invalidating pair, stale serves + background
        # recomputes for the stale-serving pair.
        counters = {name: row["objects"] for name, row in by_scenario.items()}
        assert counters[UPDATE_SCENARIO]["updates_applied"] > 0
        assert counters[INVALIDATE_SCENARIO]["invalidations"] > 0
        assert counters[LEASED_SCENARIO]["invalidations"] > 0
        assert counters[LEASED_SCENARIO]["stale_served"] > 0
        assert counters[ASYNC_REFRESH_SCENARIO]["stale_served"] > 0
        assert counters[ASYNC_REFRESH_SCENARIO]["recomputations"] > 0
        assert counters[INVALIDATE_SCENARIO]["stale_served"] == 0
        assert counters[UPDATE_SCENARIO]["stale_served"] == 0

        # The headline claim: leases turn invalidation's blocking fallbacks
        # into (fewer, rate-limited) background recomputes on hot keys.
        assert (counters[LEASED_SCENARIO]["db_fallbacks"]
                < counters[INVALIDATE_SCENARIO]["db_fallbacks"])
        assert (blocking_db_work(by_scenario[LEASED_SCENARIO])
                <= blocking_db_work(by_scenario[INVALIDATE_SCENARIO]))

    def test_subset_and_rendering(self):
        result = run_sweep("exp-strategies", quick=True,
                           scenario=(INVALIDATE_SCENARIO, LEASED_SCENARIO))
        rendered = render_sweep(result)
        assert "leased-invalidate" in rendered
        assert "Blocking DB fallbacks" in rendered
        assert "Leased invalidation vs plain invalidation" in rendered


class TestCli:
    def test_parser_registers_exp_strategies(self):
        args = build_parser().parse_args(["exp-strategies", "--quick"])
        assert args.quick is True and callable(args.func)
        args = build_parser().parse_args(
            ["exp-strategies", "--strategies", "Invalidate", "LeasedInvalidate"])
        assert args.strategies == ["Invalidate", "LeasedInvalidate"]

    def test_quick_command_prints_the_table(self, capsys):
        assert main(["exp-strategies", "--quick",
                     "--strategies", "Invalidate", "LeasedInvalidate"]) == 0
        out = capsys.readouterr().out
        assert "Consistency-strategy ablation" in out
        assert "leased-invalidate" in out
