"""Experiment 3 (Figure 3b): throughput vs the zipf user-distribution parameter.

Paper findings reproduced here: with a more skewed user distribution (lower
zipf parameter a — a few frequent users account for most sessions) the cached
configurations gain up to ~1.5×, because frequent users' data stays cached
and their residual database queries stay buffer-resident; NoCache barely
moves, since it is CPU-bound on repeated query computation either way.
"""

from repro.bench import (INVALIDATE_SCENARIO, NO_CACHE, UPDATE_SCENARIO,
                         render_sweep, run_sweep, skew_gain)

ZIPF_PARAMETERS = (1.2, 1.4, 1.6, 1.8, 2.0)


def test_experiment3_user_distribution(benchmark, save_result):
    result = benchmark.pedantic(
        run_sweep, args=("exp3",), kwargs={"zipf": ZIPF_PARAMETERS},
        rounds=1, iterations=1)
    save_result("exp3_zipf", render_sweep(result))

    throughput = result.series("throughput", x="zipf")
    update = throughput[UPDATE_SCENARIO]
    nocache = throughput[NO_CACHE]

    # Cached throughput at the most skewed point (a=1.2) exceeds the least
    # skewed point (a=2.0); the paper reports about 1.5x.
    assert skew_gain(result, UPDATE_SCENARIO) >= 1.05
    assert skew_gain(result, INVALIDATE_SCENARIO) >= 1.05

    # NoCache shows much less sensitivity to the skew than the cached systems.
    nocache_gain = skew_gain(result, NO_CACHE)
    assert nocache_gain <= skew_gain(result, UPDATE_SCENARIO) + 0.15

    # The cached systems stay ahead of NoCache across the whole sweep.
    for i in range(len(ZIPF_PARAMETERS)):
        assert update[i] > nocache[i]
