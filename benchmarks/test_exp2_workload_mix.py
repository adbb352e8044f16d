"""Experiment 2 (Figure 3a): throughput vs percentage of read pages.

Paper findings reproduced here:

* with 0% reads the paper's eager triggers provide no benefit (slightly
  worse, because triggers slow the writes down); with the now-default
  batched protocol the commit-time flush amortizes trigger cost, so the
  cached scenarios beat NoCache even on an all-write workload — the band
  below encodes the batched behaviour (``--batch-ops off`` restores the
  paper's);
* benefit grows with the read fraction;
* at 100% reads the cached configurations reach ~8× NoCache (our scaled-down
  stack lands lower but well above the mixed-workload factor);
* Update and Invalidate converge at 100% reads (nothing is ever invalidated).
"""

from repro.bench import (INVALIDATE_SCENARIO, NO_CACHE, UPDATE_SCENARIO,
                         render_sweep, run_sweep)

READ_FRACTIONS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)


def test_experiment2_read_write_mix(benchmark, save_result):
    result = benchmark.pedantic(
        run_sweep, args=("exp2",), kwargs={"read_fraction": READ_FRACTIONS},
        rounds=1, iterations=1)
    save_result("exp2_workload_mix", render_sweep(result))

    throughput = result.series("throughput", x="read_fraction")
    update = throughput[UPDATE_SCENARIO]
    invalidate = throughput[INVALIDATE_SCENARIO]
    nocache = throughput[NO_CACHE]

    # 0% reads: with batched (commit-time) trigger propagation the cached
    # systems match or beat NoCache even on pure writes — but stay well
    # short of the read-heavy benefit measured below.
    assert update[0] >= nocache[0] * 0.85
    assert invalidate[0] >= nocache[0] * 0.85
    update_gain_at_zero = update[0] / nocache[0]

    # The caching benefit grows with the read fraction.
    update_gain = [update[i] / nocache[i] for i in range(len(READ_FRACTIONS))]
    assert update_gain[-1] > update_gain[2] > update_gain[0]
    assert update_gain[-1] > 2 * update_gain_at_zero

    # 100% reads: the benefit is far larger than at the 80/20 default
    # (the paper reports 8x; our scaled stack reaches >=4x).
    assert update_gain[-1] >= 4.0

    # Update and Invalidate converge at 100% reads.
    assert abs(update[-1] - invalidate[-1]) / update[-1] < 0.1

    # The cached systems' absolute throughput grows monotonically (within
    # noise) as reads increase.
    assert update[-1] > update[0]
