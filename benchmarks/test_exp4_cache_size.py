"""Experiment 4 (Figure 3c): throughput vs cache size.

Paper findings reproduced here:

* throughput rises with cache size until it plateaus — Invalidate plateaus at
  a smaller cache than Update, because invalidation keeps reclaiming space
  while update-in-place retains every entry it ever filled;
* even the smallest cache size evaluated keeps the cached configurations
  comfortably ahead of NoCache (paper: >=2x with a 64 MB cache).
"""

from repro.bench import (INVALIDATE_SCENARIO, UPDATE_SCENARIO, plateau_size,
                         render_sweep, run_sweep)

# The scaled-down workload's full cached working set is ~100 KB (the paper's
# is ~hundreds of MB against a 512 MB cache); the sweep therefore covers
# 16 KB - 512 KB, crossing from heavy eviction pressure to "everything fits".
CACHE_SIZES_KB = (16, 32, 64, 128, 256, 512)


def test_experiment4_cache_size(benchmark, save_result):
    result = benchmark.pedantic(
        run_sweep, args=("exp4",), kwargs={"cache_kb": CACHE_SIZES_KB},
        rounds=1, iterations=1)
    save_result("exp4_cache_size", render_sweep(result))

    throughput = result.series("throughput", x="cache_kb")
    update = throughput[UPDATE_SCENARIO]
    invalidate = throughput[INVALIDATE_SCENARIO]
    update_evictions = [row["cache"]["lru_evictions"]
                        for row in result.where(scenario=UPDATE_SCENARIO)]
    (nocache_reference,) = [row["throughput"] for row in result.aux]

    # Larger caches never hurt: the largest size is at least as good as the
    # smallest for both strategies.
    assert update[-1] >= update[0] * 0.95
    assert invalidate[-1] >= invalidate[0] * 0.95

    # Small caches evict (the pressure the experiment is about) ...
    assert update_evictions[0] > 0
    # ... while the largest cache does not.
    assert update_evictions[-1] == 0

    # Update needs at least as much cache as Invalidate to plateau.
    assert plateau_size(result, UPDATE_SCENARIO) >= \
        plateau_size(result, INVALIDATE_SCENARIO)

    # Even the smallest cache keeps the cached systems well ahead of NoCache.
    assert update[0] >= nocache_reference * 1.5
    assert invalidate[0] >= nocache_reference * 1.4
