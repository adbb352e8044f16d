"""Differential determinism: replay behaviour is pinned, not re-implemented.

The committed EXPERIMENTS.md tables pin exact numbers, so the cache hot path
and the process-parallel sweep runner (``--jobs N``) may change *nothing*.
This suite compares:

* each quick ablation (exp1, exp-contention, exp-cluster) at ``jobs=2``
  against ``jobs=1`` — the serialized result JSON must be byte-identical;
* every consistency strategy's replay against a **golden fingerprint**: the
  SHA-256 of its pages, counters, schedule and ``schedule_signature``, taken
  from the plain-trace replay of the commit before the memo fast paths
  became the only path (there is no second implementation left to diff
  against, so the constants below are the reference).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import sys
import time
from typing import Optional

import pytest

from repro.apps.social import SeedScale
from repro.bench.experiments import (ADAPTIVE_SCENARIO,
                                     MIXED_HOT_COLD_WORKLOAD,
                                     QUICK_HOT_KEY_WORKLOAD as WORKLOAD,
                                     STRATEGY_ABLATION_SCENARIOS,
                                     STRATEGY_PAGE_INTERVAL,
                                     _ablation_strategy, _adaptive_arrival,
                                     ablation_config, run_scenario, run_sweep)
from repro.bench.scenarios import (INVALIDATE_SCENARIO, LEASED_SCENARIO,
                                   NO_CACHE, UPDATE_SCENARIO)
from repro.sim import (ADVERSARIAL, ALL_POLICIES, KEY_OVERLAP, RANDOM,
                       ROUND_ROBIN)


class TestJobsDifferential:
    """``--jobs 2`` output must be byte-identical to ``--jobs 1``."""

    @pytest.mark.parametrize("name", ["exp1", "exp-contention", "exp-cluster"])
    def test_jobs2_identical(self, name):
        serial, parallel = (run_sweep(name, quick=True, jobs=jobs)
                            for jobs in (1, 2))
        assert ([json.dumps(rows, sort_keys=True)
                 for rows in (parallel.rows, parallel.aux)]
                == [json.dumps(rows, sort_keys=True)
                    for rows in (serial.rows, serial.aux)])


def replay_once(scenario_name: str, workers: int = 1,
                policy: str = ROUND_ROBIN):
    return run_scenario(ablation_config(scenario_name, SeedScale.tiny()),
                        workload=WORKLOAD, warmup=None, workers=workers,
                        policy=policy).replay


def fingerprint_digest(fingerprint) -> str:
    """SHA-256 of a fingerprint's canonical JSON (every leaf is JSON-native:
    ints, floats, strings — so the digest is stable across Python versions)."""
    payload = json.dumps(fingerprint, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: Golden replay fingerprints, generated at commit 5bd6aac from the
#: *uncompiled* path (every memo off, ``deepcopy`` of every row, values
#: pickled on every hit).  Regenerate only for a deliberate behaviour change.
GOLDEN_FINGERPRINTS = {
    "Update": "bbc67aa22100ade74afd075b41ae42004ef78c0d9f6e7351fdbd3b08ea752c2e",
    "Invalidate": "336f78f6ccca0de75fd9c0a9228334234f7b488e3a3c21ff43f855207dd7b767",
    "LeasedInvalidate": "fd0c15ed9534d151e43f06ac14b9b7be8dfbd166997ddde92bb47f75d3382187",
    "AsyncRefresh": "22cf214fb115e3685fa055abcf4e47c209c1ad2a268a2c3f89f90d484005162d",
    "Expiry": "6ba3f2d30d30b9bb0a9d11a34346d54be35c92d5b605f4bd22f1d1c9070aa0b1",
    "Update/workers=2/adversarial": "33381c9c427faefa805747fcffc868f9b21eb2fe8b7f8091ae5f3632c018c2d4",
    "Adaptive/workers=1/round-robin": "2ce099471c03a325ec1c662a70456422343b34b21417fde145e847c3732e1ff3",
    "Adaptive/workers=2/round-robin": "040b916825ab464333e6f9e344db529f8f72f3daa59acb792be06ffee53ed8f7",
    "Adaptive/workers=2/random": "e035eadfebf21222928a854ee62a86d19790de3ee9eb5ecd6eb08adef5db3e75",
    "Adaptive/workers=2/adversarial": "c4fb2cedb985d1110f09044f4d87cc428e1a48c893be8d8634b98dd1d660bc39",
    "Adaptive/workers=2/key-overlap": "c4fb2cedb985d1110f09044f4d87cc428e1a48c893be8d8634b98dd1d660bc39",
    "Adaptive/telemetry-capacity=32": "7d0070de886659eccc750a32172e1b81e66ab5638b032a0f60c1db7c3782f55a",
    # The baseline arm, where storage + ORM produce *every* counter: generated
    # at commit 3090995 from the per-row statement path (one ``record`` per
    # scanned and per returned row, every candidate copied before its check).
    "NoCache": "0855d839d56fe110a9b6df323d5bfaecfe8352cac47bbf5c86ccc1997fd6a6b2",
    "NoCache/workers=2/adversarial": "366deeb6776d6e0021244a38247db6ffff4d9f186bf9c6527d91021b156b28f7",
    # Schedules that switch threads on almost every decision, with more than
    # two batons in play: generated at commit c517e74 from the scheduler-thread
    # loop (two semaphores a decision), before workers took the decision
    # themselves.  The adversarial pins above re-pick the yielder 83 % of the
    # time; round-robin and key-overlap do so under 4 %, random at 34 %.
    "Update/workers=3/round-robin": "60e52717f0a36c63d68ba3e389f6c625d59a5d9548f94811090eeb90643d37bf",
    "Update/workers=4/random": "ba423cab7431e4ea6d62f0c9ca0a474a837628709956762449ae8eff0d255256",
    "LeasedInvalidate/workers=4/key-overlap": "00d0b2a561136b4dca5e88e082ed7cc18de9a3b6976886c448fc8b6f6dfbbcf9",
    "Invalidate/workers=3/round-robin": "d3462927f0ea02fd2ff083e71873a3ddf7bc5b8dc6021d17e88e67e3579e3877",
}

#: The pins above whose schedule hands the baton to *another* worker on most
#: decisions: ``(scenario, workers, policy)``.
SWITCH_HEAVY_PINS = [
    (UPDATE_SCENARIO, 3, ROUND_ROBIN),
    (UPDATE_SCENARIO, 4, RANDOM),
    (LEASED_SCENARIO, 4, KEY_OVERLAP),
    (INVALIDATE_SCENARIO, 3, ROUND_ROBIN),
]


def replay_fingerprint(result):
    return {
        "pages": [(p.client_id, p.page, p.user_id, p.counters.as_dict(),
                   dataclasses.asdict(p.demand))
                  for p in result.pages],
        "total": result.total_counters.as_dict(),
        "schedule": result.schedule,
        "signature": result.schedule_signature,
        "pages_by_worker": result.pages_by_worker,
        "contention": result.contention_summary(),
    }


@functools.lru_cache(maxsize=None)
def plain_fingerprint(scenario_name: str, workers: int = 1,
                      policy: str = ROUND_ROBIN):
    return replay_fingerprint(
        replay_once(scenario_name, workers=workers, policy=policy))


class TestGoldenFingerprints:
    """Every strategy's replay is bit-identical to the pinned reference."""

    @pytest.mark.parametrize("scenario_name", STRATEGY_ABLATION_SCENARIOS)
    def test_golden_per_strategy(self, scenario_name):
        assert (fingerprint_digest(plain_fingerprint(scenario_name))
                == GOLDEN_FINGERPRINTS[scenario_name])

    def test_golden_under_contention(self):
        """The hot path must also hold under a threaded, genuinely
        contended schedule (workers=2, adversarial)."""
        fingerprint = plain_fingerprint(UPDATE_SCENARIO, 2, ADVERSARIAL)
        assert (fingerprint_digest(fingerprint)
                == GOLDEN_FINGERPRINTS["Update/workers=2/adversarial"])
        assert fingerprint["contention"]["cas_retry_rounds"] > 0

    @pytest.mark.parametrize("workers, policy, pin", [
        (1, ROUND_ROBIN, "NoCache"),
        (2, ADVERSARIAL, "NoCache/workers=2/adversarial")])
    def test_golden_baseline_arm(self, workers, policy, pin):
        """NoCache: every counter comes from storage + ORM.  At workers=2 a
        row charged after a checkpoint would land in the other worker's
        page, so the per-statement charge is pinned under hand-offs too."""
        fingerprint = plain_fingerprint(NO_CACHE, workers, policy)
        assert fingerprint_digest(fingerprint) == GOLDEN_FINGERPRINTS[pin]
        assert fingerprint["total"]["rows_scanned"] > 2000

    @pytest.mark.parametrize("scenario_name, workers, policy",
                             SWITCH_HEAVY_PINS)
    def test_golden_switch_heavy_schedules(self, scenario_name, workers,
                                           policy):
        """Three and four workers under policies that rarely re-pick the
        worker that just yielded: almost every decision is a real thread
        switch, and a baton released to the wrong worker (or twice) moves
        the schedule, the page order or a counter hashed here."""
        fingerprint = plain_fingerprint(scenario_name, workers, policy)
        pin = f"{scenario_name}/workers={workers}/{policy}"
        assert fingerprint_digest(fingerprint) == GOLDEN_FINGERPRINTS[pin]
        schedule = fingerprint["schedule"]
        switches = sum(1 for previous, chosen in zip(schedule, schedule[1:])
                       if previous != chosen)
        assert switches > 0.6 * len(schedule)
        assert set(schedule) == set(range(workers))

    def test_golden_under_a_tiny_switch_interval(self):
        """Four worker threads on fewer cores, the interpreter forced to
        offer a thread switch every microsecond: were two workers ever
        runnable at once (a baton released early, or twice), their recorder
        scopes, contexts and cache operations would mix and the pin break."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        started = time.monotonic()
        try:
            for _ in range(3):
                result = replay_once(UPDATE_SCENARIO, workers=4, policy=RANDOM)
                assert (fingerprint_digest(replay_fingerprint(result))
                        == GOLDEN_FINGERPRINTS["Update/workers=4/random"])
        finally:
            sys.setswitchinterval(interval)
        assert time.monotonic() - started < 60.0


#: Cache small enough that the quick workload evicts, so item sizes matter.
ACCOUNTING_CACHE_BYTES = 16 * 1024

#: ``(cache_bytes_moved, cache_hits, cache_misses, evictions, used bytes)`` of
#: one replay per strategy on that cache, generated at commit 5bd6aac — where
#: every hit pickled its value to count bytes and every store pickled twice.
GOLDEN_CACHE_ACCOUNTING = {
    "Update": (188859, 899, 209, 74, 16125),
    "Invalidate": (176236, 810, 183, 71, 16125),
    "LeasedInvalidate": (178304, 850, 135, 65, 15289),
    "AsyncRefresh": (247182, 837, 149, 90, 15772),
    "Expiry": (174561, 657, 336, 73, 16125),
}


class TestCacheAccountingPins:
    """Sizing each value once per store moves no byte, hit or eviction."""

    @pytest.mark.parametrize("scenario_name", STRATEGY_ABLATION_SCENARIOS)
    def test_bytes_hits_evictions_match_reference(self, scenario_name):
        run = run_scenario(
            ablation_config(scenario_name, SeedScale.tiny(),
                            cache_size_bytes=ACCOUNTING_CACHE_BYTES),
            workload=WORKLOAD, warmup=None)
        counters, stats = run.replay.total_counters, run.cache_stats
        assert (counters.cache_bytes_moved, counters.cache_hits,
                counters.cache_misses, int(stats["evictions"]),
                int(stats["bytes"])) == GOLDEN_CACHE_ACCOUNTING[scenario_name]


#: The adaptive differential workload: the quick ablation's mixed hot/cold
#: trace under the flash-crowd arrival shape, sized so bands actually switch.
ADAPTIVE_WORKLOAD = MIXED_HOT_COLD_WORKLOAD.with_overrides(
    clients=6, sessions_per_client=2, page_loads_per_session=6)


#: Telemetry bound small enough that the adaptive workload's 118 keys
#: overflow it: hundreds of evictions, while the hot keys stay tracked and
#: still switch bands.  (At the default 512 the replay never evicts.)
EVICTING_TELEMETRY_CAPACITY = 32


def replay_adaptive(workers: int = 1, policy: str = ROUND_ROBIN,
                    telemetry_capacity: Optional[int] = None):
    """One adaptive replay (fresh strategy instance — no cross-run state)."""
    strategy = _ablation_strategy(ADAPTIVE_SCENARIO)
    if telemetry_capacity is not None:
        strategy.telemetry_capacity = telemetry_capacity
    total_pages = (ADAPTIVE_WORKLOAD.clients
                   * ADAPTIVE_WORKLOAD.sessions_per_client
                   * ADAPTIVE_WORKLOAD.page_loads_per_session)
    run = run_scenario(
        ablation_config(ADAPTIVE_SCENARIO, SeedScale.tiny(),
                        strategy=strategy),
        workload=ADAPTIVE_WORKLOAD, warmup=None, workers=workers,
        policy=policy, arrival_model=_adaptive_arrival(
            total_pages, base_interval_seconds=3.0 * STRATEGY_PAGE_INTERVAL))
    return run.replay, strategy


def adaptive_fingerprint(result, strategy):
    """The standard fingerprint plus everything the band machinery touches:
    telemetry snapshot, the ordered switch log, and the band/migration
    counters.  Its golden pin proves the always-on memos (KeyScheme,
    query-shape match memo) never cache a decision across a band switch."""
    fingerprint = replay_fingerprint(result)
    fingerprint["key_telemetry"] = result.key_telemetry
    fingerprint["switch_log"] = list(strategy.switch_log)
    fingerprint["band_switches"] = len(strategy.switch_log)
    fingerprint["migrations"] = result.total_counters.adaptive_migrations
    return fingerprint


class TestAdaptiveDifferential:
    """Adaptive replay must stay pinned and deterministic: the golden
    fingerprint at both worker counts and all interleave policies — with
    the bands genuinely switching mid-replay."""

    @pytest.mark.parametrize("workers,policy",
                             [(1, ROUND_ROBIN)]
                             + [(2, policy) for policy in ALL_POLICIES])
    def test_golden_with_band_switches(self, workers, policy):
        result, strategy = replay_adaptive(workers, policy)
        assert (fingerprint_digest(adaptive_fingerprint(result, strategy))
                == GOLDEN_FINGERPRINTS[f"Adaptive/workers={workers}/{policy}"])
        # The pin is only meaningful if the strategy actually reclassified
        # keys mid-replay (memos crossing a live band switch).
        assert result.total_counters.band_switches > 0
        assert strategy.switch_log

    def test_golden_with_telemetry_evictions(self):
        """The victim of every telemetry eviction is pinned: generated at
        commit 8248c1e from the full ``min((traffic, key))`` scan, before
        the eviction index replaced it.  A wrong victim changes the tracked
        set, hence the snapshot, the bands and the counters hashed here."""
        result, strategy = replay_adaptive(
            telemetry_capacity=EVICTING_TELEMETRY_CAPACITY)
        assert (fingerprint_digest(adaptive_fingerprint(result, strategy))
                == GOLDEN_FINGERPRINTS["Adaptive/telemetry-capacity=32"])
        assert strategy.telemetry.evictions > 500
        assert len(result.key_telemetry) == EVICTING_TELEMETRY_CAPACITY
        assert result.total_counters.band_switches > 0

    def test_migrations_convert_cached_values(self):
        """The flash crowd's switches include real representation changes
        (envelope rewraps/retirements), not just band-map flips."""
        result, _strategy = replay_adaptive()
        assert result.total_counters.adaptive_migrations > 0
        assert len(result.key_telemetry) > 0
