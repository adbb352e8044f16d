"""Differential determinism: replay behaviour is pinned, not re-implemented.

The committed EXPERIMENTS.md tables pin exact numbers, so the cache hot path
and the process-parallel sweep runner (``--jobs N``) may change *nothing*.
This suite compares:

* each quick ablation (exp1, exp-contention, exp-cluster) at ``jobs=2``
  against ``jobs=1`` — the run documents must be byte-identical;
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
    """The ``--jobs 2`` run document is byte-identical to ``--jobs 1``'s."""

    @pytest.mark.parametrize("name", ["exp1", "exp-contention", "exp-cluster"])
    def test_jobs2_identical(self, name):
        serial, parallel = (json.dumps(run_sweep(name, quick=True,
                                                 jobs=jobs).to_json())
                            for jobs in (1, 2))
        assert parallel == serial


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
#: pickled on every hit).  Regenerate only for a deliberate behaviour change,
#: through ``tools/repin.py``.  Every entry was re-pinned so when
#: ``CostCounters`` lost its six single-key fields: the serial entries moved
#: by those keys vanishing and their counts joining the batch fields, the
#: threaded ones also by their schedules.
GOLDEN_FINGERPRINTS = {
    "Update": "a34056e6e1bcaf3effb6d3711250fd418e0b0446d9bb3eca3f05e49147ebeb78",
    "Invalidate": "2fbc8f4dee5c584250399471033dc82bc0804f505d7d6e4ffa685e717d7d85d4",
    "LeasedInvalidate": "de768f0963b2c761b634f0e4efb130dafb2efbfeffd1b20bc998aef91519569d",
    "AsyncRefresh": "c2d520c2878b172873148d8e3d9d3e9dee10a1e206899063cbc5918a1186da47",
    "Expiry": "f79267a50f0af1c333903768eb2c5902bb3abd76942726d72346d2254f2d79a4",
    "Update/workers=2/adversarial": "6331b66c5dc3c6ea0cbd399027bc2efa0edb86ff030c7d1ce58ec0c6e72f9334",
    "Adaptive/workers=1/round-robin": "09e24025c6376eff7aba1e5af3d46471c08fbb158d210db5f5831fb39755d554",
    "Adaptive/workers=2/round-robin": "07f7de32af65a523033484606808c90a8bce3b55b96523e83323bbafdc7863c6",
    "Adaptive/workers=2/random": "588d8de92d9c3202c8eb0fb405ac811c906e11dad0407256df294f9b7d3f6b95",
    "Adaptive/workers=2/adversarial": "e770cb63800d843b6fcb62e19b6ce5de0adbe08f0d0c1687f85bd87d90f3786a",
    "Adaptive/workers=2/key-overlap": "e770cb63800d843b6fcb62e19b6ce5de0adbe08f0d0c1687f85bd87d90f3786a",
    "Adaptive/telemetry-capacity=32": "8d3c3dfa9d8a3aa4005c167cbf24fd58b770ea3816ca13b797288ee3c1299e34",
    # The baseline arm, where storage + ORM produce *every* counter: generated
    # at commit 3090995 from the per-row statement path (one ``record`` per
    # scanned and per returned row, every candidate copied before its check).
    "NoCache": "1828d2d63adbea8584c231d2af2ce5330efc963b24a45d379db8f59fcbc09043",
    "NoCache/workers=2/adversarial": "34511a6c2521d14bee7d77bf95ac704144cfb37f01dba46c905d15be236020af",
    # Schedules that switch threads on almost every decision, with more than
    # two batons in play: generated at commit c517e74 from the scheduler-thread
    # loop (two semaphores a decision), before workers took the decision
    # themselves.  The adversarial pins above re-pick the yielder 83 % of the
    # time; round-robin and key-overlap do so under 4 %, random at 34 %.
    "Update/workers=3/round-robin": "e7f54150408b479c40873aaf70093c6192957425bcd496be8390ccdb13486f62",
    "Update/workers=4/random": "e7f1efad3f94df83ebe9169c0435bc465489816fb543c963c45ccc9c1f8f9e4d",
    "LeasedInvalidate/workers=4/key-overlap": "baf187c00d766b938ea1c5e2ba698ab812fb391f98241e7e1af07786a13a6c42",
    "Invalidate/workers=3/round-robin": "3e36c90cf908aa00d718c22e7f34bee821fa1bc25ea49ec38cb6ebe0492e8ace",
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


def golden_fingerprint(pin: str):
    """The fingerprint ``GOLDEN_FINGERPRINTS[pin]`` is the digest of, built
    from the pin's name (``tools/repin.py`` rebuilds every pin through it):
    ``"<scenario>"`` is a serial replay, ``"<scenario>/workers=N/<policy>"``
    a threaded one, and ``"Adaptive/telemetry-capacity=N"`` the serial
    adaptive replay with that telemetry bound."""
    scenario_name, *rest = pin.split("/")
    if rest and rest[0].startswith("telemetry-capacity="):
        return adaptive_fingerprint(*replay_adaptive(
            telemetry_capacity=int(rest[0].split("=")[1])))
    workers, policy = ((int(rest[0].split("=")[1]), rest[1]) if rest
                       else (1, ROUND_ROBIN))
    if scenario_name == ADAPTIVE_SCENARIO:
        return adaptive_fingerprint(*replay_adaptive(workers, policy))
    return plain_fingerprint(scenario_name, workers, policy)


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
    "Update": (188859, 899, 206, 74, 16125),
    "Invalidate": (176236, 810, 183, 71, 16125),
    "LeasedInvalidate": (178304, 850, 135, 65, 15289),
    "AsyncRefresh": (247182, 837, 149, 90, 15772),
    "Expiry": (174561, 657, 336, 73, 16125),
}


def cache_accounting(scenario_name: str):
    """The named quantities of ``GOLDEN_CACHE_ACCOUNTING[scenario_name]``."""
    run = run_scenario(
        ablation_config(scenario_name, SeedScale.tiny(),
                        cache_size_bytes=ACCOUNTING_CACHE_BYTES),
        workload=WORKLOAD, warmup=None)
    counters, stats = run.replay.total_counters, run.cache_stats
    return {"cache_bytes_moved": counters.cache_bytes_moved,
            "cache_hits": counters.cache_hits,
            "cache_misses": counters.cache_misses,
            "evictions": int(stats["evictions"]),
            "used_bytes": int(stats["bytes"])}


def accounting_pin(quantities):
    return tuple(quantities.values())


class TestCacheAccountingPins:
    """Sizing each value once per store moves no byte, hit or eviction."""

    @pytest.mark.parametrize("scenario_name", STRATEGY_ABLATION_SCENARIOS)
    def test_bytes_hits_evictions_match_reference(self, scenario_name):
        assert (accounting_pin(cache_accounting(scenario_name))
                == GOLDEN_CACHE_ACCOUNTING[scenario_name])


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
