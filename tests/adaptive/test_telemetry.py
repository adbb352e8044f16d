"""Unit tests for the bounded, deterministic per-key telemetry."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.adaptive import KeyTelemetry


class ManualClock:
    """A hand-cranked virtual clock (callable, like the genie's)."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return ManualClock()


class TestValidation:
    def test_capacity_must_be_positive(self, clock):
        with pytest.raises(ValueError):
            KeyTelemetry(clock, capacity=0)

    def test_half_life_must_be_positive(self, clock):
        with pytest.raises(ValueError):
            KeyTelemetry(clock, half_life_seconds=0.0)


class TestCounting:
    def test_reads_and_writes_tally(self, clock):
        telemetry = KeyTelemetry(clock)
        for _ in range(3):
            telemetry.note_read("k")
        telemetry.note_write("k")
        entry = telemetry.get("k")
        assert (entry.reads, entry.writes) == (3, 1)
        assert entry.traffic == 4
        assert (telemetry.total_reads, telemetry.total_writes) == (3, 1)
        assert len(telemetry) == 1

    def test_untracked_key_is_none(self, clock):
        assert KeyTelemetry(clock).get("nope") is None

    def test_contention_folds_three_signals(self, clock):
        telemetry = KeyTelemetry(clock)
        telemetry.note_cas_mismatch("k")
        telemetry.note_cas_retry("k")
        telemetry.note_lease_contended("k")
        entry = telemetry.get("k")
        assert entry.contention_rate == 3.0
        assert (entry.cas_mismatches, entry.cas_retries,
                entry.lease_contended) == (1, 1, 1)

    def test_stale_and_refresh_notes(self, clock):
        telemetry = KeyTelemetry(clock)
        telemetry.note_stale("k")
        telemetry.note_refresh("k")
        entry = telemetry.get("k")
        assert (entry.stale_served, entry.refreshes) == (1, 1)


class TestDecay:
    def test_rates_halve_per_half_life(self, clock):
        telemetry = KeyTelemetry(clock, half_life_seconds=8.0)
        for _ in range(4):
            telemetry.note_read("k")
        clock.advance(8.0)
        entry = telemetry.get("k")
        assert entry.read_rate == pytest.approx(2.0)
        assert entry.reads == 4  # lifetime tallies stay monotone

    def test_frozen_clock_degenerates_to_counts(self, clock):
        telemetry = KeyTelemetry(clock)
        for _ in range(5):
            telemetry.note_read("k")
        assert telemetry.get("k").read_rate == 5.0

    def test_first_seen_anchors_on_first_observation(self, clock):
        telemetry = KeyTelemetry(clock)
        clock.advance(3.5)
        telemetry.note_read("k")
        clock.advance(1.0)
        telemetry.note_read("k")
        assert telemetry.get("k").first_seen == 3.5


class TestEviction:
    def test_least_trafficked_key_evicted_at_capacity(self, clock):
        telemetry = KeyTelemetry(clock, capacity=2)
        telemetry.note_read("a")
        telemetry.note_read("a")
        telemetry.note_read("b")
        telemetry.note_read("c")  # evicts b: traffic 1 < a's 2
        assert telemetry.get("b") is None
        assert telemetry.get("a") is not None
        assert telemetry.get("c") is not None
        assert telemetry.evictions == 1

    def test_eviction_tie_broken_by_key_string(self, clock):
        telemetry = KeyTelemetry(clock, capacity=2)
        telemetry.note_read("b")
        telemetry.note_read("a")  # ties b on traffic
        telemetry.note_read("c")  # evicts "a": lexicographically least
        assert telemetry.get("a") is None
        assert telemetry.get("b") is not None


NOTE_HOOKS = ("note_read", "note_write", "note_cas_mismatch", "note_cas_retry",
              "note_lease_contended", "note_stale", "note_refresh")


class ScanEvictingTelemetry(KeyTelemetry):
    """The reference model: the victim is found by scanning every tracked
    key for ``min((traffic, key))`` — the rule as specified, and the code
    the eviction index replaced."""

    def _evict_coldest(self) -> None:
        victim = min(self._entries.values(), key=lambda e: (e.traffic, e.key))
        del self._entries[victim.key]
        self.evictions += 1


class TestEvictionIndexMatchesScan:
    """The heap picks the victim the full scan would, step for step."""

    # Twelve keys at capacities 1-8 always overflow the bound; so few keys
    # make traffic ties (broken by key string) the common case, and
    # note_stale / note_refresh / note_cas_* admit entries whose traffic
    # stays zero.
    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(1, 8),
           steps=st.lists(st.tuples(st.sampled_from(NOTE_HOOKS),
                                    st.sampled_from("abcdefghijkl"),
                                    st.sampled_from((0.0, 0.5, 3.0))),
                          max_size=120))
    def test_same_victims_as_the_scan(self, capacity, steps):
        clock = ManualClock()
        indexed = KeyTelemetry(clock, capacity=capacity, half_life_seconds=2.0)
        scanned = ScanEvictingTelemetry(clock, capacity=capacity,
                                        half_life_seconds=2.0)
        for hook, key, elapsed in steps:
            clock.advance(elapsed)
            getattr(indexed, hook)(key)
            getattr(scanned, hook)(key)
            assert indexed.evictions == scanned.evictions
            assert indexed.snapshot() == scanned.snapshot()
            # One heap item per tracked key: the index is bounded like
            # the entries are (so len(heap) == len(entries) <= capacity).
            assert (sorted(key for _traffic, key in indexed._heap)
                    == sorted(indexed._entries))
            assert len(indexed) <= capacity

    def test_zero_traffic_entry_is_the_first_victim(self, clock):
        telemetry = KeyTelemetry(clock, capacity=2)
        telemetry.note_read("a")
        telemetry.note_stale("z")      # tracked with traffic 0
        telemetry.note_read("b")       # evicts z, not the lesser key a
        assert telemetry.get("z") is None
        assert telemetry.get("a") is not None

    def test_victim_ranked_by_current_not_admission_traffic(self, clock):
        telemetry = KeyTelemetry(clock, capacity=2)
        telemetry.note_read("a")       # admitted first ...
        telemetry.note_read("b")
        for _ in range(3):
            telemetry.note_write("a")  # ... but the busier key by now
        telemetry.note_read("c")
        assert telemetry.get("b") is None
        assert telemetry.get("a").traffic == 4


class TestSnapshot:
    def test_hottest_first_ties_by_key(self, clock):
        telemetry = KeyTelemetry(clock)
        telemetry.note_read("b")
        for _ in range(2):
            telemetry.note_read("c")
        telemetry.note_read("a")
        assert list(telemetry.snapshot()) == ["c", "a", "b"]

    def test_identical_histories_snapshot_identically(self):
        def build():
            clock = ManualClock()
            telemetry = KeyTelemetry(clock, half_life_seconds=4.0)
            telemetry.note_read("x")
            telemetry.note_write("x")
            clock.advance(2.0)
            telemetry.note_read("y")
            telemetry.note_cas_mismatch("y")
            clock.advance(1.0)
            return telemetry.snapshot()

        assert build() == build()
