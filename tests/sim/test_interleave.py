"""InterleaveScheduler: policies, determinism, adversarial parking."""

import pytest

from repro.errors import SimulationError
from repro.sim import (ADVERSARIAL, ALL_POLICIES, InterleaveScheduler,
                       KEY_OVERLAP, RANDOM, ROUND_ROBIN, WorkerStatus)


def statuses(*labels):
    return [WorkerStatus(worker_id=i, label=label)
            for i, label in enumerate(labels)]


class TestPolicyValidation:
    def test_unknown_policy_rejected(self):
        with pytest.raises(SimulationError):
            InterleaveScheduler(policy="fifo")

    def test_all_policies_construct(self):
        for policy in ALL_POLICIES:
            assert InterleaveScheduler(policy=policy).policy == policy

    def test_empty_runnable_rejected(self):
        with pytest.raises(SimulationError):
            InterleaveScheduler().choose([])


class TestRoundRobin:
    def test_cycles_worker_ids(self):
        scheduler = InterleaveScheduler(ROUND_ROBIN)
        run = statuses("a", "b", "c")
        picks = [scheduler.choose(run) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_skips_finished_workers(self):
        scheduler = InterleaveScheduler(ROUND_ROBIN)
        assert scheduler.choose(statuses("a", "b", "c")) == 0
        # Worker 1 finished: the rotation continues over the survivors.
        remaining = [WorkerStatus(worker_id=0), WorkerStatus(worker_id=2)]
        assert scheduler.choose(remaining) == 2
        assert scheduler.choose(remaining) == 0


    def test_rotation_matches_the_reference_formula(self):
        """The pick is the runnable id nearest above the rotation point,
        modulo *this call's* highest id + 1 — written out here the way it
        was before the span was hoisted out of the ``min`` key.  The modulus
        shrinks when the highest worker finishes, so the quirks (rotation 3
        over ids {0, 1} picks 1, not 0) are part of every pinned schedule."""
        ids = range(5)
        subsets = [[i for i in ids if mask >> i & 1] for mask in range(1, 32)]
        for runnable_ids in subsets:
            run = [WorkerStatus(worker_id=i) for i in reversed(runnable_ids)]
            span = max(runnable_ids) + 1
            for rotation in range(7):
                scheduler = InterleaveScheduler(ROUND_ROBIN)
                scheduler._rotation = rotation
                expected = min(runnable_ids,
                               key=lambda i: ((i - rotation) % span, i))
                assert scheduler.choose(run) == expected
                assert scheduler._rotation == expected + 1


class TestRandomPolicy:
    def test_same_seed_same_decisions(self):
        run = statuses("a", "b", "c", "d")
        first = InterleaveScheduler(RANDOM, seed=42)
        second = InterleaveScheduler(RANDOM, seed=42)
        picks = [first.choose(run) for _ in range(50)]
        assert picks == [second.choose(run) for _ in range(50)]
        assert first.signature() == second.signature()

    def test_different_seed_diverges(self):
        run = statuses("a", "b", "c", "d")
        first = InterleaveScheduler(RANDOM, seed=1)
        second = InterleaveScheduler(RANDOM, seed=2)
        picks_a = [first.choose(run) for _ in range(50)]
        picks_b = [second.choose(run) for _ in range(50)]
        assert picks_a != picks_b

    def test_reset_restarts_the_stream(self):
        run = statuses("a", "b", "c")
        scheduler = InterleaveScheduler(RANDOM, seed=7)
        picks = [scheduler.choose(run) for _ in range(20)]
        scheduler.reset()
        assert [scheduler.choose(run) for _ in range(20)] == picks


class TestAdversarial:
    def test_parks_cas_token_holders(self):
        scheduler = InterleaveScheduler(ADVERSARIAL)
        # Worker 0 just finished a gets_multi (holds unwritten CAS tokens);
        # the scheduler runs everyone else first.
        run = statuses("cache:gets_multi", "page:end", "db:statement")
        picks = [scheduler.choose(run) for _ in range(4)]
        assert 0 not in picks

    def test_releases_when_everyone_is_parked(self):
        scheduler = InterleaveScheduler(ADVERSARIAL)
        run = statuses("cache:gets_multi", "cache:gets_multi")
        picks = {scheduler.choose(run) for _ in range(4)}
        assert picks == {0, 1}

    def test_write_intent_flag(self):
        assert WorkerStatus(0, label="cache:gets_multi").holds_write_intent
        assert not WorkerStatus(0, label="cache:get_multi").holds_write_intent


class TestKeyOverlap:
    def overlapping(self, *key_sets, labels=None):
        labels = labels or ["page:end"] * len(key_sets)
        return [WorkerStatus(worker_id=i, label=label,
                             pending_keys=frozenset(keys))
                for i, (keys, label) in enumerate(zip(key_sets, labels))]

    def test_overlaps_predicate(self):
        a, b, c = self.overlapping({"wall:1"}, {"wall:1", "cnt:2"}, set())
        run = [a, b, c]
        assert a.overlaps(run)
        assert b.overlaps(run)
        assert not c.overlaps(run)          # nothing pending
        assert not a.overlaps([a])          # never overlaps itself

    def test_parks_workers_with_intersecting_flush_keys(self):
        scheduler = InterleaveScheduler(KEY_OVERLAP)
        # Workers 0 and 1 both hold pending ops on wall:1; worker 2's
        # transaction targets a disjoint key and worker 3 has none.
        run = self.overlapping({"wall:1"}, {"wall:1"}, {"cnt:9"}, set())
        picks = [scheduler.choose(run) for _ in range(6)]
        assert set(picks) == {2, 3}

    def test_parks_cas_token_holders_too(self):
        scheduler = InterleaveScheduler(KEY_OVERLAP)
        run = self.overlapping(set(), set(), labels=["cache:gets_multi",
                                                     "page:end"])
        picks = [scheduler.choose(run) for _ in range(4)]
        assert 0 not in picks

    def test_releases_when_everyone_is_parked(self):
        scheduler = InterleaveScheduler(KEY_OVERLAP)
        run = self.overlapping({"wall:1"}, {"wall:1"})
        picks = {scheduler.choose(run) for _ in range(4)}
        # Both parked: the fallback rotation still releases them in order.
        assert picks == {0, 1}


class TestSignature:
    def test_signature_reflects_the_log(self):
        a = InterleaveScheduler(ROUND_ROBIN)
        b = InterleaveScheduler(ROUND_ROBIN)
        run = statuses("x", "y")
        a.choose(run)
        assert a.signature() != b.signature()
        b.choose(run)
        assert a.signature() == b.signature()
        assert len(a.decisions) == 1
