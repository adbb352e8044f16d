"""Tests for the LRU buffer pool."""

import pytest

from repro.storage import BufferPool, Recorder


class TestBufferPool:
    def test_miss_then_hit(self):
        pool = BufferPool(4)
        assert pool.write("t", 0) is False
        assert pool.write("t", 0) is True
        assert pool.recorder.total.pages_hit == 1
        assert pool.recorder.total.pages_missed == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BufferPool(0)

    def test_lru_eviction_order(self):
        pool = BufferPool(2)
        pool.read([("t", 0), ("t", 1)])
        pool.read([("t", 0)])       # page 0 becomes most recent
        pool.read([("t", 2)])       # evicts page 1
        assert pool.read([("t", 0)]) == 1
        assert pool.read([("t", 1)]) == 0
        assert pool.evictions >= 1

    def test_dirty_writeback_counted(self):
        pool = BufferPool(1)
        pool.write("t", 0)
        pool.read([("t", 1)])       # evicts dirty page 0
        assert pool.dirty_writebacks == 1
        pool.read([("t", 2)])       # evicts clean page 1
        assert pool.dirty_writebacks == 1

    def test_recorder_events(self):
        recorder = Recorder()
        pool = BufferPool(4, recorder)
        with recorder.measure() as counters:
            pool.write("t", 0)
            pool.write("t", 0)
            pool.write("t", 1)
        assert counters.pages_missed == 2
        assert counters.pages_hit == 1
        assert counters.pages_dirtied == 3

    def test_a_read_counts_hits_in_order_and_charges_nothing(self):
        """A statement's pages are read in the order it read them — the
        same page twice is a miss, then a hit — and the statement, not the
        pool, charges them."""
        recorder = Recorder()
        pool = BufferPool(2, recorder)
        pool.write("t", 0)
        with recorder.measure() as counters:
            hits = pool.read([("t", 1), ("t", 1), ("t", 2), ("t", 0)])
        assert hits == 1                  # the second read of page 1
        assert counters == type(counters)()
        assert pool.evictions == 2 and pool.dirty_writebacks == 1
