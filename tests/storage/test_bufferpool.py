"""Tests for the LRU buffer pool."""

import pytest

from repro.storage import BufferPool, Recorder


class TestBufferPool:
    def test_miss_then_hit(self):
        pool = BufferPool(4)
        assert pool.access("t", 0) is False
        assert pool.access("t", 0) is True
        assert pool.recorder.total.pages_hit == 1
        assert pool.recorder.total.pages_missed == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BufferPool(0)

    def test_lru_eviction_order(self):
        pool = BufferPool(2)
        pool.access("t", 0)
        pool.access("t", 1)
        pool.access("t", 0)       # page 0 becomes most recent
        pool.access("t", 2)       # evicts page 1
        assert pool.access("t", 0) is True
        assert pool.access("t", 1) is False
        assert pool.evictions >= 1

    def test_dirty_writeback_counted(self):
        pool = BufferPool(1)
        pool.access("t", 0, dirty=True)
        pool.access("t", 1)       # evicts dirty page 0
        assert pool.dirty_writebacks == 1

    def test_recorder_events(self):
        recorder = Recorder()
        pool = BufferPool(4, recorder)
        with recorder.measure() as counters:
            pool.access("t", 0)
            pool.access("t", 0)
            pool.access("t", 1, dirty=True)
        assert counters.pages_missed == 2
        assert counters.pages_hit == 1
        assert counters.pages_dirtied == 1
