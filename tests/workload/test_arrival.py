"""Unit tests for the flash-crowd arrival shape (``repro.workload.arrival``)."""

import math
import pickle

import pytest

from repro.workload import FlashCrowdArrival


class TestFlashCrowdArrival:
    def test_baseline_before_burst(self):
        arrival = FlashCrowdArrival(base_interval_seconds=1.0, burst_start=10,
                                    burst_factor=8.0, recovery_pages=5)
        assert [arrival(i) for i in range(10)] == [1.0] * 10

    def test_burst_divides_interval_by_factor(self):
        arrival = FlashCrowdArrival(base_interval_seconds=1.0, burst_start=10,
                                    burst_factor=8.0, recovery_pages=5)
        assert arrival(10) == pytest.approx(1.0 / 8.0)

    def test_recovery_relaxes_back_to_baseline(self):
        arrival = FlashCrowdArrival(base_interval_seconds=1.0, burst_start=0,
                                    burst_factor=8.0, recovery_pages=4)
        intervals = [arrival(i) for i in range(40)]
        assert intervals == sorted(intervals)  # monotone recovery
        assert intervals[-1] == pytest.approx(1.0, rel=1e-3)

    def test_e_folding_recovery_shape(self):
        arrival = FlashCrowdArrival(base_interval_seconds=1.0, burst_start=0,
                                    burst_factor=8.0, recovery_pages=4)
        boost = 1.0 + 7.0 * math.exp(-1.0)  # one e-folding after the burst
        assert arrival(4) == pytest.approx(1.0 / boost)

    def test_validation(self):
        with pytest.raises(ValueError):
            FlashCrowdArrival(base_interval_seconds=0.0)
        with pytest.raises(ValueError):
            FlashCrowdArrival(burst_factor=0.5)
        with pytest.raises(ValueError):
            FlashCrowdArrival(recovery_pages=0)


class TestPicklability:
    """Sweep cells carry arrival models across process boundaries."""

    def test_round_trip_preserves_the_shape(self):
        model = FlashCrowdArrival(base_interval_seconds=0.5, burst_start=3,
                                  burst_factor=6.0, recovery_pages=9)
        clone = pickle.loads(pickle.dumps(model))
        assert [clone(i) for i in range(50)] == [model(i) for i in range(50)]
        assert repr(clone) == repr(model)
