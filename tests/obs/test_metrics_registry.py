"""Unit tests for the fixed-bucket histogram: aggregates, merge, JSON encoding."""

from __future__ import annotations

import json

import pytest

from repro.errors import SimulationError
from repro.obs import (DEFAULT_LATENCY_BUCKETS_S, Histogram,
                       exponential_buckets)


class TestExponentialBuckets:
    def test_geometric_progression(self):
        bounds = exponential_buckets(1.0, 2.0, 4)
        assert bounds == (1.0, 2.0, 4.0, 8.0)

    @pytest.mark.parametrize("start,factor,count",
                             [(0.0, 2.0, 4), (-1.0, 2.0, 4),
                              (1.0, 1.0, 4), (1.0, 0.5, 4), (1.0, 2.0, 0)])
    def test_invalid_arguments_raise(self, start, factor, count):
        with pytest.raises(SimulationError):
            exponential_buckets(start, factor, count)

    def test_default_latency_bounds_cover_the_simulated_range(self):
        assert DEFAULT_LATENCY_BUCKETS_S[0] <= 1e-4
        assert DEFAULT_LATENCY_BUCKETS_S[-1] > 3600.0
        # <= 5% relative quantization error by construction.
        assert (DEFAULT_LATENCY_BUCKETS_S[1]
                / DEFAULT_LATENCY_BUCKETS_S[0]) <= 1.05 + 1e-9


class TestHistogram:
    def test_observe_and_exact_aggregates(self):
        hist = Histogram("lat", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == 105.0
        assert hist.min == 0.5 and hist.max == 100.0
        assert hist.mean == pytest.approx(26.25)
        assert hist.counts == [1, 1, 1, 1]  # last = overflow bucket

    def test_quantile_reports_bucket_edge_clamped(self):
        hist = Histogram("lat", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0):
            hist.observe(value)
        # Rank formula matches repro.sim.metrics.percentile; the value is
        # the containing bucket's upper edge, clamped into [min, max].
        assert hist.quantile(0.0) == 1.0    # bucket edge above 0.5
        assert hist.quantile(1.0) == 3.0    # clamped to max
        assert hist.quantile(0.5) == 2.0

    def test_quantile_of_empty_histogram(self):
        assert Histogram("lat").quantile(0.95) == 0.0

    def test_merge_adds_element_wise(self):
        a = Histogram("lat", bounds=(1.0, 2.0))
        b = Histogram("lat", bounds=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.min == 0.5 and a.max == 9.0

    def test_merge_rejects_different_bounds(self):
        a = Histogram("lat", bounds=(1.0, 2.0))
        b = Histogram("lat", bounds=(1.0, 3.0))
        with pytest.raises(SimulationError):
            a.merge(b)

    def test_bounds_must_be_ascending_and_distinct(self):
        with pytest.raises(SimulationError):
            Histogram("lat", bounds=(2.0, 1.0))
        with pytest.raises(SimulationError):
            Histogram("lat", bounds=(1.0, 1.0))
        with pytest.raises(SimulationError):
            Histogram("lat", bounds=())

    def test_to_json_sparse_buckets_and_geometric_encoding(self):
        hist = Histogram("lat", bounds=exponential_buckets(1.0, 2.0, 10))
        hist.observe(1.0)
        hist.observe(500.0)
        doc = hist.to_json()
        assert doc["bounds_encoding"] == "geometric"
        assert doc["bounds"] == [1.0, 2.0, 10]
        assert doc["buckets"] == {"0": 1, "9": 1}
        explicit = Histogram("lat", bounds=(1.0, 2.0, 7.0)).to_json()
        assert explicit["bounds_encoding"] == "explicit"
        assert explicit["bounds"] == [1.0, 2.0, 7.0]

    def test_to_json_round_trips_through_json(self):
        hist = Histogram("lat")
        hist.observe(0.01)
        encoded = json.dumps(hist.to_json(), sort_keys=True)
        assert json.dumps(json.loads(encoded), sort_keys=True) == encoded
