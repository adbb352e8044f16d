"""Unit tests for the fixed-bucket histogram: aggregates, merge, JSON encoding."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, strategies as st

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


def reference_bucket_index(bounds, value):
    """The Python-level binary search ``observe`` ran before it used
    ``bisect_left``: bucket i = (previous edge, edge i], overflow last."""
    lo, hi = 0, len(bounds)
    while lo < hi:
        mid = (lo + hi) // 2
        if value <= bounds[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


class TestObserveBucketChoice:
    @given(st.lists(finite, min_size=1, max_size=12, unique=True).map(sorted),
           st.data())
    def test_observe_fills_the_bucket_the_python_search_chose(self, bounds,
                                                              data):
        edges = st.sampled_from(bounds)
        value = data.draw(st.one_of(
            edges,                                        # on an edge
            edges.map(lambda edge: math.nextafter(edge, math.inf)),
            edges.map(lambda edge: math.nextafter(edge, -math.inf)),
            finite,
            st.sampled_from([bounds[0] - 1.0, bounds[-1] + 1.0,
                             math.inf, -math.inf, 0.0, -0.0])))
        hist = Histogram("h", bounds=bounds)
        hist.observe(value)
        expected = [0] * (len(bounds) + 1)
        expected[reference_bucket_index(hist.bounds, value)] = 1
        assert hist.counts == expected
        assert (hist.count, hist.total, hist.min, hist.max) == (
            1, value, value, value)

    def test_edges_belong_to_the_bucket_below(self):
        hist = Histogram("h", bounds=(0.0, 1.0, 2.0))
        for value in (-0.0, 0.0, 1.0, 2.0, math.inf, -math.inf, 2.5, 1e-300):
            hist.observe(value)
        # (-inf, 0]: -0.0, 0.0, -inf   (0, 1]: 1.0, 1e-300   (1, 2]: 2.0
        # overflow: inf, 2.5
        assert hist.counts == [3, 2, 1, 2]

    def test_nan_is_refused_and_leaves_no_trace(self):
        """A NaN has no bucket (the old search put it in the overflow bucket,
        ``bisect_left`` would put it in the first) and would turn ``total``
        and the mean into NaN: ``observe`` refuses it."""
        hist = Histogram("lat", bounds=(1.0, 2.0))
        hist.observe(1.5)
        with pytest.raises(SimulationError, match="'lat' cannot observe NaN"):
            hist.observe(float("nan"))
        assert (hist.counts, hist.count, hist.total) == ([0, 1, 0], 1, 1.5)
        assert (hist.min, hist.max) == (1.5, 1.5)
