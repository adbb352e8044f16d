"""Tests for workload configuration, zipf sampling, and trace generation."""

import random
from collections import Counter

import pytest

from repro.errors import WorkloadError
from repro.workload import (DEFAULT_PAGE_MIX, SessionCountSampler,
                            WorkloadConfig, WorkloadGenerator)


def read_share(config):
    """The probability of a read page (LookupBM or LookupFBM)."""
    return sum(probability for page, probability in config.normalized_mix()
               if page in ("LookupBM", "LookupFBM"))


class TestWorkloadConfig:
    def test_default_mix_is_80_20(self):
        config = WorkloadConfig()
        assert read_share(config) == pytest.approx(0.8)

    def test_normalized_mix_sums_to_one(self):
        config = WorkloadConfig()
        assert sum(p for _, p in config.normalized_mix()) == pytest.approx(1.0)

    def test_with_read_fraction(self):
        config = WorkloadConfig().with_read_fraction(0.5)
        assert read_share(config) == pytest.approx(0.5)
        read_only = WorkloadConfig().with_read_fraction(1.0)
        assert set(read_only.page_mix) == {"LookupBM", "LookupFBM"}
        write_only = WorkloadConfig().with_read_fraction(0.0)
        assert set(write_only.page_mix) == {"CreateBM", "AcceptFR"}

    def test_with_overrides(self):
        config = WorkloadConfig().with_overrides(clients=3, zipf_parameter=1.5)
        assert config.clients == 3
        assert config.zipf_parameter == 1.5
        assert config.page_mix == DEFAULT_PAGE_MIX

    @pytest.mark.parametrize("kwargs", [
        {"clients": 0}, {"sessions_per_client": 0},
        {"page_loads_per_session": 0}, {"zipf_parameter": 1.0},
        {"page_mix": {"LookupBM": 0.0}},
        {"page_mix": {"LookupBM": 2.0, "CreateBM": -1.0}},
        {"page_mix": {"LookupBM": 1.0, "CreateBM": float("nan")}},
        {"page_mix": {"LookupBM": 1, "Lookup": 1}},
        {"zipf_parameter": float("nan")},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(WorkloadError):
            WorkloadConfig(**kwargs)

    def test_invalid_read_fraction_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadConfig().with_read_fraction(1.5)


class TestZipfSamplers:
    def test_session_count_sampler_mean_grows_as_parameter_drops(self):
        """Paper semantics: lower a = heavier tail = more skewed workload."""
        rng = random.Random(2)
        skewed = SessionCountSampler(1.2, rng)
        uniform = SessionCountSampler(2.0, rng)
        draws = 4000
        assert (sum(skewed.sample() for _ in range(draws))
                > sum(uniform.sample() for _ in range(draws)))

    def test_session_count_sampler_bounds(self):
        rng = random.Random(3)
        sampler = SessionCountSampler(1.5, rng, max_sessions=10)
        samples = [sampler.sample() for _ in range(500)]
        assert all(1 <= s <= 10 for s in samples)
        assert min(samples) == 1

    def test_session_count_sampler_follows_the_truncated_zeta_law(self):
        """p(x) = x^-a / ζ(a), renormalised over [1, max_sessions] (§5.4)."""
        parameter, top, draws = 2.0, 5, 20000
        sampler = SessionCountSampler(parameter, random.Random(11),
                                      max_sessions=top)
        counts = Counter(sampler.sample() for _ in range(draws))
        norm = sum(x ** -parameter for x in range(1, top + 1))
        for x in range(1, top + 1):
            expected = x ** -parameter / norm
            assert counts[x] / draws == pytest.approx(expected, abs=0.01)

    def test_session_count_sampler_is_a_function_of_its_rng(self):
        first = SessionCountSampler(1.5, random.Random(4))
        second = SessionCountSampler(1.5, random.Random(4))
        assert ([first.sample() for _ in range(200)]
                == [second.sample() for _ in range(200)])

    def test_one_session_at_most_is_always_one(self):
        sampler = SessionCountSampler(1.5, random.Random(5), max_sessions=1)
        assert {sampler.sample() for _ in range(100)} == {1}

    @pytest.mark.parametrize("kwargs", [{"parameter": 1.0},
                                        {"parameter": 0.5},
                                        {"parameter": 2.0, "max_sessions": 0}])
    def test_session_count_sampler_validation(self, kwargs):
        with pytest.raises(WorkloadError):
            SessionCountSampler(rng=random.Random(0), **kwargs)


class TestWorkloadGenerator:
    def test_trace_has_expected_size_and_mix(self):
        config = WorkloadConfig(clients=4, sessions_per_client=3,
                                page_loads_per_session=5, seed=9)
        trace = WorkloadGenerator(config, list(range(1, 51))).generate()
        assert len(trace.sessions) == 12
        # login + 5 actions + logout per session
        assert trace.total_page_loads == 12 * 7
        histogram = Counter(load.page for load in trace.page_loads())
        assert histogram["Login"] == 12
        assert histogram["Logout"] == 12
        assert sum(histogram.get(p, 0) for p in
                   ("LookupBM", "LookupFBM", "CreateBM", "AcceptFR")) == 60

    def test_trace_is_deterministic_for_seed(self):
        config = WorkloadConfig(clients=3, sessions_per_client=2, seed=77)
        users = list(range(1, 101))
        a = WorkloadGenerator(config, users).generate()
        b = WorkloadGenerator(config, users).generate()
        assert [(p.client_id, p.page, p.user_id) for p in a.page_loads()] == \
               [(p.client_id, p.page, p.user_id) for p in b.page_loads()]

    def test_all_users_come_from_population(self):
        config = WorkloadConfig(clients=5, sessions_per_client=4)
        users = [10, 20, 30]
        trace = WorkloadGenerator(config, users).generate()
        assert set(trace.distinct_users()) <= set(users)

    def test_lower_zipf_parameter_concentrates_sessions(self):
        users = list(range(1, 201))
        skewed_cfg = WorkloadConfig(clients=10, sessions_per_client=10,
                                    zipf_parameter=1.1, seed=5)
        uniform_cfg = WorkloadConfig(clients=10, sessions_per_client=10,
                                     zipf_parameter=2.0, seed=5)
        skewed = WorkloadGenerator(skewed_cfg, users).generate()
        uniform = WorkloadGenerator(uniform_cfg, users).generate()
        assert len(skewed.distinct_users()) < len(uniform.distinct_users())

    def test_read_fraction_reflected_in_trace(self):
        config = WorkloadConfig(clients=5, sessions_per_client=5,
                                page_loads_per_session=10).with_read_fraction(1.0)
        trace = WorkloadGenerator(config, list(range(1, 20))).generate()
        histogram = Counter(load.page for load in trace.page_loads())
        assert set(histogram) <= {"Login", "LookupBM", "LookupFBM", "Logout"}

    def test_empty_user_population_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(WorkloadConfig(), [])
