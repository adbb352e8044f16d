"""Tests for workload configuration, zipf sampling, and trace generation."""

import random

import pytest

from repro.errors import WorkloadError
from repro.workload import (DEFAULT_PAGE_MIX, SessionCountSampler,
                            WorkloadConfig, WorkloadGenerator, ZipfSampler)


class TestWorkloadConfig:
    def test_default_mix_is_80_20(self):
        config = WorkloadConfig()
        assert config.read_fraction == pytest.approx(0.8)
        assert config.write_fraction == pytest.approx(0.2)

    def test_normalized_mix_sums_to_one(self):
        config = WorkloadConfig()
        assert sum(p for _, p in config.normalized_mix()) == pytest.approx(1.0)

    def test_with_read_fraction(self):
        config = WorkloadConfig().with_read_fraction(0.5)
        assert config.read_fraction == pytest.approx(0.5)
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
    def test_rank_sampler_favors_top_ranks(self):
        rng = random.Random(1)
        sampler = ZipfSampler(population=100, parameter=2.0, rng=rng)
        ranks = [sampler.sample_rank() for _ in range(2000)]
        assert all(1 <= r <= 100 for r in ranks)
        top_share = sum(1 for r in ranks if r <= 5) / len(ranks)
        assert top_share > 0.7
        assert sampler.expected_top_share(5) > 0.7

    def test_rank_sampler_validation(self):
        rng = random.Random(1)
        with pytest.raises(WorkloadError):
            ZipfSampler(0, 2.0, rng)
        with pytest.raises(WorkloadError):
            ZipfSampler(10, 1.0, rng)

    def test_session_count_sampler_mean_grows_as_parameter_drops(self):
        """Paper semantics: lower a = heavier tail = more skewed workload."""
        rng = random.Random(2)
        skewed = SessionCountSampler(1.2, rng)
        uniform = SessionCountSampler(2.0, rng)
        assert skewed.mean() > uniform.mean()

    def test_session_count_sampler_bounds(self):
        rng = random.Random(3)
        sampler = SessionCountSampler(1.5, rng, max_sessions=10)
        samples = [sampler.sample() for _ in range(500)]
        assert all(1 <= s <= 10 for s in samples)
        assert min(samples) == 1


class TestWorkloadGenerator:
    def test_trace_has_expected_size_and_mix(self):
        config = WorkloadConfig(clients=4, sessions_per_client=3,
                                page_loads_per_session=5, seed=9)
        trace = WorkloadGenerator(config, list(range(1, 51))).generate()
        assert len(trace.sessions) == 12
        # login + 5 actions + logout per session
        assert trace.total_page_loads == 12 * 7
        histogram = trace.page_type_histogram()
        assert histogram["Login"] == 12
        assert histogram["Logout"] == 12
        assert sum(histogram.get(p, 0) for p in
                   ("LookupBM", "LookupFBM", "CreateBM", "AcceptFR")) == 60

    def test_trace_without_login_logout(self):
        config = WorkloadConfig(clients=2, sessions_per_client=2,
                                page_loads_per_session=4,
                                include_login_logout=False)
        trace = WorkloadGenerator(config, [1, 2, 3]).generate()
        assert "Login" not in trace.page_type_histogram()
        assert trace.total_page_loads == 16

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
                                page_loads_per_session=10,
                                include_login_logout=False).with_read_fraction(1.0)
        trace = WorkloadGenerator(config, list(range(1, 20))).generate()
        histogram = trace.page_type_histogram()
        assert set(histogram) <= {"LookupBM", "LookupFBM"}

    def test_empty_user_population_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(WorkloadConfig(), [])
