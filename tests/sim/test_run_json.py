"""Stable JSON export: replay and metrics documents round-trip losslessly.

The run documents (``ReplayResult.to_json`` / ``RunMetrics.to_json``) are
what ``python -m repro.bench report`` consumes and what sweeps archive, so
they must be versioned, JSON-serializable as-is, and byte-stable through a
dump/load cycle — and a reconstructed replay must drive the closed-loop
simulator to the numbers the original produced.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle

import pytest

from repro.apps.social import SeedScale
from repro.bench.experiments import (QUICK_HOT_KEY_WORKLOAD as WORKLOAD,
                                     ablation_config, run_scenario)
from repro.bench.scenarios import UPDATE_SCENARIO
from repro.errors import SimulationError
from repro.sim import (ADVERSARIAL, RUN_JSON_SCHEMA, ReplayResult,
                       ReplayedPage, simulate_population)
from repro.storage.costmodel import CostCounters, Demand


@pytest.fixture(scope="module")
def replay():
    """One workers=2 adversarial replay shared by every round-trip test."""
    config = ablation_config(UPDATE_SCENARIO, SeedScale.tiny())
    return run_scenario(config, workload=WORKLOAD, warmup=None, workers=2,
                        policy=ADVERSARIAL).replay


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


class TestReplayResultRoundTrip:
    def test_document_is_versioned_and_json_clean(self, replay):
        doc = replay.to_json()
        assert doc["schema"] == RUN_JSON_SCHEMA
        assert doc["kind"] == "replay_result"
        # Serializable without default= hooks, and stable through a cycle.
        encoded = canonical(doc)
        assert canonical(json.loads(encoded)) == encoded

    def test_round_trip_is_byte_identical(self, replay):
        doc = replay.to_json()
        rebuilt = ReplayResult.from_json(json.loads(canonical(doc)))
        assert canonical(rebuilt.to_json()) == canonical(doc)

    def test_rebuilt_replay_preserves_engine_fields(self, replay):
        rebuilt = ReplayResult.from_json(replay.to_json())
        assert rebuilt.schedule_signature == replay.schedule_signature
        assert rebuilt.schedule == replay.schedule
        assert rebuilt.pages_by_worker == replay.pages_by_worker
        assert rebuilt.workers == replay.workers
        assert len(rebuilt.pages) == len(replay.pages)
        assert (rebuilt.total_counters.as_dict()
                == replay.total_counters.as_dict())

    def test_rebuilt_replay_simulates_identically(self, replay):
        rebuilt = ReplayResult.from_json(replay.to_json())
        original = simulate_population(replay, clients=WORKLOAD.clients)
        again = simulate_population(rebuilt, clients=WORKLOAD.clients)
        assert again.summary() == original.summary()
        assert again.latency_by_page() == original.latency_by_page()

    def test_serial_replay_exports_without_concurrent_block(self):
        result = ReplayResult()
        doc = result.to_json()
        assert "concurrent" not in doc
        rebuilt = ReplayResult.from_json(doc)
        assert type(rebuilt) is ReplayResult
        assert rebuilt.pages == []

    def test_wrong_kind_and_schema_rejected(self, replay):
        with pytest.raises(SimulationError):
            ReplayResult.from_json({"kind": "run_metrics", "schema": 1})
        doc = replay.to_json()
        doc["schema"] = RUN_JSON_SCHEMA + 1
        with pytest.raises(SimulationError):
            ReplayResult.from_json(doc)


class TestSlottedReplayedPage:
    """``ReplayedPage`` carries ``__slots__`` written by hand (no
    ``dataclass(slots=True)`` before Python 3.10); everything a dataclass with
    a ``__dict__`` did for its callers still works."""

    @staticmethod
    def page() -> ReplayedPage:
        return ReplayedPage(client_id=3, page="LookupBM", user_id=4,
                            demand=Demand(db_cpu_ms=1.5, db_disk_ms=0.5,
                                          cache_net_ms=0.25),
                            counters=CostCounters(statements=2))

    def test_has_no_dict_and_refuses_unknown_attributes(self):
        page = self.page()
        assert not hasattr(page, "__dict__")
        with pytest.raises(AttributeError):
            page.latency = 1.0
        page.user_id = 5                      # the fields stay writable
        assert page.user_id == 5

    def test_keywords_positions_equality_and_repr(self):
        page = self.page()
        positional = ReplayedPage(3, "LookupBM", 4, page.demand, page.counters)
        assert positional == page
        assert page != dataclasses.replace(page, client_id=9)
        assert repr(page).startswith(
            "ReplayedPage(client_id=3, page='LookupBM', user_id=4, demand=")
        with pytest.raises(TypeError):
            ReplayedPage(client_id=3, page="LookupBM", user_id=4)

    @pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
    def test_pickles_across_processes(self, protocol, replay):
        """``run_cells --jobs`` sends whole replays back from its workers."""
        page = self.page()
        clone = pickle.loads(pickle.dumps(page, protocol))
        assert clone == page and clone is not page
        assert clone.counters.as_dict() == page.counters.as_dict()
        rebuilt = pickle.loads(pickle.dumps(replay, protocol))
        assert canonical(rebuilt.to_json()) == canonical(replay.to_json())

    def test_deepcopy_asdict_and_replace(self):
        page = self.page()
        clone = copy.deepcopy(page)
        assert clone == page and clone.demand is not page.demand
        as_dict = dataclasses.asdict(page)
        assert list(as_dict) == ["client_id", "page", "user_id", "demand",
                                 "counters"]
        assert as_dict["demand"] == {"db_cpu_ms": 1.5, "db_disk_ms": 0.5,
                                     "cache_net_ms": 0.25}
        moved = dataclasses.replace(page, page="CreateBM")
        assert (moved.page, moved.demand) == ("CreateBM", page.demand)
        assert page.page == "LookupBM"

    def test_documents_stay_byte_identical_over_repeated_round_trips(
            self, replay):
        first = canonical(replay.to_json())
        rebuilt = ReplayResult.from_json(json.loads(first))
        assert not hasattr(rebuilt.pages[0], "__dict__")
        second = canonical(rebuilt.to_json())
        third = canonical(
            ReplayResult.from_json(json.loads(second)).to_json())
        assert first == second == third


class TestRunMetricsDocument:
    def test_document_is_versioned_and_complete(self, replay):
        metrics = simulate_population(replay, clients=WORKLOAD.clients)
        doc = metrics.to_json()
        assert doc["schema"] == RUN_JSON_SCHEMA
        assert doc["kind"] == "run_metrics"
        assert doc["mode"] == "retained"
        assert doc["summary"] == metrics.summary()
        assert doc["latency_by_page"] == metrics.latency_by_page()
        assert doc["contention"] == dict(metrics.contention)
        encoded = canonical(doc)
        assert canonical(json.loads(encoded)) == encoded

    def test_streaming_mode_documents_itself(self, replay):
        metrics = simulate_population(replay, clients=WORKLOAD.clients,
                                      retain_completions=False)
        doc = metrics.to_json()
        assert doc["mode"] == "streaming"
        assert doc["summary"]["completed_pages"] > 0
