"""Stable JSON export: replay and metrics documents.

The run documents (``ReplayResult.to_json`` / ``RunMetrics.to_json``) are
what ``python -m repro.bench report`` consumes and what sweeps archive, so
they must be versioned and JSON-serializable as-is, and byte-stable through
a dump/load cycle.
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

    def test_serial_replay_exports_without_concurrent_block(self):
        result = ReplayResult()
        doc = result.to_json()
        assert "concurrent" not in doc
        assert doc["pages"] == []



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
