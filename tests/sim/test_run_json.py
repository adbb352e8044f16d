"""``ReplayedPage`` and whole replays cross process boundaries intact.

``run_cells --jobs`` sends replays back from its worker processes, so a
page must pickle, copy and compare like the dataclass it is.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.apps.social import SeedScale
from repro.bench.experiments import (QUICK_HOT_KEY_WORKLOAD as WORKLOAD,
                                     ablation_config, run_scenario)
from repro.bench.scenarios import UPDATE_SCENARIO
from repro.sim import ADVERSARIAL, ReplayedPage
from repro.storage.costmodel import CostCounters, Demand


@pytest.fixture(scope="module")
def replay():
    """One workers=2 adversarial replay."""
    config = ablation_config(UPDATE_SCENARIO, SeedScale.tiny())
    return run_scenario(config, workload=WORKLOAD, warmup=None, workers=2,
                        policy=ADVERSARIAL).replay


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
        assert rebuilt.pages == replay.pages
        assert ([page.counters.as_dict() for page in rebuilt.pages]
                == [page.counters.as_dict() for page in replay.pages])
        assert (rebuilt.total_counters.as_dict()
                == replay.total_counters.as_dict())
        assert (rebuilt.schedule, rebuilt.schedule_signature) == (
            replay.schedule, replay.schedule_signature)

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
