"""Nothing mutates a stored value.

The cache keeps the rows it is given and hands out read-only views over
them (:mod:`repro.core.serializer`), and a trigger patch builds a new list
around the trigger's own copy of the row.  That is safe only if nothing
edits a value once it is stored: not the read path, not a patch, not a
refresh or a band migration, and not the application.  A test-side server
remembers a deep copy of each value as it is stored and checks the value
against it whenever the server reads, replaces or evicts it, and once more
for every value at the end of the replay.
"""

from __future__ import annotations

import copy
from typing import Any, List, Tuple

import pytest

from repro.apps.social import SeedScale
from repro.bench import scenarios
from repro.bench.experiments import HOT_KEY_WORKLOAD, ablation_config
from repro.bench.scenarios import (ALL_STRATEGY_SCENARIOS, NO_CACHE,
                                   UPDATE_SCENARIO, Scenario)
from repro.memcache import CacheServer
from repro.memcache.item import Item
from repro.memcache.lru import LRUStore
from repro.sim import ADVERSARIAL, ConcurrentReplayer
from repro.workload import WorkloadGenerator


class WatchedStore(LRUStore):
    """An LRU store that checks each value, whenever it reads, replaces or
    evicts it, against a deep copy taken when it was stored."""

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes)
        #: Every value ever stored, with its copy: checked again at the end.
        self.stored: List[Tuple[Any, Any]] = []
        self._copies = {}
        self.checks = 0

    def _check(self, item: Item) -> None:
        value, snapshot = self._copies[id(item)]
        assert value is item.value
        assert value == snapshot, f"{item.key!r} changed after it was stored"
        self.checks += 1

    def check_all(self) -> None:
        for value, snapshot in self.stored:
            assert value == snapshot, "a stored value changed"

    def get(self, key: str, *, touch: bool = True):
        item = super().get(key, touch=touch)
        if item is not None:
            self._check(item)
        return item

    def put(self, item: Item) -> List[str]:
        replaced = self._items.get(item.key)
        if replaced is not None:
            self._check(replaced)
        doomed = dict(self._items)
        entry = (item.value, copy.deepcopy(item.value))
        self._copies[id(item)] = entry
        self.stored.append(entry)
        evicted = super().put(item)
        for key in evicted:
            self._check(doomed[key] if key != item.key else item)
        return evicted

    def delete(self, key: str) -> bool:
        item = self._items.get(key)
        if item is not None:
            self._check(item)
        return super().delete(key)


class WatchingServer(CacheServer):
    """A cache server whose store is a :class:`WatchedStore`.  The batch
    read loop looks items up in the store's map itself, so each stored item
    a read is about to serve is checked here."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.store = WatchedStore(self.store.capacity_bytes)

    def _read(self, keys, cas):
        for key in keys:
            item = self.store._items.get(key)
            if item is not None:
                self.store._check(item)
        return super()._read(keys, cas)


def replay_watched(config, workers: int = 1,
                   policy: str = ADVERSARIAL) -> Tuple[int, int]:
    """Replay the hot-key workload on watching servers; the checks made
    and the evictions."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios, "CacheServer", WatchingServer)
        scenario = Scenario(config).setup()
    try:
        trace = WorkloadGenerator(
            HOT_KEY_WORKLOAD,
            range(1, config.seed_scale.users + 1)).generate()
        ConcurrentReplayer(
            scenario.app, scenario.database, genie=scenario.genie,
            workers=workers, policy=policy, clock=scenario.clock,
            page_interval_seconds=config.page_interval_seconds).replay(trace)
        stores = [server.store for server in scenario.cache_servers]
        for store in stores:
            store.check_all()
        return (sum(store.checks for store in stores),
                sum(store.evictions for store in stores))
    finally:
        scenario.teardown()


CACHED_SCENARIOS = [name for name in ALL_STRATEGY_SCENARIOS if name != NO_CACHE]


@pytest.mark.parametrize("name", CACHED_SCENARIOS)
def test_no_stored_value_changes_in_a_serial_replay(name):
    checks, _evictions = replay_watched(ablation_config(name, SeedScale.tiny()))
    assert checks > 0


def test_no_stored_value_changes_with_the_per_key_protocol():
    config = ablation_config(UPDATE_SCENARIO, SeedScale.tiny(), batch_ops=False)
    checks, _evictions = replay_watched(config)
    assert checks > 0


def test_no_stored_value_changes_in_a_threaded_adversarial_replay():
    # A cache too small for the working set, so values are evicted too.
    config = ablation_config(UPDATE_SCENARIO, SeedScale.tiny(),
                             cache_size_bytes=24 * 1024)
    checks, evictions = replay_watched(config, workers=3)
    assert checks > 0 and evictions > 0


def test_the_watch_sees_a_mutation():
    store = WatchedStore(1 << 20)
    rows = [{"id": 1}]
    store.put(Item(key="k", value=rows, cas_id=1, size=10))
    rows[0]["id"] = 2
    with pytest.raises(AssertionError, match="changed after it was stored"):
        store.get("k")
