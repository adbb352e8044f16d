"""System assembly for the three evaluated configurations.

The paper compares (§5):

* **NoCache** — every request is served by the database;
* **Invalidate** — CacheGenie with trigger-driven invalidation;
* **Update** — CacheGenie with trigger-driven incremental update-in-place.

A :class:`Scenario` builds one complete stack — storage engine, memcached
servers, ORM binding, seeded dataset, CacheGenie (for the cached variants),
and the social application — with every knob the experiments sweep exposed on
:class:`ScenarioConfig`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Union

from ..adaptive import ADAPTIVE  # noqa: F401 — import registers the strategy
from ..apps.social import (SeedScale, SeedSummary, SocialApplication,
                           install_cached_objects, seed_database,
                           social_registry)
from ..core import (ASYNC_REFRESH, CacheGenie, ConsistencyStrategy, EXPIRY,
                    INVALIDATE, LEASED_INVALIDATE, UPDATE_IN_PLACE,
                    resolve_strategy)
from ..core.cache_classes.base import CacheClass
from ..memcache import CacheServer
from ..memcache.stats import CacheStats
from ..sim import VirtualClock
from ..storage import CostModel, Database

#: Scenario names used throughout the benchmarks and reports.
NO_CACHE = "NoCache"
INVALIDATE_SCENARIO = "Invalidate"
UPDATE_SCENARIO = "Update"
EXPIRY_SCENARIO = "Expiry"
LEASED_SCENARIO = "LeasedInvalidate"
ASYNC_REFRESH_SCENARIO = "AsyncRefresh"
ADAPTIVE_SCENARIO = "Adaptive"

#: The paper's three evaluated configurations (experiments 1-5 sweep these).
ALL_SCENARIOS = (NO_CACHE, INVALIDATE_SCENARIO, UPDATE_SCENARIO)

#: Default consistency strategy per scenario name.  A config built with just
#: a name resolves its strategy object from this table once, at construction
#: — nothing downstream matches on the name string again.
SCENARIO_STRATEGIES: Dict[str, Optional[str]] = {
    NO_CACHE: None,
    UPDATE_SCENARIO: UPDATE_IN_PLACE,
    INVALIDATE_SCENARIO: INVALIDATE,
    EXPIRY_SCENARIO: EXPIRY,
    LEASED_SCENARIO: LEASED_INVALIDATE,
    ASYNC_REFRESH_SCENARIO: ASYNC_REFRESH,
    ADAPTIVE_SCENARIO: ADAPTIVE,
}

#: Every buildable scenario name (the strategy ablation sweeps the cached ones).
ALL_STRATEGY_SCENARIOS = tuple(SCENARIO_STRATEGIES)

#: Cache servers the cache capacity is split over.
CACHE_SERVER_COUNT = 2
#: Database buffer-pool size in pages; chosen so the scaled dataset does
#: not fully fit, preserving the paper's CPU-bound vs disk-bound split.
BUFFER_POOL_PAGES = 64
#: Seed of the application's own random choices: the URL a new bookmark
#: saves, the user a friend request goes to.
APP_RNG_SEED = 99


@dataclass
class ScenarioConfig:
    """Configuration of one system under test."""

    name: str = UPDATE_SCENARIO
    #: Cache capacity across all cache servers, in bytes (the paper's default
    #: is 512 MB on a dedicated memcached machine; scaled down with the data).
    cache_size_bytes: int = 8 * 1024 * 1024
    #: Experiment 5's "ideal system": triggers removed, cache never updated.
    triggers_enabled: bool = True
    #: Future-work optimization: reuse memcached connections between triggers.
    reuse_trigger_connections: bool = False
    #: Batched multi-key cache protocol (default on since the committed
    #: ``--batch-ops`` baseline in EXPERIMENTS.md): application hot paths
    #: read through multi-get, and trigger-side ops coalesce per key and
    #: flush as gets_multi/cas_multi/delete_multi batches at transaction
    #: commit.  ``--batch-ops off`` restores the legacy per-key protocol:
    #: the same trigger-op queue, flushed right after each enqueued op.
    batch_ops: bool = True
    #: Issue one flush's per-server batches concurrently, charging the max
    #: (pipelined) instead of the sum of their round-trip latencies
    #: (``exp-batch``'s ``Serial`` column turns it off).
    pipeline_batches: bool = True
    #: The consistency strategy driving the cached objects: a
    #: :class:`~repro.core.strategies.ConsistencyStrategy` instance, a
    #: registered name, or None to resolve the scenario name's default from
    #: :data:`SCENARIO_STRATEGIES`.  Resolved once at construction — the
    #: config carries the *object*, never a name to re-match downstream.
    strategy: Optional[Union[str, ConsistencyStrategy]] = None
    #: Virtual seconds the replayer advances the shared clock per page load.
    #: 0 (the default) freezes time, as the committed experiments 1-5 expect;
    #: the strategy ablation sets it so TTLs, lease windows, and freshness
    #: deadlines actually elapse during a replay.
    page_interval_seconds: float = 0.0
    seed_scale: SeedScale = field(default_factory=SeedScale)

    def __post_init__(self) -> None:
        if self.strategy is None:
            default = SCENARIO_STRATEGIES.get(self.name)
            if default is not None:
                self.strategy = resolve_strategy(default)
        elif not isinstance(self.strategy, ConsistencyStrategy):
            self.strategy = resolve_strategy(self.strategy)

    @property
    def uses_cache(self) -> bool:
        return self.name != NO_CACHE

    def variant(self, **overrides) -> "ScenarioConfig":
        """Return a copy with the given fields replaced.

        Overriding ``name`` without an explicit ``strategy`` re-resolves the
        strategy from the new scenario name (matching the pre-object
        behavior, where the strategy was derived from the name) instead of
        silently carrying the previous scenario's strategy object along.
        """
        if "name" in overrides and "strategy" not in overrides:
            overrides["strategy"] = None  # __post_init__ re-derives from name
        return replace(self, **overrides)


class Scenario:
    """A fully assembled system under test."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.clock = VirtualClock()
        self.database = Database(
            name=config.name,
            buffer_pool_pages=BUFFER_POOL_PAGES,
            cost_model=CostModel(),
        )
        self.registry = social_registry
        # Rebind the (module-level) social registry to this scenario's stack.
        self.registry.unbind()
        self.registry.bind(self.database)
        self.registry.clock = self.clock
        self.registry.create_all()

        self.cache_servers: List[CacheServer] = []
        self.genie: Optional[CacheGenie] = None
        self.cached_objects: Dict[str, CacheClass] = {}
        self.seed_summary: Optional[SeedSummary] = None
        self.app = SocialApplication(cached_objects={},
                                     rng=random.Random(APP_RNG_SEED))

    # -- lifecycle -----------------------------------------------------------------

    def setup(self) -> "Scenario":
        """Seed the dataset and (for cached scenarios) install CacheGenie."""
        self.seed_summary = seed_database(self.config.seed_scale)
        if self.config.uses_cache:
            per_server = max(1, self.config.cache_size_bytes // CACHE_SERVER_COUNT)
            self.cache_servers = [
                CacheServer(f"cache{i}", capacity_bytes=per_server, clock=self.clock)
                for i in range(CACHE_SERVER_COUNT)
            ]
            self.genie = CacheGenie(
                registry=self.registry,
                database=self.database,
                cache_servers=self.cache_servers,
                reuse_trigger_connections=self.config.reuse_trigger_connections,
                batch_trigger_ops=self.config.batch_ops,
                pipeline_batches=self.config.pipeline_batches,
            ).activate()
            self.cached_objects = install_cached_objects(
                self.genie, update_strategy=self.config.strategy)
            self.app = SocialApplication(cached_objects=self.cached_objects,
                                         rng=random.Random(APP_RNG_SEED))
            if not self.config.triggers_enabled:
                self.database.triggers.disable_all()
        return self

    def teardown(self) -> None:
        """Detach CacheGenie and unbind the registry (so another scenario can build)."""
        if self.genie is not None:
            self.genie.deactivate()
            self.genie = None
        self.registry.unbind()

    def __enter__(self) -> "Scenario":
        return self.setup()

    def __exit__(self, *exc_info) -> None:
        self.teardown()

    # -- introspection ----------------------------------------------------------------

    def cache_hit_ratio(self) -> float:
        if self.genie is None:
            return 0.0
        return self.genie.cache_hit_ratio()

    def cache_stats(self) -> Dict[str, float]:
        if not self.cache_servers:
            return {}
        total: Dict[str, float] = {}
        for server in self.cache_servers:
            for key, value in server.stats_dict().items():
                if key in CacheStats._MAX_FIELDS:
                    # High-water marks (herd_size_max) aggregate by max —
                    # a key's lease window lives on exactly one server, so
                    # summing per-server maxima would overstate the herd.
                    total[key] = max(total.get(key, 0), value)
                else:
                    total[key] = total.get(key, 0) + value
        return total
