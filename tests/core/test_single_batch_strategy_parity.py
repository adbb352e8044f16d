"""Every strategy's single-key read and eager invalidation agree with their
batched twins on a batch of one.

``evaluate()`` is ``evaluate_many()`` on a batch of one, and an eager
trigger-side invalidation is a one-key flush of the commit-time queue, so
the result, the per-object statistics, the server statistics, the gutter
counters, the refresh queue, every cost event and every ``cache:<op>``
pause must come out the same, exactly as for a single-key ``CacheClient``
call (``tests/memcache/test_single_batch_parity.py``).

Each case prepares two identical fleets the same way, runs the single-key
path on one and the batched path on the other, then compares everything
both left behind.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, NamedTuple, Optional

import pytest

from repro.adaptive import HERD_BAND, AdaptiveStrategy
from repro.cluster import GutterPool
from repro.core import (AsyncRefreshStrategy, CacheGenie, ExpiryStrategy,
                        InvalidateStrategy, LeasedInvalidateStrategy,
                        UpdateInPlaceStrategy, evaluate_many)
from repro.memcache import CacheServer
from repro.obs import hooks
from repro.orm import CharField, ForeignKey, Model, Registry
from repro.sim import VirtualClock
from repro.storage import Database

_COUNTER = itertools.count()

#: The node whose death the dead-primary cases simulate.
VICTIM = "cache1"


class Strategy(NamedTuple):
    make: Callable[[], Any]
    #: Virtual seconds between a write and the read that finds it stale:
    #: inside the lease window, past the freshness or expiry deadline.
    stale_after: float


STRATEGIES: Dict[str, Strategy] = {
    "update-in-place": Strategy(UpdateInPlaceStrategy, 1.0),
    "invalidate": Strategy(InvalidateStrategy, 1.0),
    "expiry": Strategy(lambda: ExpiryStrategy(default_ttl=10.0), 11.0),
    "leased-invalidate": Strategy(
        lambda: LeasedInvalidateStrategy(lease_seconds=5.0), 1.0),
    "async-refresh": Strategy(
        lambda: AsyncRefreshStrategy(refresh_seconds=10.0), 11.0),
    "adaptive": Strategy(
        lambda: AdaptiveStrategy(hot_rate_threshold=4.0,
                                 min_dwell_seconds=1.0), 0.5),
}


class Fleet:
    """One database, genie and two-node cache fleet with one cached count
    whose key routes to :data:`VICTIM`."""

    def __init__(self, strategy: str, batch_trigger_ops: bool = True,
                 with_gutter: bool = False) -> None:
        reg = Registry(f"strategy-parity{next(_COUNTER)}")

        class Owner(Model):
            name = CharField(max_length=40)

            class Meta:
                registry = reg

        class Note(Model):
            owner = ForeignKey(Owner)
            body = CharField(max_length=80)

            class Meta:
                registry = reg

        self.clock = VirtualClock()
        database = Database(buffer_pool_pages=128)
        reg.bind(database)
        reg.create_all()
        self.servers = [CacheServer(f"cache{i}", clock=self.clock)
                        for i in range(2)]
        self.genie = CacheGenie(registry=reg, database=database,
                                cache_servers=self.servers,
                                batch_trigger_ops=batch_trigger_ops).activate()
        self.gutter: Optional[GutterPool] = None
        if with_gutter:
            self.gutter = GutterPool([CacheServer("gutter0", clock=self.clock)])
            self.genie.app_cache.gutter = self.gutter
            self.genie.trigger_cache.gutter = self.gutter
        self.strategy = STRATEGIES[strategy].make()
        self.cached = self.genie.cacheable(
            cache_class_type="CountQuery", main_model="Note",
            where_fields=["owner_id"], name="parity_count",
            update_strategy=self.strategy)
        self.Note = Note
        for i in range(64):
            self.owner = Owner.objects.create(name=f"o{i}")
            self.key = self.cached.make_key(owner_id=self.owner.pk)
            if self.genie.app_cache.ring.server_for(self.key) == VICTIM:
                break
        self.checkpoints: List[str] = []

    def read(self) -> Any:
        return self.cached.evaluate(owner_id=self.owner.pk)

    def write(self) -> None:
        self.Note.objects.create(owner=self.owner, body="n")

    def kill(self) -> None:
        next(s for s in self.servers if s.name == VICTIM).alive = False

    def make_hot_contended(self) -> None:
        """Move the key into the adaptive strategy's lease band (the
        contention recipe of tests/adaptive/test_strategy.py)."""
        for _ in range(4):
            self.strategy.telemetry.note_cas_mismatch(self.key)
        self.clock.advance(1.5)
        for _ in range(6):
            self.clock.advance(0.1)
            self.read()
        assert self.strategy.band_for(self.key) == HERD_BAND

    def watch_yields(self):
        """Record this fleet's cache pauses for the ``with`` block."""
        def note(label: str) -> None:
            if label.startswith("cache:"):
                self.checkpoints.append(label)
        return hooks.subscribed(hooks.OnPause(note))

    def state(self) -> Dict[str, Any]:
        genie, queue = self.genie, self.genie.refresh_queue
        servers = list(self.servers)
        if self.gutter is not None:
            servers += self.gutter.servers
        # A completed refresh is the object's ``recomputations``.
        return {
            "object": self.cached.stats.as_dict(),
            "servers": {s.name: s.stats_dict() for s in servers},
            "gutter": self.gutter.counters() if self.gutter else None,
            "refresh queue": (queue.pending_keys(), queue.scheduled,
                              queue.coalesced),
        }

    def totals(self) -> Dict[str, float]:
        return self.genie.recorder.total.as_dict()

    def close(self) -> None:
        self.genie.deactivate()


# -- reads: evaluate() against evaluate_many() on a batch of one ----------------

def _read_hit(fleet: Fleet, strategy: str) -> None:
    fleet.read()


def _read_miss(fleet: Fleet, strategy: str) -> None:
    pass


def _read_stale(fleet: Fleet, strategy: str) -> None:
    fleet.read()
    if strategy == "adaptive":
        fleet.make_hot_contended()
    fleet.write()
    fleet.clock.advance(STRATEGIES[strategy].stale_after)


def _read_dead(fleet: Fleet, strategy: str) -> None:
    fleet.read()
    fleet.kill()


def _read_dead_gutter(fleet: Fleet, strategy: str) -> None:
    _read_dead(fleet, strategy)
    fleet.read()    # the miss populates the gutter, so this case hits it


#: name -> (preparation, whether a gutter pool is attached)
READ_STATES = {
    "hit": (_read_hit, False),
    "miss": (_read_miss, False),
    "stale": (_read_stale, False),
    "dead": (_read_dead, False),
    "dead-gutter": (_read_dead_gutter, True),
}


@pytest.mark.parametrize("state", READ_STATES)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_evaluate_is_evaluate_many_on_a_batch_of_one(strategy, state):
    prepare, with_gutter = READ_STATES[state]
    fleets = [Fleet(strategy, with_gutter=with_gutter) for _ in range(2)]
    try:
        single, batched = fleets
        assert single.key == batched.key
        for fleet in fleets:
            prepare(fleet, strategy)
        with single.watch_yields():
            value = single.read()
        with batched.watch_yields():
            assert value == evaluate_many(
                [(batched.cached, {"owner_id": batched.owner.pk})])[0]

        assert single.state() == batched.state()
        assert single.totals() == batched.totals()
        assert single.checkpoints == batched.checkpoints
        assert single.checkpoints
    finally:
        for fleet in fleets:
            fleet.close()


# -- eager invalidation against a one-key commit-time flush --------------------

def _invalidate_hit(fleet: Fleet, strategy: str) -> None:
    fleet.read()
    if strategy == "adaptive":
        fleet.make_hot_contended()


def _invalidate_miss(fleet: Fleet, strategy: str) -> None:
    _invalidate_hit(fleet, strategy)
    fleet.genie.app_cache.delete(fleet.key)


def _invalidate_dead(fleet: Fleet, strategy: str) -> None:
    _invalidate_hit(fleet, strategy)
    fleet.kill()


def _invalidate_dead_gutter(fleet: Fleet, strategy: str) -> None:
    _invalidate_dead(fleet, strategy)
    fleet.read()    # populates the gutter copy the write must drop


INVALIDATE_STATES = {
    "hit": (_invalidate_hit, False),
    "miss": (_invalidate_miss, False),
    "dead": (_invalidate_dead, False),
    "dead-gutter": (_invalidate_dead_gutter, True),
}


@pytest.mark.parametrize("state", INVALIDATE_STATES)
@pytest.mark.parametrize("strategy",
                         ["invalidate", "leased-invalidate", "adaptive"])
def test_eager_invalidation_is_a_one_key_flush(strategy, state):
    prepare, with_gutter = INVALIDATE_STATES[state]
    fleets = [Fleet(strategy, batch_trigger_ops=batched,
                    with_gutter=with_gutter) for batched in (False, True)]
    try:
        eager, flushed = fleets
        assert eager.key == flushed.key
        for fleet in fleets:
            prepare(fleet, strategy)
            with fleet.watch_yields():
                fleet.write()

        assert eager.state() == flushed.state()
        assert eager.totals() == flushed.totals()
        assert eager.checkpoints == flushed.checkpoints
        assert eager.checkpoints
    finally:
        for fleet in fleets:
            fleet.close()
