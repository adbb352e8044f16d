#!/usr/bin/env python
"""Comparing consistency strategies, plus the §3.3 serializability extension.

Part 1 runs the same write-then-read sequence under all five registered
:class:`~repro.core.ConsistencyStrategy` objects — the paper's three
(update-in-place, invalidate, expiry) plus leased invalidation and
async-refresh — and prints what each one does to the cache.  A virtual
clock drives the time-based strategies so lease windows and freshness
deadlines visibly elapse.

Part 2 demonstrates the full-consistency extension sketched in §3.3: two
transactions contend on a cached key under two-phase locking, one blocks,
and a deadlock is detected and broken.

Run with::

    python examples/consistency_strategies.py
"""

from repro.core import (AsyncRefreshStrategy, CacheGenie,
                        LeasedInvalidateStrategy, Param,
                        TransactionalCacheSession, TwoPhaseLockingCoordinator,
                        WouldBlock)
from repro.errors import DeadlockError
from repro.memcache import CacheClient, CacheServer
from repro.orm import CharField, ForeignKey, IntegerField, Model, Registry
from repro.sim import VirtualClock
from repro.storage import Database

registry = Registry("strategies")


class Player(Model):
    name = CharField(max_length=40)

    class Meta:
        registry = registry


class Score(Model):
    player = ForeignKey(Player)
    points = IntegerField(default=0)

    class Meta:
        registry = registry


def compare_strategies() -> None:
    clock = VirtualClock()
    database = Database()
    registry.bind(database)
    registry.create_all()
    genie = CacheGenie(registry=registry, database=database,
                       cache_servers=[CacheServer("cache0", clock=clock)]
                       ).activate()

    players = [Player.objects.create(name=f"player{i}") for i in range(3)]
    for player in players:
        for points in (10, 20, 30):
            Score.objects.create(player=player, points=points)

    # Strategies are first-class objects resolved through a registry:
    # legacy names still work, and instances carry their own windows.
    strategies = ("update-in-place", "invalidate",
                  LeasedInvalidateStrategy(lease_seconds=5.0),
                  AsyncRefreshStrategy(refresh_seconds=0.5),
                  "expiry")
    print("strategy comparison (cached count of a player's scores)\n")
    for strategy in strategies:
        # All declarations share one query shape (the count of a player's
        # scores), and CacheGenie rejects two live cached objects with the
        # same shape — so each strategy's object is removed before the next
        # one is declared.
        label = strategy if isinstance(strategy, str) else strategy.name
        options = {"expiry_seconds": 60} if strategy == "expiry" else {}
        cached = genie.cacheable(
            Score.objects.filter(player_id=Param("player_id")).count(),
            name=f"score_count_{label}",
            update_strategy=strategy,
            use_transparently=False, **options)
        player = players[0]
        before = cached.evaluate(player_id=player.pk)
        Score.objects.create(player=player, points=99)          # a write
        clock.advance(1.0)  # time passes: async-refresh entries go stale
        in_cache = cached.peek(player_id=player.pk)
        after = cached.evaluate(player_id=player.pk)
        served_stale = cached.stats.stale_served > 0
        print(f"  {label:18s} cached-before={before}  "
              f"cache-entry-after-write={in_cache!r}  next-read={after}"
              f"{'  (served stale, refreshing in background)' if served_stale else ''}")
        Score.objects.filter(player_id=player.pk, points=99).delete()
        genie.remove_cached_object(cached.name)

    print("\n(update-in-place keeps the entry fresh; invalidate drops it so the\n"
          " next read recomputes; leased invalidation serves the retained stale\n"
          " value while one reader refreshes; async-refresh serves stale past its\n"
          " freshness deadline and refreshes in the background; expiry leaves it\n"
          " stale until the TTL fires.)")
    genie.deactivate()


def demonstrate_two_phase_locking() -> None:
    print("\n§3.3 extension: two-phase locking over cache keys\n")
    coordinator = TwoPhaseLockingCoordinator()
    cache = CacheClient([CacheServer("txn-cache")])
    cache.set("profile:42", {"name": "alice"})

    writer = TransactionalCacheSession(coordinator, cache)
    reader = TransactionalCacheSession(coordinator, cache)

    writer.set("profile:42", {"name": "alice (edited)"})
    try:
        reader.get("profile:42")
    except WouldBlock as exc:
        print(f"  reader blocked: {exc}")
    writer.commit()
    print(f"  after writer commits, reader sees: {reader.get('profile:42')}")
    reader.commit()

    # Deadlock: two transactions lock keys in opposite orders.
    t1 = TransactionalCacheSession(coordinator, cache)
    t2 = TransactionalCacheSession(coordinator, cache)
    t1.set("key:a", 1)
    t2.set("key:b", 2)
    try:
        t1.set("key:b", 1)
    except WouldBlock:
        print("  t1 waits for t2 on key:b")
    try:
        t2.set("key:a", 2)
    except DeadlockError as exc:
        print(f"  deadlock detected and broken: {exc}")
        t2.abort()
    t1.commit()


if __name__ == "__main__":
    compare_strategies()
    demonstrate_two_phase_locking()
