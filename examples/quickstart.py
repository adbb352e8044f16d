#!/usr/bin/env python
"""Quickstart: declare models, add one ``cacheable`` line, and watch CacheGenie
keep memcached consistent through database triggers.

The declaration is queryset-native: you hand ``cacheable()`` the ORM query
you already write, with ``Param(...)`` marking the per-entry parameter, and
CacheGenie infers the cache class from the query's shape (here a plain
equality filter, so a FeatureQuery).  No strings to mistype — a bad field
name fails right at the declaration.

Run with::

    python examples/quickstart.py
"""

from repro.core import CacheGenie, Param
from repro.memcache import CacheServer
from repro.orm import CharField, ForeignKey, Model, Registry, TextField
from repro.storage import Database

# ---------------------------------------------------------------------------
# 1. Define models (the Django-substitute ORM) and bind them to a database.
# ---------------------------------------------------------------------------
registry = Registry("quickstart")


class User(Model):
    username = CharField(max_length=50, unique=True)

    class Meta:
        registry = registry


class Profile(Model):
    user = ForeignKey(User)
    about = TextField(null=True)

    class Meta:
        registry = registry


def main() -> None:
    database = Database()
    registry.bind(database)
    registry.create_all()

    # -----------------------------------------------------------------------
    # 2. Attach CacheGenie: one memcached-like server, transparent interception.
    # -----------------------------------------------------------------------
    genie = CacheGenie(registry=registry, database=database,
                       cache_servers=[CacheServer("cache0")]).activate()

    # The paper's example: cache each user's profile row, keyed by user_id.
    # The queryset IS the declaration; Param("user_id") marks the cache key.
    cached_user_profile = genie.cacheable(
        Profile.objects.filter(user_id=Param("user_id")),
        update_strategy="update-in-place",
        use_transparently=True,
    )
    print("inferred cache class:", type(cached_user_profile).__name__)

    # -----------------------------------------------------------------------
    # 3. Use the ORM exactly as before — no cache-management code anywhere.
    # -----------------------------------------------------------------------
    alice = User.objects.create(username="alice")
    Profile.objects.create(user=alice, about="hello from the quickstart")

    profile = Profile.objects.get(user_id=alice.pk)     # miss -> database, fills cache
    print("first read (from the database):", profile.about)

    profile = Profile.objects.get(user_id=alice.pk)     # hit -> memcached
    print("second read (from the cache):  ", profile.about)

    # Writes go straight to the database; the generated trigger updates the
    # cached entry in place, so the next read sees fresh data from the cache.
    Profile.objects.filter(user_id=alice.pk).update(about="updated through a trigger")
    profile = Profile.objects.get(user_id=alice.pk)
    print("after the write (cache, fresh):", profile.about)

    stats = cached_user_profile.stats
    print(f"\ncache hits={stats.cache_hits} misses={stats.cache_misses} "
          f"in-place updates={stats.updates_applied}")
    print(f"generated triggers: {genie.trigger_count} "
          f"({genie.generated_trigger_lines} lines of trigger code)")

    genie.deactivate()


if __name__ == "__main__":
    main()
