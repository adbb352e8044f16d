"""The eager trigger path's CAS loop retries only a lost race.

A ``cas`` fails for two reasons: another writer changed the entry since the
``gets`` (a race: re-read and retry), or the server refused the new value
because it outgrew the item limit (no retry can shrink it).  The loop tells
them apart by its re-read: an unchanged CAS token means nothing raced.  Its
invalidation fallback credits ``invalidations`` only for a removal, as the
commit-time flush's fallback does.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core import CacheGenie
from repro.core.cache_classes.base import CAS_MAX_RETRIES
from repro.memcache import CacheServer
from repro.orm import CharField, ForeignKey, Model, Registry, TextField
from repro.storage import Database

ITEM_LIMIT = 3500
_COUNTER = itertools.count()


@pytest.fixture
def wall(request):
    """A cached wall (FeatureQuery rows) on a server with a small item
    limit, propagated eagerly (the default) or, with an indirect ``True``
    parameter, by the commit-time flush."""
    reg = Registry(f"eager-cas{next(_COUNTER)}")

    class Person(Model):
        name = CharField(max_length=40)

        class Meta:
            registry = reg

    class Wall(Model):
        person = ForeignKey(Person, related_name="wall_posts")
        content = TextField()

        class Meta:
            registry = reg

    database = Database(buffer_pool_pages=128)
    reg.bind(database)
    reg.create_all()
    genie = CacheGenie(
        registry=reg, database=database,
        cache_servers=[CacheServer("cas-cache", max_item_bytes=ITEM_LIMIT)],
        batch_trigger_ops=getattr(request, "param", False)).activate()
    cached = genie.cacheable(cache_class_type="FeatureQuery",
                             main_model="Wall", where_fields=["person_id"],
                             name="wall_rows")
    person = Person.objects.create(name="p")
    assert cached.evaluate(person_id=person.pk) == []
    yield genie, cached, Wall, person
    genie.deactivate()


@pytest.mark.parametrize("wall", [False, True], ids=["eager", "flush"],
                         indirect=True)
def test_an_oversized_patch_is_invalidated_without_retries(wall):
    genie, cached, Wall, person = wall
    for i in range(64):
        before = genie.recorder.total.as_dict()
        # Distinct strings: the value's pickled size must grow per post.
        Wall.objects.create(person=person, content=f"{i:03d}" + "x" * 300)
        after = genie.recorder.total.as_dict()
        if cached.peek(person_id=person.pk) is None:
            break
    else:
        pytest.fail("the cached wall never outgrew the item limit")
    round_trips = {event: after[event] - before[event]
                   for event in ("trigger_cache_ops", "trigger_cache_batches")}

    assert cached.stats.cas_retries == 0
    assert cached.stats.invalidations == 1
    if genie.batch_trigger_ops:
        # gets_multi, cas_multi ("too-large"), delete_multi
        assert round_trips == {"trigger_cache_ops": 0,
                               "trigger_cache_batches": 3}
    else:
        # gets, cas (refused), gets (same token: nothing raced), delete
        assert round_trips == {"trigger_cache_ops": 4,
                               "trigger_cache_batches": 0}


def test_a_lost_race_credits_only_a_removal(wall):
    genie, cached, Wall, person = wall
    app, trigger = genie.app_cache, genie.trigger_cache
    swap = trigger.cas
    verdicts = []

    def racing_cas(key, value, token, expire=None):
        # A concurrent writer rewrites the entry before every swap, and
        # deletes it once the last swap has lost.
        app.set(key, app.get(key))
        verdicts.append(swap(key, value, token, expire))
        if len(verdicts) == CAS_MAX_RETRIES:
            app.delete(key)
        return verdicts[-1]

    trigger.cas = racing_cas
    try:
        Wall.objects.create(person=person, content="x")
    finally:
        del trigger.cas
    assert verdicts == [False] * CAS_MAX_RETRIES
    assert cached.stats.cas_retries == CAS_MAX_RETRIES
    assert cached.stats.invalidations == 0   # the delete found nothing
    assert cached.peek(person_id=person.pk) is None
