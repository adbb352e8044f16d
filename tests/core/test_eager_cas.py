"""A trigger's CAS retries only a lost race, in both flush timings.

The eager mode is the trigger-op queue flushed right after each enqueued
operation, so a patch in either mode is the flush's ``gets_multi`` +
``cas_multi``.  A swap fails for two reasons: another writer changed the
entry since the read (a ``mismatch``: re-read and retry), or the server
refused the new value because it outgrew the item limit (``too-large``: no
retry can shrink it, so the key is invalidated at once).  The invalidation
fallback credits ``invalidations`` only for a removal.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core import CacheGenie
from repro.core.trigger_queue import CAS_MAX_RETRIES
from repro.memcache import CacheServer
from repro.memcache.server import CAS_MISMATCH
from repro.orm import CharField, ForeignKey, Model, Registry, TextField
from repro.storage import Database

ITEM_LIMIT = 3500
_COUNTER = itertools.count()


@pytest.fixture
def wall(request):
    """A cached wall (FeatureQuery rows) on a server with a small item
    limit, its trigger-op queue flushed per operation (the eager mode, the
    default here) or, with an indirect ``True`` parameter, at commit."""
    reg = Registry(f"eager-cas{next(_COUNTER)}")

    class Person(Model):
        name = CharField(max_length=40)

        class Meta:
            registry = reg

    class Wall(Model):
        person = ForeignKey(Person)
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
    round_trips = after["trigger_cache_batches"] - before["trigger_cache_batches"]

    assert cached.stats.cas_retries == 0
    assert cached.stats.invalidations == 1
    # gets_multi, cas_multi ("too-large"), delete_multi
    assert round_trips == 3


def test_a_lost_race_credits_only_a_removal(wall):
    genie, cached, Wall, person = wall
    app, trigger = genie.app_cache, genie.trigger_cache
    swap = trigger.cas_multi
    verdicts = []

    def racing_cas_multi(items):
        # A concurrent writer rewrites the entry before every swap, and
        # deletes it once the last swap has lost.
        (key,) = items
        app.set(key, app.get(key))
        verdicts.append(swap(items)[key])
        if len(verdicts) == CAS_MAX_RETRIES:
            app.delete(key)
        return {key: verdicts[-1]}

    trigger.cas_multi = racing_cas_multi
    try:
        Wall.objects.create(person=person, content="x")
    finally:
        del trigger.cas_multi
    assert verdicts == [CAS_MISMATCH] * CAS_MAX_RETRIES
    assert cached.stats.cas_retries == CAS_MAX_RETRIES
    assert genie.trigger_op_queue.cas_fallbacks == 1
    assert cached.stats.invalidations == 0   # the delete found nothing
    assert cached.peek(person_id=person.pk) is None
