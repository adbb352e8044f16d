"""Property-based invariants for LinkQuery cached objects.

The two join shapes the social app declares, a user's friends and the
bookmarks saved by a user's friends (newest first), are driven by random
friendship and bookmark inserts and deletes, a friendship edge written twice
included.  After every write each cached value must equal its database
recompute as a multiset: the join returns a row once per path that reaches
it, so a friend's bookmark shows twice behind a doubled edge, and the
trigger-maintained value must too.  Both flush timings of the trigger-op
queue are run.

One explicit case pins *when* a delta is read: a transaction that adds the
edge A→B and then a bookmark of B.  The edge's delta, read when its trigger
fires, does not see the bookmark; the bookmark's own delta reaches A through
the new edge.  Read at the flush instead, the edge's delta would see the
bookmark too and A's list would show it twice.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import CacheGenie
from repro.memcache import CacheServer
from repro.orm import (CharField, FloatField, ForeignKey, Model, Param,
                       Registry)
from repro.storage import Database

_IDS = itertools.count()

#: People in every run; ids 1..PEOPLE.
PEOPLE = 4


def build_stack(batch_trigger_ops):
    reg = Registry(f"link-invariant{next(_IDS)}")

    class Person(Model):
        name = CharField(max_length=20)

        class Meta:
            registry = reg

    class Friendship(Model):
        from_user = ForeignKey(Person)
        to_user = ForeignKey(Person)

        class Meta:
            registry = reg

    class BookmarkInstance(Model):
        user = ForeignKey(Person)
        added = FloatField(default=0.0, db_index=True)

        class Meta:
            registry = reg

    database = Database(buffer_pool_pages=256)
    reg.bind(database)
    reg.create_all()
    genie = CacheGenie(registry=reg, database=database,
                       cache_servers=[CacheServer("link-cache",
                                                  capacity_bytes=2 ** 22)],
                       batch_trigger_ops=batch_trigger_ops).activate()
    edges = Friendship.objects.filter(from_user_id=Param("from_user_id"))
    objects = [
        genie.cacheable(edges.through("to_user"), name="friends_of_user",
                        use_transparently=False),
        genie.cacheable(edges.through("to_user",
                                      ("reverse", "BookmarkInstance", "user"))
                        .order_by("-added"),
                        name="friend_bookmarks", use_transparently=False),
    ]
    people = [Person.objects.create(name=f"p{i}") for i in range(PEOPLE)]
    return database, genie, objects, people, Friendship, BookmarkInstance


def bag(rows):
    return Counter(tuple(sorted(dict(row).items())) for row in rows)


def assert_cached_values_match(objects, people):
    for cached in objects:
        for person in people:
            value = cached.peek(from_user_id=person.pk)
            if value is not None:
                fresh = cached.compute_from_db({"from_user_id": person.pk})
                assert bag(value) == bag(fresh), (cached.name, person.pk)


#: One step: (operation, person index, other person index, timestamp).
steps = st.lists(
    st.tuples(st.sampled_from(["edge", "unedge", "save", "unsave",
                               "edge+save", "read"]),
              st.integers(0, PEOPLE - 1), st.integers(0, PEOPLE - 1),
              st.sampled_from([1.0, 2.0, 3.0])),
    min_size=5, max_size=30,
)


class TestLinkInvariants:
    @pytest.mark.parametrize("batch_trigger_ops", [True, False],
                             ids=["at-commit", "per-operation"])
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow],
              **({} if settings.get_current_profile_name() == "deep"
                 else {"max_examples": 8}))
    @given(sequence=steps)
    # The edge 0→1 twice, then a bookmark of person 1: it shows twice.
    @example(sequence=[("read", 0, 0, 1.0), ("edge", 0, 1, 1.0),
                       ("edge", 0, 1, 1.0), ("save", 1, 0, 2.0),
                       ("unedge", 0, 1, 1.0), ("unsave", 1, 0, 1.0)])
    def test_cached_values_match_database_after_every_write(
            self, batch_trigger_ops, sequence):
        database, genie, objects, people, Friendship, BookmarkInstance = \
            build_stack(batch_trigger_ops)
        try:
            for op, a, b, added in sequence:
                source, target = people[a], people[b]
                if op == "edge":
                    Friendship.objects.create(from_user=source, to_user=target)
                elif op == "unedge":
                    edge = Friendship.objects.filter(
                        from_user_id=source.pk, to_user_id=target.pk).first()
                    if edge is not None:
                        Friendship.objects.filter(id=edge.pk).delete()
                elif op == "save":
                    BookmarkInstance.objects.create(user=source, added=added)
                elif op == "unsave":
                    saved = BookmarkInstance.objects.filter(
                        user_id=source.pk).first()
                    if saved is not None:
                        BookmarkInstance.objects.filter(id=saved.pk).delete()
                elif op == "edge+save":
                    with database.transaction():
                        Friendship.objects.create(from_user=source,
                                                  to_user=target)
                        BookmarkInstance.objects.create(user=target,
                                                        added=added)
                else:
                    for cached in objects:
                        cached.evaluate(from_user_id=source.pk)
                assert_cached_values_match(objects, people)
        finally:
            genie.deactivate()

    @pytest.mark.parametrize("batch_trigger_ops", [True, False],
                             ids=["at-commit", "per-operation"])
    def test_a_delta_is_read_when_its_trigger_fires(self, batch_trigger_ops):
        database, genie, objects, people, Friendship, BookmarkInstance = \
            build_stack(batch_trigger_ops)
        try:
            friend_bookmarks = objects[1]
            a, b = people[0], people[1]
            assert friend_bookmarks.evaluate(from_user_id=a.pk) == []
            with database.transaction():
                Friendship.objects.create(from_user=a, to_user=b)
                saved = BookmarkInstance.objects.create(user=b, added=5.0)
            shown = friend_bookmarks.peek(from_user_id=a.pk)
            assert [row["id"] for row in shown] == [saved.pk]
            assert friend_bookmarks.stats.recomputations == 0
            assert_cached_values_match(objects, people)
        finally:
            genie.deactivate()
