"""Property-based invariants for Top-K and Count cached objects.

These drive a cached object with random insert/delete/update sequences and
assert, after every step, that the cached value equals the value recomputed
from the database — the paper's "dirty but never stale" guarantee applied to
the two cache classes whose incremental maintenance is most intricate — with
the trigger-op queue flushed at commit and per operation.  A Top-K tie is
held to the database's order: primary key ascending.
"""

import itertools

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import CacheGenie
from repro.memcache import CacheServer
from repro.orm import FloatField, ForeignKey, IntegerField, Model, Registry, CharField
from repro.storage import Database

from tests.helpers import database_rows

_IDS = itertools.count()


def build_stack(batch_trigger_ops):
    reg = Registry(f"invariant{next(_IDS)}")

    class Owner(Model):
        name = CharField(max_length=20)

        class Meta:
            registry = reg

    class Entry(Model):
        owner = ForeignKey(Owner)
        score = FloatField(default=0.0, db_index=True)
        group = IntegerField(default=0)

        class Meta:
            registry = reg

    database = Database(buffer_pool_pages=256)
    reg.bind(database)
    reg.create_all()
    genie = CacheGenie(registry=reg, database=database,
                       cache_servers=[CacheServer("inv-cache", capacity_bytes=2 ** 22)],
                       batch_trigger_ops=batch_trigger_ops).activate()
    return reg, genie, Owner, Entry


#: One workload step: (operation, owner index, score value).
steps = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "update", "read"]),
              st.integers(0, 2),
              st.floats(min_value=0.0, max_value=100.0, allow_nan=False)),
    min_size=5, max_size=40,
)


class TestTopKAndCountInvariants:
    @pytest.mark.parametrize("batch_trigger_ops", [True, False],
                             ids=["at-commit", "per-operation"])
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow],
              **({} if settings.get_current_profile_name() == "deep"
                 else {"max_examples": 15}))
    @given(sequence=steps)
    # Owner 2 holds two rows tied at 0.0, cached as ids [2, 3]; a no-op
    # update of row 2 must leave it before row 3, where the database has it.
    @example(sequence=[("insert", 0, 0.0), ("insert", 2, 0.0),
                       ("insert", 2, 0.0), ("read", 2, 0.0),
                       ("update", 2, 0.0)])
    # Owner 0 scores 20, 30, 60, 50, 40, 10 (a delete or an update takes
    # the lowest id): the read caches the top five; deleting 20 and 30
    # leaves [60, 50, 40], exactly k.  Moving the 60 to 0.0, or inserting a
    # 5 and deleting the 60, lands a row after the last one cached while the
    # database holds the 10 the list never did: it must not show [50, 40, 0]
    # or [50, 40, 5].
    @example(sequence=[("insert", 0, 20.0), ("insert", 0, 30.0),
                       ("insert", 0, 60.0), ("insert", 0, 50.0),
                       ("insert", 0, 40.0), ("insert", 0, 10.0),
                       ("read", 0, 0.0), ("delete", 0, 0.0),
                       ("delete", 0, 0.0), ("update", 0, 0.0)])
    @example(sequence=[("insert", 0, 20.0), ("insert", 0, 30.0),
                       ("insert", 0, 60.0), ("insert", 0, 50.0),
                       ("insert", 0, 40.0), ("insert", 0, 10.0),
                       ("read", 0, 0.0), ("delete", 0, 0.0),
                       ("delete", 0, 0.0), ("insert", 0, 5.0),
                       ("delete", 0, 0.0)])
    def test_cached_values_match_database_after_every_write(
            self, batch_trigger_ops, sequence):
        reg, genie, Owner, Entry = build_stack(batch_trigger_ops)
        try:
            owners = [Owner.objects.create(name=f"o{i}") for i in range(3)]
            topk = genie.cacheable(cache_class_type="TopKQuery", name="topk",
                                   main_model="Entry", where_fields=["owner_id"],
                                   sort_field="score", sort_order="descending",
                                   k=3, reserve=2, use_transparently=False)
            count = genie.cacheable(cache_class_type="CountQuery", name="count",
                                    main_model="Entry", where_fields=["owner_id"],
                                    use_transparently=False)
            for op, owner_idx, score in sequence:
                owner = owners[owner_idx]
                if op == "insert":
                    Entry.objects.create(owner=owner, score=score)
                elif op == "delete":
                    victim = Entry.objects.filter(owner_id=owner.pk).first()
                    if victim is not None:
                        Entry.objects.filter(id=victim.pk).delete()
                elif op == "update":
                    victim = Entry.objects.filter(owner_id=owner.pk).first()
                    if victim is not None:
                        Entry.objects.filter(id=victim.pk).update(score=score)
                else:
                    topk.evaluate(owner_id=owner.pk)
                    count.evaluate(owner_id=owner.pk)

                # Invariant: any cached value equals the database truth.
                for check_owner in owners:
                    truth = database_rows(Entry, owner_id=check_owner.pk)
                    truth.sort(key=lambda r: r["score"], reverse=True)

                    cached_top = topk.peek(owner_id=check_owner.pk)
                    if cached_top is not None:
                        k = min(topk.k, len(truth))
                        assert [r["id"] for r in cached_top[:k]] == \
                            [r["id"] for r in truth[:k]]

                    cached_count = count.peek(owner_id=check_owner.pk)
                    if cached_count is not None:
                        assert cached_count == len(truth)
        finally:
            genie.deactivate()
