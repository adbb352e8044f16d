"""A restored seeding is the seeding.

``seed_database`` seeds through the ORM once per key and restores a
snapshot into the live tables on every later call.  These tests hold the two
paths equal on everything the engine keeps — rows and the identity of their
keys, tree shapes, postings, node touches, NULL buckets, the primary-key and
transaction counters, the buffer pool's LRU order and dirty flags, the
recorder totals and the returned summary — and guard the memo's key, its
memory and its refusal to restore over data.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.apps.social import SeedScale, seed, social_registry
from repro.apps.social.models import User
from repro.errors import StorageError
from repro.storage import Database, Eq

SCALES = {
    "tiny": SeedScale.tiny,
    "default": SeedScale,
    "paper_ratio(600)": lambda: SeedScale.paper_ratio(600),
}

#: The buffer pools the callers seed into: ``Scenario`` and the test fixtures.
CAPACITIES = (64, 128)


@pytest.fixture
def memo(monkeypatch):
    """An empty snapshot memo: the next seeding of any key is a fresh one."""
    fresh = {}
    monkeypatch.setattr(seed, "_SEEDED", fresh)
    yield fresh
    social_registry.unbind()


def bound_database(capacity):
    database = Database(name="snapshot", buffer_pool_pages=capacity)
    social_registry.unbind()
    social_registry.bind(database)
    social_registry.create_all()
    return database


def seeded(scale, capacity):
    database = bound_database(capacity)
    return database, seed.seed_database(scale)


def node_state(node):
    if node.is_leaf:
        return ["leaf", list(node.keys), list(node.values)]
    return ["internal", list(node.keys), [node_state(child) for child in node.children]]


def tree_state(tree):
    """Shape, keys and postings by descent; the leaf chain must list the
    same leaves in the same order.  Reads no node through the counted paths."""
    descended, stack = [], [tree._root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            descended.append(node)
        else:
            stack.extend(reversed(node.children))
    chained, leaf = [], descended[0]
    while leaf is not None:
        chained.append(leaf)
        leaf = leaf.next
    assert chained == descended
    return {"root": node_state(tree._root), "node_touches": tree.node_touches,
            "size": tree._size, "nulls": list(tree._null_bucket)}


def database_state(database):
    """Everything a seeding leaves, read off the live objects; consumes one
    primary key per table and one transaction id."""
    tables = {}
    for name in database.table_names():
        table = database.table(name)
        heap = table.heap
        columns = table.schema.column_names
        for values in heap._values:
            if values is not None:
                assert all(key is column for key, column in zip(values, columns, strict=True))
        tables[name] = {
            "rows": list(heap._values), "pages": list(heap._pages), "live": heap._live,
            "page_free": list(heap._page_free), "page_rows": [list(r) for r in heap._page_rows],
            "next_pk": table._next_pk(),
            "trees": {index.name: tree_state(index.tree) for index in table.all_indexes()},
        }
    pool, transactions = database.buffer_pool, database.transactions
    return {
        "tables": tables,
        "pool": [list(pool._pages.items()), pool.evictions, pool.dirty_writebacks],
        "transactions": [next(transactions._tid_counter), transactions.committed,
                         transactions.aborted],
        "totals": database.recorder.total.as_dict(),
    }


@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("scale", sorted(SCALES))
def test_a_restored_seeding_equals_a_fresh_one(memo, scale, capacity):
    fresh, fresh_summary = seeded(SCALES[scale](), capacity)
    assert len(memo) == 1
    restored, restored_summary = seeded(SCALES[scale](), capacity)
    assert restored_summary == fresh_summary
    assert restored_summary is not fresh_summary
    assert database_state(restored) == database_state(fresh)


def test_a_restored_database_owns_its_data(memo):
    """Writes into one restored database reach neither the snapshot nor the
    summary: the next restore is still the fresh seeding."""
    scale = SeedScale.tiny()
    fresh, summary = seeded(scale, 128)
    expected = database_state(fresh)
    written, written_summary = seeded(scale, 128)
    written_summary.users = -1
    written.insert("auth_user", {"username": "late", "date_joined": 1.0})
    written.update("auth_user", {"email": "x@example.com"}, Eq("id", 3))
    written.delete("friends_friendship", Eq("from_user_id", 2))
    User.objects.get(id=5).delete()
    written.insert("bookmarks_bookmark", {"url": "u", "added": 2.0, "adder_id": None})
    written.begin()
    written.insert("auth_user", {"username": "undone", "date_joined": 3.0})
    written.abort()
    written_state = database_state(written)
    assert written_state != expected
    again, again_summary = seeded(scale, 128)
    assert again_summary == summary
    assert database_state(again) == expected

    # The storage pair alone round-trips what the writes left: node touches,
    # a NULL key, an aborted transaction, the moved counters.
    copy = bound_database(128)
    copy.restore(written.snapshot())
    copied_state = database_state(copy)
    assert copied_state == database_state(written)
    trees = copied_state["tables"]["bookmarks_bookmark"]["trees"].values()
    assert any(tree["nulls"] for tree in trees)
    assert copied_state["transactions"][2] == 1
    assert written_state["tables"]["friends_friendship"]["trees"] != \
        expected["tables"]["friends_friendship"]["trees"]


def test_a_restore_allocates_no_more_than_a_seeding(memo):
    """The restored rows, trees and lists take what seeded ones take.  The
    slack is for the foreign-key ints a seeding shares across tables with the
    users' primary keys, which a per-table snapshot holds once per table
    (+0.7 % at ``paper_ratio(600)``; the exact-size restored lists make up
    for it at this scale)."""
    scale = SeedScale()
    seeded(scale, 64)
    (snapshot, _), = memo.values()

    def allocated(fill):
        database = bound_database(64)
        gc.collect()
        tracemalloc.start()
        try:
            fill(database)
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    by_seeding = allocated(lambda database: seed._seed(scale))
    by_restore = allocated(lambda database: database.restore(snapshot))
    assert by_restore <= by_seeding * 1.01


@pytest.mark.parametrize("remembered", [False, True], ids=["seeding", "restore"])
def test_seeding_refuses_a_database_in_use(memo, remembered):
    if remembered:
        seeded(SeedScale.tiny(), 128)
    database = bound_database(128)
    database.insert("auth_user", {"username": "first", "date_joined": 1.0})
    with pytest.raises(StorageError, match="in use"):
        seed.seed_database(SeedScale.tiny())
    assert database.table("auth_user").heap.row_count == 1


def test_seeding_reads_no_clock(memo, monkeypatch):
    """The key holds no clock: neither path asks the registry for the time."""
    def no_clock():
        raise AssertionError("seeding read the clock")

    monkeypatch.setattr(social_registry, "clock", no_clock)
    fresh, summary = seeded(SeedScale.tiny(), 128)
    restored, restored_summary = seeded(SeedScale.tiny(), 128)
    assert restored_summary == summary
    assert database_state(restored) == database_state(fresh)


def test_capacities_never_share_a_snapshot(memo):
    scale = SeedScale()
    for capacity in CAPACITIES:
        seeded(scale, capacity)
    assert sorted(key[1] for key in memo) == list(CAPACITIES)
    small, _ = seeded(scale, 64)
    assert len(small.buffer_pool._pages) == 64
