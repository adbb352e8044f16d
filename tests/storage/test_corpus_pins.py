"""What SQL cannot check about the statement and insert paths, pinned.

sqlite (``test_sql_mirror.py``) checks what a statement means, not what the
engine charges or how it stores.  Those are hashed here, over a corpus of the
same scripts drawn from seeded ``random.Random`` streams:

* per statement: its answer in the engine's own order (the rows a LIMIT
  keeps among ties, the row DISTINCT keeps), the **whole** counter bag in the
  scope active when it ran *and* in the scope a trigger switched to, the way
  a worker hand-off does, and the buffer pool's hits, misses and evictions;
* after each INSERT or index build, also: the stored rows, their row ids and
  pages, every page's free bytes, the next automatic key, every index tree
  node for node, the resident pages and the running counter total.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest

from repro.errors import ColumnNotFoundError, ConstraintViolation, SchemaError
from repro.storage import BPlusTree, Database
from repro.storage.costmodel import CostCounters
from tests.sqlmirror import stored_rows
from tests.storage.scripts import (TABLES, build_insert_db, build_statement_db,
                                   insert_script, run_statement,
                                   statement_script)

CORPUS = {"statement path": 300, "insert path": 400}

#: Generated at commit 248fe87, where the per-row statement executor and the
#: per-column insert path the engine replaced still agreed with it on every
#: script (707 statements, 3 628 inserts and index builds).  Regenerate only
#: for a deliberate change of what a statement returns, charges or stores,
#: through ``tools/repin.py``; it re-pinned these when ``CostCounters`` lost
#: six single-key fields, which were zero in every counter bag hashed here.
GOLDEN_CORPUS = {
    "statement path": "b58cf68004c29c010aa5d52998b0a230167dbba144597bd254f472c4c803658a",
    "insert path": "815a96f7d35a5e0fc57aec3aa6a2a6003dd8ccd42dcbf95ecd5c48f29273e748",
}


def charged(db: Database, scopes, call):
    """Run ``call``; return its outcome (or the refusal's type and message)
    and everything it charged: both counter scopes and the pool's deltas."""
    own, handed_off = CostCounters(), CostCounters()
    pool, total = db.buffer_pool, db.recorder.total
    before = (total.pages_hit, total.pages_missed, pool.evictions)
    scopes["handed_off"] = handed_off
    outer = db.recorder.activate_scope(own)
    try:
        outcome = call()
    except Exception as exc:  # the outcome under test: type and message
        outcome = (type(exc).__name__, str(exc))
    finally:
        db.recorder.activate_scope(outer)
    return (outcome, own.as_dict(), handed_off.as_dict(),
            (total.pages_hit - before[0], total.pages_missed - before[1],
             pool.evictions - before[2]))


def hand_off(db: Database, scopes, events):
    """Triggers that switch the recorder's scope, as a worker hand-off does:
    anything charged after one fired lands in ``handed_off``."""
    for table, event in events:
        db.create_trigger(f"handoff_{table}_{event}", table, event,
                          lambda _data: db.recorder.activate_scope(
                              scopes["handed_off"]))


def statement_trace(seed: int):
    rows_by_table, statements = statement_script(random.Random(seed).choice)
    db, scopes = build_statement_db(rows_by_table), {}
    hand_off(db, scopes, itertools.product(TABLES, ("update", "delete")))
    trace = [charged(db, scopes, lambda: run_statement(db, statement))
             for statement in statements]
    return trace, {name: stored_rows(db, name) for name in TABLES}


def dump_tree(tree: BPlusTree):
    """The tree node for node, plus the leaf chain as it is linked."""
    def dump(node):
        if node.is_leaf:
            return ("leaf", list(node.keys),
                    [[posting] if tree.unique else list(posting)
                     for posting in node.values])
        return ("internal", list(node.keys),
                [dump(child) for child in node.children])
    leaf = tree._root
    while not leaf.is_leaf:
        leaf = leaf.children[0]
    chain = []
    while leaf is not None:
        chain.append(list(leaf.keys))
        leaf = leaf.next
    return (dump(tree._root), chain, sorted(tree._null_bucket), len(tree),
            tree.height, tree.node_touches)


def dump_table(db: Database):
    table = db.table("t")
    heap = table.heap
    counter = next(table._pk_counter)
    table._pk_counter = itertools.count(counter)     # peeked, not consumed
    return {
        "rows": [(rowid, (heap._pages[rowid], values))
                 for rowid, values in enumerate(heap._values) if values is not None],
        "page_free": list(heap._page_free),
        "page_rows": [list(rowids) for rowids in heap._page_rows],
        "next_rowid": len(heap._values),
        "next_pk": counter,
        "indexes": {index.name: dump_tree(index.tree)
                    for index in table.all_indexes()},
        "declared": [definition.name for definition in table.schema.indexes],
        "resident": list(db.buffer_pool._pages.items()),
        "total": db.recorder.total.as_dict(),
    }


def insert_trace(seed: int):
    specs, indexes, steps = insert_script(random.Random(seed).choice)
    db, scopes = build_insert_db(specs, indexes), {}
    hand_off(db, scopes, [("t", "insert")])
    return [(charged(db, scopes, lambda: db.insert("t", dict(argument))
                     if kind == "insert" else db.create_index("t", argument)),
             dump_table(db)) for kind, argument in steps]


TRACES = {"statement path": statement_trace, "insert path": insert_trace}


def corpus_traces(path: str):
    """Every script's trace: what ``GOLDEN_CORPUS[path]`` is the digest of."""
    return [TRACES[path](seed) for seed in range(CORPUS[path])]


def traces_digest(traces) -> str:
    payload = json.dumps(traces, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("path", sorted(GOLDEN_CORPUS))
def test_corpus_matches_the_pin(path):
    assert traces_digest(corpus_traces(path)) == GOLDEN_CORPUS[path]


# ---------------------------------------------------------------------------
# The insert failures by name, so that a reader finds each without a corpus.
# ---------------------------------------------------------------------------

SPECS = [("a", "integer", None, False, "none", None),
         ("b", "text", 12, True, "literal", "bb"),
         ("c", "integer", None, True, "callable", None)]
INDEXES = [(("a",), True), (("c",), True), (("a", "id"), False)]


@pytest.mark.parametrize("row, error, message", [
    ({"a": 1, "nope": 2}, ColumnNotFoundError, "table 't' has no column 'nope'"),
    ({"a": "x"}, SchemaError, "expected integer, got 'x'"),
    ({"a": True}, SchemaError, "expected integer, got boolean True"),
    ({"a": 1, "b": "c" * 13}, SchemaError,
     "text value of length 13 exceeds max_length=12"),
    ({"b": "bb"}, ConstraintViolation, "column 'a' of table 't' may not be NULL"),
    ({"a": 5, "id": 1}, ConstraintViolation, "duplicate key 1 in unique index"),
    ({"a": 7, "c": 9}, ConstraintViolation, "duplicate key 7 in unique index"),
    ({"a": 5, "c": 1}, ConstraintViolation, "duplicate key 1 in unique index"),
])
def test_each_failure_keeps_its_type_message_and_leaves_no_trace(row, error, message):
    db = build_insert_db(SPECS, INDEXES)
    assert db.insert("t", {"a": 7})["c"] == 0           # c: the factory
    assert db.insert("t", {"a": 8})["c"] == 1
    before = dump_table(db)
    with pytest.raises(error) as caught:
        db.insert("t", dict(row))
    assert str(caught.value) == message
    after = dump_table(db)
    # Whatever a refused row touched was rolled back; the burnt row id, key
    # and default-factory call, the page accesses and the charges remain.
    assert after["rows"] == before["rows"]
    assert [tree[:4] for tree in after["indexes"].values()] == \
           [tree[:4] for tree in before["indexes"].values()]
