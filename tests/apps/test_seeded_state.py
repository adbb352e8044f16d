"""The state ``Scenario.setup()`` leaves behind, pinned.

Every replay golden depends on what seeding leaves in the engine — which heap
pages are resident decides ``pages_hit``/``pages_missed`` of the first
replayed pages — but fails far from the cause.  These pins fail *at* it: one
SHA-256 per seed scale over everything the INSERT path decides (assigned keys,
page placement, tree shape, buffer-pool state, the whole counter bag).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.apps.social import SeedScale
from repro.bench.scenarios import NO_CACHE, Scenario, ScenarioConfig

SCALES = {
    "tiny": SeedScale.tiny,
    "default": SeedScale,
    "paper_ratio(600)": lambda: SeedScale.paper_ratio(600),
}

#: Generated at commit ebe5bdc from the per-column insert path (one
#: ``coerce``/NOT NULL/width call per column per row, the recursive B+tree
#: insert, one ``record`` per index per row).  Regenerate only for a
#: deliberate change of what an INSERT stores, places or charges, through
#: ``tools/repin.py``; it re-pinned these when ``CostCounters`` lost six
#: single-key fields, which were zero in every counter bag hashed here.
GOLDEN_SEEDED_STATE = {
    "tiny": "e436831646b633b377c8fd61689cf9b737bde6edf38523f091cde2bc0e8a311d",
    "default": "913a64515052fa1583bb4617ebb8e79aa38484ecb056071a90944d7be2bf89f4",
    "paper_ratio(600)": "5bf4d719cd2ca6bcb676197e134abf7e1e3cee1cad61a9d7737e6ae080b88046",
}


def leaves_of(tree):
    """``[keys, sorted rowids per key]`` of every leaf, left to right."""
    node = tree._root
    while not node.is_leaf:
        node = node.children[0]
    leaves = []
    while node is not None:
        leaves.append([[repr(key) for key in node.keys],
                       [[posting] if tree.unique else list(posting)
                        for posting in node.values]])
        node = node.next
    return leaves


def live_rows(heap):
    """``(rowid, page_no, stored values)`` of every live row, by rowid."""
    return [(rowid, heap._pages[rowid], values)
            for rowid, values in enumerate(heap._values) if values is not None]


def seeded_state(scenario):
    database, pool = scenario.database, scenario.database.buffer_pool
    tables = {}
    for name in database.table_names():
        table, heap = database.table(name), database.table(name).heap
        tables[name] = {
            # repr(): timestamps are datetimes, and 1 / 1.0 / True must differ.
            "rows": [(rowid, page_no, repr(sorted(values.items())))
                     for rowid, page_no, values in live_rows(heap)],
            "page_free": list(heap._page_free),
            "page_rows": [list(rowids) for rowids in heap._page_rows],
            "next_pk": table._next_pk(),
            "indexes": {index.name: {"len": len(index.tree),
                                     "height": index.tree.height,
                                     "nulls": sorted(index.tree._null_bucket),
                                     "leaves": leaves_of(index.tree)}
                        for index in table.all_indexes()},
        }
    return {
        "summary": scenario.seed_summary.as_dict(),
        "tables": tables,
        "pool": {"resident_lru_order": [[table, page_no, dirty] for
                                        (table, page_no), dirty in pool._pages.items()],
                 "hits": pool.recorder.total.pages_hit,
                 "misses": pool.recorder.total.pages_missed,
                 "evictions": pool.evictions,
                 "dirty_writebacks": pool.dirty_writebacks},
        "counters": database.recorder.total.as_dict(),
    }


def seeded_state_at(scale):
    """The state ``GOLDEN_SEEDED_STATE[scale]`` is the digest of."""
    scenario = Scenario(ScenarioConfig(name=NO_CACHE,
                                       seed_scale=SCALES[scale]())).setup()
    try:
        return seeded_state(scenario)
    finally:
        scenario.teardown()


def state_digest(state):
    payload = json.dumps(state, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_seeded_state_matches_the_pin(scale):
    state = seeded_state_at(scale)
    assert state_digest(state) == GOLDEN_SEEDED_STATE[scale]
    # One INSERT a seeded row, and nothing else wrote.
    assert state["counters"]["inserts"] == sum(state["summary"].values())


def test_seeded_leaves_hold_row_ids_not_sets():
    """The compact layout: a unique index stores each key's bare row id, any
    other index one ascending list, and no leaf anywhere holds a ``set``."""
    scenario = Scenario(ScenarioConfig(
        name=NO_CACHE, seed_scale=SeedScale.paper_ratio(600))).setup()
    try:
        database = scenario.database
        for name in database.table_names():
            for index in database.table(name).all_indexes():
                index.tree.check_invariants()
                node = index.tree._root
                while not node.is_leaf:
                    node = node.children[0]
                while node is not None:
                    assert not any(isinstance(posting, set)
                                   for posting in node.values), index.name
                    node = node.next
    finally:
        scenario.teardown()
