"""Tests for the B+Tree index, including its layout checked against a
reference dict of row ids over random operations (``hypothesis``)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import BPlusTree


class TestBasicOperations:
    def test_insert_and_search(self):
        tree = BPlusTree(order=4)
        tree.insert(5, 100)
        tree.insert(5, 101)
        tree.insert(7, 102)
        assert tree.search(5) == [100, 101]
        assert tree.search(7) == [102]
        assert tree.search(99) == []

    def test_len_counts_pairs(self):
        tree = BPlusTree(order=4)
        for i in range(10):
            tree.insert(i, i)
        assert len(tree) == 10

    def test_delete_removes_pair(self):
        tree = BPlusTree(order=4)
        tree.insert(1, 10)
        tree.insert(1, 11)
        assert tree.delete(1, 10) is True
        assert tree.search(1) == [11]
        assert tree.delete(1, 999) is False

    def test_unique_index_rejects_duplicates(self):
        tree = BPlusTree(order=4, unique=True)
        tree.insert("a", 1)
        with pytest.raises(ValueError):
            tree.insert("a", 2)
        # Re-inserting the same rowid is idempotent, not a violation.
        tree.insert("a", 1)

    def test_null_keys_live_in_side_bucket(self):
        tree = BPlusTree(order=4)
        tree.insert(None, 1)
        tree.insert(None, 2)
        assert tree.search(None) == [1, 2]
        assert tree.delete(None, 1)
        assert tree.search(None) == [2]

    def test_splits_grow_height(self):
        tree = BPlusTree(order=4)
        for i in range(100):
            tree.insert(i, i)
        assert tree.height > 1
        tree.check_invariants()

    def test_node_touches_accumulate(self):
        tree = BPlusTree(order=4)
        for i in range(200):
            tree.insert(i, i)
        before = tree.node_touches
        tree.search(150)
        assert tree.node_touches > before


class TestRangeScan:
    def setup_method(self):
        self.tree = BPlusTree(order=8)
        for i in range(0, 100, 2):  # even keys 0..98
            self.tree.insert(i, i)

    def test_full_scan_is_ordered(self):
        keys = [k for k, _ in self.tree.items()]
        assert keys == sorted(keys)
        assert len(keys) == 50

    def test_bounded_range(self):
        keys = [k for k, _ in self.tree.range_scan(10, 20)]
        assert keys == [10, 12, 14, 16, 18, 20]

    def test_exclusive_bounds(self):
        keys = [k for k, _ in self.tree.range_scan(10, 20, include_low=False,
                                                   include_high=False)]
        assert keys == [12, 14, 16, 18]

    def test_open_ended_ranges(self):
        low_open = [k for k, _ in self.tree.range_scan(None, 6)]
        high_open = [k for k, _ in self.tree.range_scan(94, None)]
        assert low_open == [0, 2, 4, 6]
        assert high_open == [94, 96, 98]

    def test_reverse_scan(self):
        keys = [k for k, _ in self.tree.range_scan(10, 20, reverse=True)]
        assert keys == [20, 18, 16, 14, 12, 10]


class TestLayout:
    def test_out_of_order_row_ids_are_placed_in_order(self):
        tree = BPlusTree(order=4)
        for rowid in (20, 40, 10, 30):
            tree.insert("k", rowid)
            tree.insert(None, rowid)
        tree.delete("k", 30)
        tree.insert("k", 5)
        assert tree.search("k") == [5, 10, 20, 40]
        assert tree.search(None) == [10, 20, 30, 40]
        assert tree._root.values == [[5, 10, 20, 40]]
        tree.check_invariants()

    def test_unique_trees_store_the_bare_row_id(self):
        tree = BPlusTree(order=4, unique=True)
        tree.insert("k", 7)
        assert tree._root.values == [7]
        assert tree.search("k") == [7] and dict(tree.items()) == {"k": [7]}
        tree.check_invariants()


@pytest.mark.parametrize("order", [4, 5, 8, 64])
def test_sequential_keys_split_every_level_alike(order):
    """Ascending keys (what an auto-assigned pk produces) split only the
    rightmost node of each level — the leaf, then its parents, then the root:
    every other node keeps the left half of its split, ``(order + 1) // 2``
    keys.  Three levels at order 4."""
    tree = BPlusTree(order)
    for key in range(40 * order):
        tree.insert(key, key)
    tree.check_invariants()
    level = [tree._root]
    while not level[0].is_leaf:
        level = [child for node in level for child in node.children]
        assert all(len(node.keys) == (order + 1) // 2 for node in level[:-1])
    assert tree.height >= 3 or order == 64


def leaf_count(tree):
    node = tree._root
    while not node.is_leaf:
        node = node.children[0]
    count = 0
    while node is not None:
        count, node = count + 1, node.next
    return count


tree_operations = st.lists(st.tuples(
    st.sampled_from(("insert", "insert", "insert", "delete")),
    st.one_of(st.none(), st.integers(0, 12), st.integers(-300, 300)),
    st.integers(1, 40)), max_size=250)
bounds = st.one_of(st.none(), st.integers(-320, 320))
range_scans = st.lists(st.tuples(bounds, bounds, st.booleans(), st.booleans(),
                                 st.booleans()), max_size=6)


class TestPropertyBased:
    @settings(max_examples=300, deadline=None)
    @given(order=st.integers(4, 64), unique=st.booleans(),
           operations=tree_operations, scans=range_scans)
    def test_matches_reference_dict(self, order, unique, operations, scans):
        """Unique and non-unique trees agree with a reference dict of row-id
        sets under inserts (row ids in any order, present pairs again, NULL
        keys, the duplicates a unique tree refuses) and deletes: every read
        hands out the reference's row ids sorted, and charges exactly the
        nodes it walks; a write walks none but a delete's descent."""
        tree = BPlusTree(order, unique)
        reference, nulls = {}, set()
        for kind, key, rowid in operations:
            before, height = tree.node_touches, tree.height
            stored = nulls if key is None else reference.get(key, set())
            if kind == "insert":
                if unique and key is not None and stored and rowid not in stored:
                    with pytest.raises(ValueError) as refused:
                        tree.insert(key, rowid)
                    assert str(refused.value) == f"duplicate key {key!r} in unique index"
                else:
                    tree.insert(key, rowid)
                    if key is None:
                        nulls.add(rowid)
                    else:
                        reference.setdefault(key, set()).add(rowid)
                assert tree.node_touches == before
            else:
                assert tree.delete(key, rowid) is (rowid in stored)
                stored.discard(rowid)
                if key is not None and not stored:
                    reference.pop(key, None)
                assert tree.node_touches == before + (0 if key is None else height)
            assert len(tree) == len(nulls) + sum(map(len, reference.values()))
        tree.check_invariants()

        for key in [None, -1000, *reference]:
            before = tree.node_touches
            expected = nulls if key is None else reference.get(key, set())
            assert tree.search(key) == sorted(expected)
            assert tree.node_touches == before + (0 if key is None else tree.height)
        ordered = [(key, sorted(reference[key])) for key in sorted(reference)]
        walk = tree.height + leaf_count(tree) - 1
        before = tree.node_touches
        assert list(tree.items()) == ordered
        assert tree.node_touches == before + walk
        for low, high, include_low, include_high, reverse in scans:
            expected = [(key, rowids) for key, rowids in ordered
                        if (low is None or key > low or include_low and key == low)
                        and (high is None or key < high or include_high and key == high)]
            before = tree.node_touches
            assert list(tree.range_scan(
                low, high, include_low=include_low, include_high=include_high,
                reverse=reverse)) == (expected[::-1] if reverse else expected)
            assert tree.height <= tree.node_touches - before <= walk

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 200), min_size=1, max_size=200),
           st.data())
    def test_deletions_match_reference(self, keys, data):
        """Random interleaved deletes keep the tree consistent with a dict."""
        tree = BPlusTree(order=6)
        reference = {}
        for rowid, key in enumerate(keys):
            tree.insert(key, rowid)
            reference.setdefault(key, set()).add(rowid)
        victims = data.draw(st.lists(st.sampled_from(sorted(reference)),
                                     max_size=len(reference)))
        for key in victims:
            if reference.get(key):
                rowid = next(iter(reference[key]))
                assert tree.delete(key, rowid)
                reference[key].discard(rowid)
                if not reference[key]:
                    del reference[key]
        for key, rowids in reference.items():
            assert tree.search(key) == sorted(rowids)
        tree.check_invariants()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 500), min_size=1, max_size=300),
           st.integers(0, 500), st.integers(0, 500))
    def test_range_scan_matches_filter(self, keys, a, b):
        low, high = min(a, b), max(a, b)
        tree = BPlusTree(order=8)
        for rowid, key in enumerate(keys):
            tree.insert(key, rowid)
        expected = sorted({k for k in keys if low <= k <= high})
        got = [k for k, _ in tree.range_scan(low, high)]
        assert got == expected
