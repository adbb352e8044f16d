"""An in-memory B+Tree used for table indexes.

The tree maps keys (single values or tuples, for composite indexes) to heap
row ids.  A leaf stores each key's *posting*: the bare row id in a unique
tree, an ascending ``list`` otherwise, which an insert appends to (row ids
only grow) or, for an out-of-order id, places with ``bisect``.  Reads hand the
stored list out without copying it (a unique tree's reads build a
one-element list), so **a posting a reader holds is valid until the next
write to the tree**: every caller consumes it before its statement can write
(the executor fetches a lookup's rows at once and collects an UPDATE's or
DELETE's row ids before the first row changes or a trigger fires).  Leaves
are linked to support ordered range scans, which the executor uses for
``ORDER BY ... LIMIT k`` (top-K) plans and range predicates.

Keys must be mutually comparable; ``None`` keys are stored in a side list
because SQL NULLs do not participate in B+Tree ordering.

The tree also counts logical *node touches* so the cost model can charge a
realistic number of page accesses per lookup (the paper's microbenchmark
compares B+Tree lookups against memcached gets).
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Tuple


def _add(posting: List[int], rowid: int) -> bool:
    """Add ``rowid`` to the ascending ``posting``; False if it was there."""
    if not posting or posting[-1] < rowid:      # row ids only grow: append
        posting.append(rowid)
        return True
    idx = bisect.bisect_left(posting, rowid)
    if posting[idx] == rowid:
        return False
    posting.insert(idx, rowid)
    return True


def _remove(posting: List[int], rowid: int) -> bool:
    """Remove ``rowid`` from the ascending ``posting``; False if absent."""
    idx = bisect.bisect_left(posting, rowid)
    if idx < len(posting) and posting[idx] == rowid:
        del posting[idx]
        return True
    return False


class _Node:
    __slots__ = ("keys", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.keys: List[Any] = []
        self.is_leaf = is_leaf


class _Leaf(_Node):
    __slots__ = ("values", "next")

    def __init__(self) -> None:
        super().__init__(is_leaf=True)
        # Parallel to ``keys``: each entry is the posting for that key.
        self.values: List[Any] = []
        self.next: Optional["_Leaf"] = None


class _Internal(_Node):
    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__(is_leaf=False)
        # len(children) == len(keys) + 1
        self.children: List[_Node] = []


class BPlusTree:
    """B+Tree index mapping keys to ascending row ids.

    Parameters
    ----------
    order:
        Maximum number of keys per node before a split.  Small orders make
        trees deeper, which only matters for the simulated page-touch counts;
        64 approximates a real disk-page fanout for integer keys.
    unique:
        If True, inserting a second rowid under an existing key raises
        ``ValueError`` (the table layer converts this into a
        :class:`~repro.errors.ConstraintViolation`), and each key's posting
        is its bare row id.
    """

    def __init__(self, order: int = 64, unique: bool = False) -> None:
        if order < 4:
            raise ValueError("B+Tree order must be >= 4")
        self.order = order
        self.unique = unique
        self._root: _Node = _Leaf()
        self._null_bucket: List[int] = []
        self._size = 0  # number of (key, rowid) pairs, excluding NULLs
        self.node_touches = 0  # cumulative nodes visited (for the cost model)

    # -- properties -----------------------------------------------------------

    def __len__(self) -> int:
        return self._size + len(self._null_bucket)

    @property
    def height(self) -> int:
        """Height of the tree (1 for a single leaf)."""
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[attr-defined]
            height += 1
        return height

    # -- search ---------------------------------------------------------------

    def _find_leaf(self, key: Any) -> _Leaf:
        node = self._root
        self.node_touches += 1
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            node = node.children[idx]  # type: ignore[attr-defined]
            self.node_touches += 1
        return node  # type: ignore[return-value]

    def search(self, key: Any) -> List[int]:
        """The ascending rowids stored under ``key`` (empty if absent): read
        them before the next write to the tree, never mutate them."""
        if key is None:
            return self._null_bucket
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx < len(leaf.keys) and leaf.keys[idx] == key:
            posting = leaf.values[idx]
            return [posting] if self.unique else posting  # type: ignore[list-item,return-value]
        return []

    # -- insert ---------------------------------------------------------------

    def insert(self, key: Any, rowid: int) -> None:
        """Insert a (key, rowid) pair."""
        if key is None:
            _add(self._null_bucket, rowid)
            return
        # Descend, remembering (internal node, child slot) for a split to
        # climb back through.
        path: List[Tuple[_Internal, int]] = []
        node = self._root
        while not node.is_leaf:
            idx = bisect.bisect_right(node.keys, key)
            path.append((node, idx))  # type: ignore[arg-type]
            node = node.children[idx]  # type: ignore[attr-defined]
        leaf: _Leaf = node  # type: ignore[assignment]
        keys = leaf.keys
        idx = bisect.bisect_left(keys, key)
        if idx < len(keys) and keys[idx] == key:
            posting = leaf.values[idx]
            if self.unique:
                if posting != rowid:
                    raise ValueError(f"duplicate key {key!r} in unique index")
                return
            if _add(posting, rowid):
                self._size += 1
            return
        keys.insert(idx, key)
        leaf.values.insert(idx, rowid if self.unique else [rowid])
        self._size += 1
        if len(keys) <= self.order:
            return
        sep_key, right = self._split_leaf(leaf)
        while path:
            parent, idx = path.pop()
            parent.keys.insert(idx, sep_key)
            parent.children.insert(idx + 1, right)
            if len(parent.keys) <= self.order:
                return
            sep_key, right = self._split_internal(parent)
        new_root = _Internal()
        new_root.keys = [sep_key]
        new_root.children = [self._root, right]
        self._root = new_root

    def _split_leaf(self, leaf: _Leaf) -> Tuple[Any, _Node]:
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next = leaf.next
        leaf.next = right
        return right.keys[0], right

    def _split_internal(self, node: _Internal) -> Tuple[Any, _Node]:
        mid = len(node.keys) // 2
        sep_key = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        return sep_key, right

    # -- delete ---------------------------------------------------------------

    def delete(self, key: Any, rowid: int) -> bool:
        """Remove a (key, rowid) pair.  Returns True if it was present.

        Underfull nodes are not rebalanced — lookups remain correct and the
        workloads here are insert-heavy, so the simpler lazy-deletion scheme
        keeps the structure (and its simulated page counts) honest enough.
        """
        if key is None:
            return _remove(self._null_bucket, rowid)
        leaf = self._find_leaf(key)
        idx = bisect.bisect_left(leaf.keys, key)
        if idx == len(leaf.keys) or leaf.keys[idx] != key:
            return False
        posting = leaf.values[idx]
        if self.unique:
            if posting != rowid:
                return False
        elif not _remove(posting, rowid):
            return False
        self._size -= 1
        if self.unique or not posting:
            del leaf.keys[idx]
            del leaf.values[idx]
        return True

    # -- scans ----------------------------------------------------------------

    def _leftmost_leaf(self) -> _Leaf:
        node = self._root
        self.node_touches += 1
        while not node.is_leaf:
            node = node.children[0]  # type: ignore[attr-defined]
            self.node_touches += 1
        return node  # type: ignore[return-value]

    def items(self) -> Iterator[Tuple[Any, List[int]]]:
        """Yield (key, ascending rowids) pairs in ascending key order."""
        leaf: Optional[_Leaf] = self._leftmost_leaf()
        while leaf is not None:
            for key, posting in zip(leaf.keys, leaf.values):
                yield key, [posting] if self.unique else posting  # type: ignore[misc]
            leaf = leaf.next
            if leaf is not None:
                self.node_touches += 1

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        *,
        include_low: bool = True,
        include_high: bool = True,
        reverse: bool = False,
    ) -> Iterator[Tuple[Any, List[int]]]:
        """Yield (key, ascending rowids) pairs with keys in [low, high].

        ``None`` bounds are open.  ``reverse=True`` yields descending order
        (materialized from the forward scan; acceptable for in-memory leaves).
        The scan runs, and counts its node touches, before this returns.
        """
        results: List[Tuple[Any, List[int]]] = []
        if low is None:
            leaf: Optional[_Leaf] = self._leftmost_leaf()
            start_idx = 0
        else:
            leaf = self._find_leaf(low)
            start_idx = bisect.bisect_left(leaf.keys, low)
            if not include_low:
                while start_idx < len(leaf.keys) and leaf.keys[start_idx] == low:
                    start_idx += 1
        while leaf is not None:
            for idx in range(start_idx, len(leaf.keys)):
                key = leaf.keys[idx]
                if high is not None:
                    if key > high or (key == high and not include_high):
                        leaf = None
                        break
                posting = leaf.values[idx]
                results.append((key, [posting] if self.unique else posting))  # type: ignore[list-item]
            else:
                leaf = leaf.next
                start_idx = 0
                if leaf is not None:
                    self.node_touches += 1
                continue
            break
        if reverse:
            results.reverse()
        return iter(results)

    def check_invariants(self) -> None:
        """Verify ordering, layout and structural invariants (used by property
        tests): ascending keys; a bare row id per key in a unique tree, else a
        non-empty, strictly ascending list.  Counts no node touches."""
        touches, leaf = self.node_touches, self._leftmost_leaf()
        self.node_touches = touches
        keys: List[Any] = []
        postings: List[Any] = []
        while leaf is not None:
            keys += leaf.keys
            postings += leaf.values
            leaf = leaf.next
        if self.unique and any(type(posting) is not int for posting in postings):
            raise AssertionError("a unique tree's posting is not a row id")
        lists = [[posting] for posting in postings] if self.unique else postings
        if not all(type(posting) is list and posting for posting in lists):
            raise AssertionError("a posting is not a non-empty list")
        for items in [keys, self._null_bucket, *lists]:
            if any(not a < b for a, b in zip(items, items[1:])):
                raise AssertionError(f"not strictly ascending: {items!r}")
        count = sum(map(len, lists))
        if count != self._size:
            raise AssertionError(f"size mismatch: counted {count}, recorded {self._size}")
        self._check_node(self._root)

    def _check_node(self, node: _Node) -> None:
        if node is not self._root and len(node.keys) > self.order:
            raise AssertionError("overfull node")
        if not node.is_leaf:
            internal: _Internal = node  # type: ignore[assignment]
            if len(internal.children) != len(internal.keys) + 1:
                raise AssertionError("internal node child/key count mismatch")
            for child in internal.children:
                self._check_node(child)
