"""A page-granular LRU buffer pool.

The buffer pool does not hold data (rows live in the heap's Python lists);
it tracks *which pages are memory-resident* so that the cost model can charge
disk reads only on misses — reproducing the paper's observation that the
NoCache system is CPU-bound (its working set fits the buffer pool thanks to
repeated queries) while the cached systems become disk-bound (their residual
queries are mostly unrepeated or writes).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Optional, Tuple

from .costmodel import Recorder

PageId = Tuple[str, int]


class BufferPool:
    """LRU set of (table, page_no) identifiers.

    Hits and misses are the recorder's ``pages_hit``/``pages_missed`` (the
    database's recorder, for the database's pool): :meth:`write` charges
    its own, and a statement charges those of the pages it :meth:`read`.
    The pool itself counts only what the recorder does not see: evictions
    and dirty write-backs.
    """

    def __init__(self, capacity_pages: int, recorder: Optional[Recorder] = None) -> None:
        if capacity_pages < 1:
            raise ValueError("buffer pool capacity must be >= 1 page")
        self.capacity_pages = capacity_pages
        self.recorder = recorder or Recorder()
        self._pages: "OrderedDict[PageId, bool]" = OrderedDict()  # value: dirty flag
        self.evictions = 0
        self.dirty_writebacks = 0

    # -- core access ----------------------------------------------------------

    def write(self, table: str, page_no: int) -> bool:
        """Touch and dirty a page a write changed, charging its hit or miss
        and ``pages_dirtied``; return True on a hit."""
        page_id: PageId = (table, page_no)
        pages = self._pages
        hit = page_id in pages
        if hit:
            pages.move_to_end(page_id)
            pages[page_id] = True
        else:
            self._admit(page_id, True)
        self.recorder.record("pages_hit" if hit else "pages_missed")
        self.recorder.record("pages_dirtied")
        return hit

    def read(self, page_ids: Iterable[PageId]) -> int:
        """Touch each page a statement read, in the order it read them;
        return how many were resident (the rest were simulated disk reads).
        Charges nothing: the statement records its hits and misses with its
        other counts (:meth:`~repro.storage.costmodel.Recorder.record_statement`)."""
        pages = self._pages
        hits = 0
        for page_id in page_ids:
            if page_id in pages:
                pages.move_to_end(page_id)
                hits += 1
            else:
                self._admit(page_id, False)
        return hits

    def _admit(self, page_id: PageId, dirty: bool) -> None:
        """Make a missing page resident, evicting the least recently used
        one when the pool is over capacity."""
        pages = self._pages
        pages[page_id] = dirty
        if len(pages) > self.capacity_pages:
            _, was_dirty = pages.popitem(last=False)
            self.evictions += 1
            if was_dirty:
                self.dirty_writebacks += 1

    # -- snapshot -------------------------------------------------------------

    def snapshot(self) -> Tuple[List[Tuple[PageId, bool]], int, int]:
        """The resident pages in LRU order with their dirty flags, and the
        two counters."""
        return list(self._pages.items()), self.evictions, self.dirty_writebacks

    def restore(self, state: Tuple[List[Tuple[PageId, bool]], int, int]) -> None:
        pages, self.evictions, self.dirty_writebacks = state
        self._pages = OrderedDict(pages)

    def __repr__(self) -> str:
        return (
            f"<BufferPool {len(self._pages)}/{self.capacity_pages} pages, "
            f"{self.evictions} evictions>"
        )
