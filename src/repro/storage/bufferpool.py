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
from typing import List, Optional, Tuple

from .costmodel import Recorder

PageId = Tuple[str, int]


class BufferPool:
    """LRU set of (table, page_no) identifiers.

    Hits and misses are the recorder's ``pages_hit``/``pages_missed`` (the
    database's recorder, for the database's pool); the pool itself counts
    only what the recorder does not see: evictions and dirty write-backs.
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

    def access(self, table: str, page_no: int, *, dirty: bool = False) -> bool:
        """Touch a page; return True on a hit, False on a (simulated) disk read."""
        page_id: PageId = (table, page_no)
        if page_id in self._pages:
            self.recorder.record("pages_hit")
            self._pages.move_to_end(page_id)
            if dirty:
                self._pages[page_id] = True
                self.recorder.record("pages_dirtied")
            return True

        self.recorder.record("pages_missed")
        self._pages[page_id] = dirty
        if dirty:
            self.recorder.record("pages_dirtied")
        if len(self._pages) > self.capacity_pages:
            _, was_dirty = self._pages.popitem(last=False)
            self.evictions += 1
            if was_dirty:
                self.dirty_writebacks += 1
        return False

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
