"""Cache items: value, flags, CAS id, expiry, and size accounting."""

from __future__ import annotations

import pickle
import sys
from dataclasses import dataclass, field
from typing import Any, Optional


def sizeof_value(value: Any) -> int:
    """Estimate the serialized size of a cached value in bytes.

    Real memcached stores opaque byte strings; clients serialize values
    before sending them.  We estimate the pickled size so that eviction under
    a memory cap behaves realistically without paying full serialization cost
    on every operation for simple types.
    """
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8", errors="replace"))
    if isinstance(value, (int, float, bool)) or value is None:
        return 16
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # pragma: no cover - unpicklable exotic objects
        return sys.getsizeof(value)


#: Per-item bookkeeping overhead (memcached's item header).
ITEM_HEADER_BYTES = 56


@dataclass
class Item:
    """One stored cache entry."""

    key: str
    value: Any
    cas_id: int
    flags: int = 0
    #: Absolute expiry time in seconds on the cache's clock; None = no expiry.
    expires_at: Optional[float] = None
    size: int = field(default=0)
    #: :func:`sizeof_value` of ``value``, taken once when the item is stored:
    #: what a read of this item moves over the wire.
    value_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.value_size is None:
            self.value_size = sizeof_value(self.value)
        if not self.size:
            self.size = len(self.key) + self.value_size + ITEM_HEADER_BYTES

    def is_expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at
