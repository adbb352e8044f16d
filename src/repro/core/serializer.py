"""Value (de)serialization between CacheGenie and the cache.

Real memcached stores opaque bytes, which naturally decouples cached values
from live application objects.  Our in-process cache stores Python objects,
so CacheGenie defensively copies values on the way in and out — otherwise a
caller mutating a returned row list would silently corrupt the cache.

Row dictionaries are also *normalized*: the paper caches "the raw results of
queries and not Django model objects", so values are plain dicts / ints /
lists that any consumer can reconstruct model instances from.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Sequence

#: The immutable scalar types: ``copy.deepcopy`` of one (exactly one — not a
#: subclass, which it reconstructs) is the object itself, so a shallow
#: ``dict()`` of a row holding only these *is* its deep copy.
_ATOMIC_TYPES = frozenset((str, int, float, bool, bytes, type(None)))


def _copy_row(row: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``row`` sharing no mutable state with it.

    Equal to ``copy.deepcopy(row)``; rows of scalars (every row the ORM
    produces) take the shallow copy, anything holding a container or an
    object falls back to the deep one.
    """
    out = dict(row)
    if _ATOMIC_TYPES.issuperset(map(type, out.values())):
        return out
    return copy.deepcopy(out)


def freeze_rows(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Deep-copy a list of row dicts for storage in the cache."""
    return [_copy_row(row) for row in rows]


def thaw_rows(value: Any) -> List[Dict[str, Any]]:
    """Deep-copy a cached list of row dicts for return to the application."""
    if value is None:
        return []
    return [_copy_row(row) for row in value]


def freeze_value(value: Any) -> Any:
    """Deep-copy an arbitrary cached value (counts are immutable ints)."""
    if type(value) in _ATOMIC_TYPES:
        return value
    return copy.deepcopy(value)
