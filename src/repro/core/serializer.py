"""How cached rows pass between CacheGenie and the application.

The cache keeps "the raw results of queries and not Django model objects"
(the paper): plain dicts, ints and lists that any consumer can rebuild
model instances from.  Real memcached stores opaque bytes; our in-process
servers store the Python objects themselves, and what those objects would
cost on the wire is modelled separately (``cache_bytes_moved``, sized once
per store by :func:`repro.memcache.item.sizeof_value`).

No row is copied on the way in or out.  The storage engine's row-ownership
rule (:mod:`repro.storage.rows`) extends to the cache: **a stored value is
never mutated**.

* A store keeps the fresh rows the database returned
  (``compute_from_db``), or the copy of a row that
  :meth:`~repro.storage.triggers.TriggerManager.fire` makes for each
  trigger; a patch builds a new list and never edits the old one.
* A hit hands out a new ``list`` of read-only
  :class:`types.MappingProxyType` views over the stored rows
  (:func:`thaw_rows`).  A caller that assigns into a row gets
  ``TypeError`` instead of a silently detached copy.

Stored rows stay plain dicts: a view does not pickle, so storing one would
change every modelled byte count (and ``sizeof_value`` refuses it).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, List, Mapping, Sequence


def thaw_rows(value: Any) -> List[Mapping[str, Any]]:
    """A new list of read-only views over a cached list of row dicts."""
    if value is None:
        return []
    return list(map(MappingProxyType, value))


def freeze_rows(rows: Sequence[Any]) -> Sequence[Any]:
    """What a store does to rows: nothing, since a stored value is never
    mutated.  No store calls it; like :func:`freeze_value` it remains as a
    named entry point, which the frozen benchmark's span recorder
    (``benchmarks/e2e``) looks up on :mod:`repro.core.cache_classes.base`."""
    return rows


def freeze_value(value: Any) -> Any:
    """What a store does to any cached value: nothing (see :func:`freeze_rows`)."""
    return value
