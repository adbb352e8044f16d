"""Transparent ORM query interception.

CacheGenie "operates as a layer underneath the application, modifying the
queries issued by the ORM system to the database, redirecting them to the
cache when possible" (§2).  The interceptor registered on the ORM registry
receives a normalized description of each simple query; if a cached object
with ``use_transparently=True`` matches, the query is served through that
object's ``evaluate`` path (cache hit, or database fallback that repopulates
the cache) without the application changing a line of code.

Matching runs through a **shape memo**: the value-independent half of
template matching (:meth:`~repro.orm.template.QueryTemplate.match_shape`)
depends only on a query description's shape — table, kind, filter-key set,
ordering, limit, offset — so the interceptor remembers, per shape, the ordered
list of cached objects that pass it.  Per call only the value-dependent half
(:meth:`~repro.orm.template.QueryTemplate.bind`) and the
``use_transparently`` flag are evaluated.  Every cached object is built from
a :class:`~repro.orm.template.QueryTemplate`, so these two halves are the
whole match.  The memo is cleared whenever the set of registered objects
changes, and dropped wholesale at :data:`SHAPE_MEMO_MAX` shapes (limits and
offsets are part of a shape, so a paginating caller could otherwise grow it
without bound).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple, TYPE_CHECKING

from ..obs import hooks
from ..orm.registry import QueryInterceptor

if TYPE_CHECKING:  # pragma: no cover
    from ..orm.queryset import QueryDescription
    from .cache_classes.base import CacheClass

#: Most distinct query shapes the memo holds before it is dropped and refilled.
SHAPE_MEMO_MAX = 4096


class CacheGenieInterceptor(QueryInterceptor):
    """Serves matching ORM queries from cached objects."""

    def __init__(self) -> None:
        self._cached_objects: List["CacheClass"] = []
        #: Shape-key -> ordered shape-passing objects.
        self._match_cache: Dict[tuple, List["CacheClass"]] = {}

    def register(self, cached_object: "CacheClass") -> None:
        self._cached_objects.append(cached_object)
        self._match_cache.clear()

    def unregister(self, cached_object: "CacheClass") -> None:
        if cached_object in self._cached_objects:
            self._cached_objects.remove(cached_object)
            self._match_cache.clear()

    # -- shape memo -------------------------------------------------------------

    def _shape_candidates(self, description: "QueryDescription") -> List["CacheClass"]:
        """The registered objects whose template shape admits ``description``,
        in registration order, computed once per distinct shape."""
        key = (description.table, description.kind,
               frozenset(description.filters),
               tuple(description.order_by),
               description.limit, description.offset)
        entries = self._match_cache.get(key)
        if entries is None:
            entries = [cached_object for cached_object in self._cached_objects
                       if cached_object.template.match_shape(description)]
            if len(self._match_cache) >= SHAPE_MEMO_MAX:
                self._match_cache.clear()
            self._match_cache[key] = entries
        return entries

    # -- the interception -------------------------------------------------------

    def try_fetch(self, description: "QueryDescription") -> Tuple[bool, Any]:
        """Offer the query to each transparently-usable cached object: an
        ``orm:intercept`` span on :mod:`repro.obs.hooks`' chain, whose
        ``hit`` says whether one served it."""
        if not hooks.chain:
            return self._serve(description)
        with hooks.span("orm:intercept", table=description.table,
                        kind=description.kind, hit=False) as args:
            hit, value = self._serve(description)
            args["hit"] = hit
            return hit, value

    def _serve(self, description: "QueryDescription") -> Tuple[bool, Any]:
        for cached_object in self._shape_candidates(description):
            if not cached_object.use_transparently:
                continue
            params = cached_object.template.bind(description)
            if params is None:
                continue
            value = cached_object.evaluate(**params)
            cached_object.stats.transparent_fetches += 1
            return True, cached_object.result_for_application(value, description)
        return False, None
