"""QuerySets: lazily evaluated, chainable ORM queries.

A QuerySet accumulates filters/ordering/slicing and compiles them into a
storage-engine :class:`SelectQuery` (or :class:`CountQuery`) when iterated.
Before hitting the database it offers a normalized :class:`QueryDescription`
to the registry's interceptors — this is the hook CacheGenie uses to satisfy
Feature/Link/Count/Top-K queries from memcached transparently (§3.1).

A QuerySet whose filters carry :class:`~repro.orm.template.Param`
placeholders (or that traverses relationships via :meth:`QuerySet.through`)
is a *template*: it cannot be executed, but it can be handed to
``CacheGenie.cacheable()``, which normalizes it into a
:class:`~repro.orm.template.QueryTemplate` and infers the cache class from
its shape.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import DoesNotExist, FieldError, MultipleObjectsReturned, TemplateError
from ..storage.predicates import predicate_from_filters
from ..storage.query import CountQuery, OrderBy, SelectQuery
from .template import (ChainStep, Param, QueryTemplate, coerce_chain_step,
                       resolve_chain_models)

_FILTER_SUFFIXES = ("exact", "lt", "lte", "gt", "gte", "ne", "in", "isnull")


@dataclass
class QueryDescription:
    """A normalized, interceptable description of a simple ORM query.

    Only queries whose filters are pure column equalities are offered for
    interception; anything more complex goes straight to the database (the
    paper: CacheGenie "does not require that all queries be mediated by the
    caching layer").
    """

    model: type
    kind: str                                   # "select" or "count"
    filters: Dict[str, Any] = dataclass_field(default_factory=dict)
    order_by: List[Tuple[str, bool]] = dataclass_field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0

    @property
    def table(self) -> str:
        return self.model._meta.db_table


class QuerySet:
    """A chainable, lazily evaluated query over one model."""

    def __init__(self, model: type) -> None:
        self.model = model
        self._filters: Dict[str, Any] = {}
        self._order_by: List[Tuple[str, bool]] = []
        self._limit: Optional[int] = None
        self._offset: int = 0
        self._result_cache: Optional[List[Any]] = None
        #: Relationship hops added by through(); makes this a template.
        self._through_steps: List[ChainStep] = []
        #: True when this queryset declares a shape instead of fetching rows
        #: (a Param placeholder or a through() step).  Decided as filters and
        #: steps are added, so terminals only read it.
        self.is_template = False

    # -- chaining helpers ------------------------------------------------------

    def _clone(self) -> "QuerySet":
        clone = QuerySet(self.model)
        clone._filters = dict(self._filters)
        clone._order_by = list(self._order_by)
        clone._limit = self._limit
        clone._offset = self._offset
        clone._through_steps = list(self._through_steps)
        clone.is_template = self.is_template
        return clone

    def filter(self, **kwargs: Any) -> "QuerySet":
        """Add equality/lookup filters (Django-style ``field__lookup=value``)."""
        if self._through_steps:
            raise TemplateError(
                "filter() must come before through(); chained models cannot "
                "be filtered in a cacheable template")
        clone = self._clone()
        clone._filters.update(clone._normalize_filters(kwargs))
        return clone

    def order_by(self, *names: str) -> "QuerySet":
        """Order by one or more fields; prefix with ``-`` for descending.

        After :meth:`through`, field names are resolved against the final
        model of the relationship chain (the rows a LinkQuery caches).
        """
        clone = self._clone()
        clone._order_by = []
        target = self._chain_target_model()
        for name in names:
            descending = name.startswith("-")
            raw = name[1:] if descending else name
            column = target._meta.column_for(raw)
            clone._order_by.append((column, descending))
        return clone

    def through(self, *steps: Union[str, Tuple[Any, ...], ChainStep]) -> "QuerySet":
        """Traverse relationships, making this queryset a LinkQuery template.

        Each step is a forward ForeignKey field name (``"to_user"``), a
        :class:`~repro.orm.template.ChainStep`, or a tuple
        (``("reverse", "BookmarkInstance", "user")``).  The resulting
        template caches rows of the final model in the chain; it cannot be
        executed directly — hand it to ``cacheable()``.
        """
        clone = self._clone()
        clone._through_steps.extend(coerce_chain_step(step) for step in steps)
        clone.is_template = True
        # Resolve eagerly so a typo in a field/model name fails right here.
        resolve_chain_models(self.model, tuple(clone._through_steps))
        return clone

    def _chain_target_model(self) -> type:
        """The model whose rows this queryset yields (chain-aware)."""
        if not self._through_steps:
            return self.model
        return resolve_chain_models(self.model, tuple(self._through_steps))[-1]

    def __getitem__(self, item):
        if isinstance(item, slice):
            # Compose with the window already in force: the new one is
            # taken *inside* it, so it can only shrink what remains.
            clone = self._clone()
            start = item.start or 0
            clone._offset = self._offset + start
            limit = None if item.stop is None else item.stop - start
            if self._limit is not None:
                remaining = self._limit - start
                limit = remaining if limit is None else min(limit, remaining)
            if limit is not None:
                clone._limit = max(limit, 0)
            return clone
        results = self._fetch_all()
        return results[item]

    # -- filter normalization --------------------------------------------------

    def _normalize_filters(self, kwargs: Dict[str, Any]) -> Dict[str, Any]:
        """Resolve field names to storage columns, keeping lookup suffixes.

        A :class:`Param` value marks this queryset as a template.
        """
        normalized: Dict[str, Any] = {}
        filter_target = self.model._meta.filter_target
        for key, value in kwargs.items():
            name, sep, suffix = key.partition("__")
            if suffix and suffix not in _FILTER_SUFFIXES:
                # Treat unknown suffix as part of a related lookup we don't support.
                raise FieldError(f"unsupported lookup {key!r}")
            column, foreign_key = filter_target(name)
            if foreign_key is not None and (not suffix or suffix == "exact"):
                value = foreign_key.get_prep_value(value)
            if isinstance(value, Param):
                self.is_template = True
            normalized[column + (sep + suffix if suffix else "")] = value
        return normalized

    def _equality_only_filters(self) -> Optional[Dict[str, Any]]:
        """Return {column: value} if all filters are equalities, else None."""
        out: Dict[str, Any] = {}
        for key, value in self._filters.items():
            column, _, suffix = key.partition("__")
            if suffix and suffix != "exact":
                return None
            out[column] = value
        return out

    # -- template detection -----------------------------------------------------

    def _require_executable(self, operation: str) -> None:
        if self.is_template:
            raise TemplateError(
                f"cannot {operation} a template queryset (it has Param "
                f"placeholders or through() steps); pass it to "
                f"CacheGenie.cacheable() instead")

    # -- execution -------------------------------------------------------------

    @property
    def _registry(self):
        return self.model._meta.registry

    def _describe(self, kind: str) -> Optional[QueryDescription]:
        equalities = self._equality_only_filters()
        if equalities is None:
            return None
        return QueryDescription(
            model=self.model,
            kind=kind,
            filters=equalities,
            order_by=list(self._order_by),
            limit=self._limit,
            offset=self._offset,
        )

    def _compile_select(self) -> SelectQuery:
        query = SelectQuery(
            table=self.model._meta.db_table,
            predicate=predicate_from_filters(self._filters),
            order_by=[OrderBy(column=c, descending=d) for c, d in self._order_by],
            limit=self._limit,
            offset=self._offset,
        )
        return query

    def _fetch_all(self) -> List[Any]:
        if self._result_cache is not None:
            return self._result_cache
        self._require_executable("execute")
        registry = self._registry

        if registry.interceptors:
            description = self._describe("select")
            if description is not None:
                handled, rows = registry.intercept(description)
                if handled:
                    self._result_cache = self._rows_to_results(rows)
                    return self._result_cache

        rows = registry.db.select(self._compile_select())
        self._result_cache = self._rows_to_results(rows)
        return self._result_cache

    def _rows_to_results(self, rows: List[Dict[str, Any]]) -> List[Any]:
        from_db = self.model._from_db
        return [from_db(row) for row in rows]

    # -- public terminal operations ---------------------------------------------

    def __iter__(self) -> Iterator[Any]:
        return iter(self._fetch_all())

    def __len__(self) -> int:
        return len(self._fetch_all())

    def __bool__(self) -> bool:
        return bool(self._fetch_all())

    def get(self, **kwargs: Any) -> Any:
        """Return exactly one matching instance, or raise."""
        qs = self.filter(**kwargs) if kwargs else self._clone()
        results = qs._fetch_all()
        if not results:
            # Models carry their own DoesNotExist subclass, like Django.
            exc_class = getattr(self.model, "DoesNotExist", DoesNotExist)
            raise exc_class(
                f"{self.model.__name__} matching {kwargs!r} does not exist"
            )
        if len(results) > 1:
            raise MultipleObjectsReturned(
                f"get() returned {len(results)} {self.model.__name__} rows"
            )
        return results[0]

    def first(self) -> Optional[Any]:
        results = self._clone()[:1]._fetch_all()
        return results[0] if results else None

    def exists(self) -> bool:
        return bool(self._clone()[:1]._fetch_all())

    def count(self) -> Union[int, QueryTemplate]:
        """COUNT(*) honoring filters; interceptable by CountQuery cache class.

        On a template queryset (one with ``Param`` placeholders) this is a
        declaration terminal: it returns a count-shaped
        :class:`~repro.orm.template.QueryTemplate` for ``cacheable()``
        instead of executing anything.
        """
        if self.is_template:
            return QueryTemplate.from_queryset(self, kind="count")
        registry = self._registry
        if registry.interceptors:
            description = self._describe("count")
            if description is not None:
                handled, value = registry.intercept(description)
                if handled:
                    return int(value)
        query = CountQuery(
            table=self.model._meta.db_table,
            predicate=predicate_from_filters(self._filters),
        )
        return registry.db.count(query)

    # -- bulk writes -------------------------------------------------------------

    def update(self, **kwargs: Any) -> int:
        """UPDATE matching rows directly in the database (fires triggers)."""
        self._require_executable("update through")
        changes: Dict[str, Any] = {}
        meta = self.model._meta
        for key, value in kwargs.items():
            column, foreign_key = meta.filter_target(key)
            if foreign_key is not None:
                value = foreign_key.get_prep_value(value)
            changes[column] = value
        rows = self._registry.db.update(
            meta.db_table, changes,
            predicate=predicate_from_filters(self._filters),
        )
        return len(rows)

    def delete(self) -> int:
        """DELETE matching rows directly in the database (fires triggers)."""
        self._require_executable("delete through")
        meta = self.model._meta
        rows = self._registry.db.delete(
            meta.db_table,
            predicate=predicate_from_filters(self._filters),
        )
        return len(rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QuerySet {self.model.__name__} filters={self._filters!r}>"
