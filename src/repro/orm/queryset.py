"""QuerySets: lazily evaluated, chainable ORM queries.

A QuerySet accumulates filters/ordering/slicing and compiles them into a
storage-engine :class:`SelectQuery` (or :class:`CountQuery`) when iterated.
Before hitting the database it offers a normalized :class:`QueryDescription`
to the registry's interceptors — this is the hook CacheGenie uses to satisfy
Feature/Link/Count/Top-K queries from memcached transparently (§3.1).

Every read is a prepared statement: its *call shape* — the kind, the filter
keys with their lookups and the ordering — is resolved once per
model into a :class:`PreparedRead` (memoised in ``Options.prepared_reads``),
which holds how each filter becomes a predicate, whether the shape is
interceptable and the ORDER BY terms.  A call then only binds its values.

A QuerySet whose filters carry :class:`~repro.orm.template.Param`
placeholders (or that traverses relationships via :meth:`QuerySet.through`)
is a *template*: it cannot be executed, but it can be handed to
``CacheGenie.cacheable()``, which normalizes it into a
:class:`~repro.orm.template.QueryTemplate` and infers the cache class from
its shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from ..errors import DoesNotExist, MultipleObjectsReturned, TemplateError
from ..storage.predicates import (ALWAYS_TRUE, And, filter_lookup,
                                  predicate_from_filters)
from ..storage.query import CountQuery, OrderBy, SelectQuery
from .template import (ChainStep, Param, QueryTemplate, coerce_chain_step,
                       resolve_chain_models)


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


class PreparedRead:
    """One call shape of one model, resolved once: what a SELECT or COUNT
    of that shape needs besides its filter values.

    * ``columns`` — the filtered columns when every filter is an equality
      (the shape is interceptable), else None;
    * ``query(queryset)`` — the shape's binder, compiled once: the complete
      storage statement of a queryset of this shape, built from its filter
      values (and, for a SELECT, its window) in one call.
    """

    __slots__ = ("kind", "columns", "query")

    def __init__(self, queryset: "QuerySet", kind: str) -> None:
        self.kind = kind
        lookups = [filter_lookup(key) for key in queryset._filters]
        suffixes = {suffix for _column, suffix, _build in lookups}
        self.columns = (tuple(column for column, _suffix, _build in lookups)
                        if suffixes <= {"", "exact"} else None)
        self.query = self._compile(queryset, kind, lookups)

    @staticmethod
    def _compile(queryset: "QuerySet", kind: str,
                 lookups: List[Tuple[str, str, Any]]
                 ) -> Callable[["QuerySet"], Union[SelectQuery, CountQuery]]:
        """Compile the binder: unpack the filter values, build each part of
        the predicate with its lookup and join them as
        :func:`~repro.storage.predicates.predicate_from_filters` does — the
        lone part for one filter, ``And`` for several, ``TRUE`` for none —
        then the statement, positionally (no join predicates, no joins,
        every column): the keyword form costs each read 0.4 µs more."""
        namespace: Dict[str, Any] = {
            "SelectQuery": SelectQuery, "CountQuery": CountQuery, "And": And,
            "ALWAYS_TRUE": ALWAYS_TRUE,
            "table": queryset.model._meta.db_table,
            "order_by": tuple(OrderBy(column=column, descending=descending)
                              for column, descending in queryset._order_by)}
        parts = []
        for i, (column, _suffix, build) in enumerate(lookups):
            namespace[f"build{i}"], namespace[f"column{i}"] = build, column
            parts.append(f"build{i}(column{i}, value{i})")
        if not parts:
            unpack, predicate = "", "ALWAYS_TRUE"
        else:
            names = "".join(f"value{i}, " for i in range(len(parts)))
            unpack = f"    {names}= queryset._filters.values()\n"
            predicate = (parts[0] if len(parts) == 1
                         else f"And([{', '.join(parts)}])")
        statement = (f"CountQuery(table, {predicate}, {{}}, [], None)"
                     if kind == "count" else
                     f"SelectQuery(table, {predicate}, {{}}, [], None, "
                     f"order_by, queryset._limit, queryset._offset)")
        source = f"def query(queryset):\n{unpack}    return {statement}\n"
        exec(compile(source, f"<{queryset.model.__name__} {kind} binder>",
                     "exec"), namespace)
        return namespace["query"]


class QuerySet:
    """A chainable, lazily evaluated query over one model.

    What a queryset asks for never changes once a chaining call has
    returned it: each call builds a new one, sharing the filter dict and
    the tuples it does not change (the ordering and the ``through()``
    steps are tuples, so no clone can change another's).
    """

    __slots__ = ("model", "_filters", "_order_by", "_limit", "_offset",
                 "_result_cache", "_through_steps", "is_template")

    def __init__(self, model: type, filters: Dict[str, Any]) -> None:
        self.model = model
        self._order_by: Tuple[Tuple[str, bool], ...] = ()
        self._limit: Optional[int] = None
        self._offset: int = 0
        self._result_cache: Optional[List[Any]] = None
        #: Relationship hops added by through(); makes this a template.
        self._through_steps: Tuple[ChainStep, ...] = ()
        #: True when this queryset declares a shape instead of fetching rows
        #: (a Param placeholder or a through() step).  Decided as filters and
        #: steps are added, so terminals only read it.
        self.is_template = False
        self._filters: Dict[str, Any] = self._normalize_filters(filters)

    # -- chaining helpers ------------------------------------------------------

    def _clone(self) -> "QuerySet":
        clone = QuerySet.__new__(QuerySet)
        clone.model = self.model
        clone._filters = self._filters
        clone._order_by = self._order_by
        clone._limit = self._limit
        clone._offset = self._offset
        clone._result_cache = None
        clone._through_steps = self._through_steps
        clone.is_template = self.is_template
        return clone

    def filter(self, **kwargs: Any) -> "QuerySet":
        """Add equality/lookup filters (Django-style ``field__lookup=value``)."""
        if self._through_steps:
            raise TemplateError(
                "filter() must come before through(); chained models cannot "
                "be filtered in a cacheable template")
        clone = self._clone()
        clone._filters = {**self._filters, **clone._normalize_filters(kwargs)}
        return clone

    def order_by(self, *names: str) -> "QuerySet":
        """Order by one or more fields; prefix with ``-`` for descending.

        After :meth:`through`, field names are resolved against the final
        model of the relationship chain (the rows a LinkQuery caches).
        """
        clone = self._clone()
        column_for = self._chain_target_model()._meta.column_for
        clone._order_by = tuple(
            (column_for(name[1:]), True) if name.startswith("-")
            else (column_for(name), False) for name in names)
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
        clone._through_steps = self._through_steps + tuple(
            coerce_chain_step(step) for step in steps)
        clone.is_template = True
        # Resolve eagerly so a typo in a field/model name fails right here.
        resolve_chain_models(self.model, clone._through_steps)
        return clone

    def _chain_target_model(self) -> type:
        """The model whose rows this queryset yields (chain-aware)."""
        if not self._through_steps:
            return self.model
        return resolve_chain_models(self.model, self._through_steps)[-1]

    def __getitem__(self, item):
        if isinstance(item, slice):
            # A window counted from the end or with a step has no LIMIT /
            # OFFSET form: refuse it, as Django does.
            start, stop = item.start or 0, item.stop
            if item.step is not None:
                raise ValueError("a queryset slice takes no step")
            if start < 0 or (stop is not None and stop < 0):
                raise ValueError("negative indexing is not supported")
            # Compose with the window already in force: the new one is
            # taken *inside* it, so it can only shrink what remains.
            clone = self._clone()
            clone._offset = self._offset + start
            limit = None if stop is None else stop - start
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
        """Resolve field names to storage columns, keeping lookup suffixes
        (``Options.filter_key``, memoised per keyword).

        A :class:`Param` value marks this queryset as a template.
        """
        normalized: Dict[str, Any] = {}
        meta = self.model._meta
        keys = meta.filter_keys
        for key, value in kwargs.items():
            column_key, foreign_key = keys.get(key) or meta.filter_key(key)
            if foreign_key is not None:
                value = foreign_key.get_prep_value(value)
            if isinstance(value, Param):
                self.is_template = True
            normalized[column_key] = value
        return normalized

    # -- template detection -----------------------------------------------------

    def _require_executable(self, operation: str) -> None:
        if self.is_template:
            raise TemplateError(
                f"cannot {operation} a template queryset (it has Param "
                f"placeholders or through() steps); pass it to "
                f"CacheGenie.cacheable() instead")

    # -- execution -------------------------------------------------------------

    def _prepared(self, kind: str) -> PreparedRead:
        """This queryset's call shape, prepared once per model.  A slice's
        bounds are values, not part of the shape, so paging grows no memo."""
        key = (kind, tuple(self._filters), self._order_by)
        reads = self.model._meta.prepared_reads
        prepared = reads.get(key)
        if prepared is None:
            prepared = reads[key] = PreparedRead(self, kind)
        return prepared

    def _intercept(self, prepared: PreparedRead) -> Tuple[bool, Any]:
        """Offer an equality-only shape to the registry's interceptors."""
        return self.model._meta.registry.intercept(QueryDescription(
            model=self.model,
            kind=prepared.kind,
            filters=dict(zip(prepared.columns, self._filters.values())),
            order_by=list(self._order_by),
            limit=self._limit,
            offset=self._offset,
        ))

    def _fetch_all(self) -> List[Any]:
        if self._result_cache is not None:
            return self._result_cache
        if self.is_template:
            self._require_executable("execute")
        meta = self.model._meta
        registry = meta.registry
        prepared = self._prepared("select")
        handled = False
        if registry.interceptors and prepared.columns is not None:
            handled, rows = self._intercept(prepared)
        if not handled:
            rows = registry.db.select(prepared.query(self))
        from_db = meta.from_db
        self._result_cache = [from_db(row) for row in rows]
        return self._result_cache

    # -- public terminal operations ---------------------------------------------

    def __iter__(self) -> Iterator[Any]:
        return iter(self._fetch_all())

    def __len__(self) -> int:
        return len(self._fetch_all())

    def __bool__(self) -> bool:
        return bool(self._fetch_all())

    def get(self, **kwargs: Any) -> Any:
        """Return exactly one matching instance, or raise."""
        results = (self.filter(**kwargs) if kwargs else self._clone())._fetch_all()
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
        results = self[:1]._fetch_all()
        return results[0] if results else None

    def exists(self) -> bool:
        return bool(self[:1]._fetch_all())

    def count(self) -> Union[int, QueryTemplate]:
        """COUNT(*) honoring filters and the slice; interceptable by the
        CountQuery cache class.

        On a template queryset (one with ``Param`` placeholders) this is a
        declaration terminal: it returns a count-shaped
        :class:`~repro.orm.template.QueryTemplate` for ``cacheable()``
        instead of executing anything.
        """
        if self.is_template:
            return QueryTemplate.from_queryset(self, kind="count")
        registry = self.model._meta.registry
        prepared = self._prepared("count")
        handled = False
        if registry.interceptors and prepared.columns is not None:
            handled, value = self._intercept(prepared)
        total = int(value) if handled else registry.db.count(prepared.query(self))
        # A slice counts the rows of its window, as Django's COUNT over the
        # sliced subquery does; both answers above count every match.
        total = max(total - self._offset, 0)
        return total if self._limit is None else min(total, self._limit)

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
        rows = meta.registry.db.update(
            meta.db_table, changes,
            predicate=predicate_from_filters(self._filters),
        )
        return len(rows)

    def delete(self) -> int:
        """DELETE matching rows directly in the database (fires triggers)."""
        self._require_executable("delete through")
        meta = self.model._meta
        rows = meta.registry.db.delete(
            meta.db_table,
            predicate=predicate_from_filters(self._filters),
        )
        return len(rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QuerySet {self.model.__name__} filters={self._filters!r}>"
