"""Query templates: the normalized shape shared by declaration and interception.

The queryset-native ``cacheable()`` API lets programmers declare cached
objects from the ORM queries they already write::

    genie.cacheable(Profile.objects.filter(user_id=Param("user_id")))

A :class:`Param` marks the columns whose values vary per cache entry (the
paper's ``where_fields``); the rest of the queryset — ordering, slicing,
``.count()``, relationship traversals via ``QuerySet.through()`` — determines
the *shape* of the query, from which the cache class is inferred:

===========================================  ==============
queryset shape                               cache class
===========================================  ==============
equality filter only                         FeatureQuery
``.count()`` terminal                        CountQuery
``.order_by(field)[:k]``                     TopKQuery
``.through(...)`` relationship chain         LinkQuery
===========================================  ==============

:class:`QueryTemplate` is the single normalization layer and a cached
object's only statement of its query: both declaration forms build one,
the cache class is constructed from it, every recompute is compiled from it
(``QueryTemplate.query``), and transparent interception matches incoming
:class:`~repro.orm.queryset.QueryDescription` objects against the very same
object (``QueryTemplate.match_shape`` then ``QueryTemplate.bind``), so a declaration, its recompute and the
interceptor can never disagree about which queries a cached object serves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING, Union

from ..errors import CacheClassError, TemplateError
from ..storage.predicates import predicate_from_filters
from ..storage.query import CountQuery, Join, OrderBy, SelectQuery

if TYPE_CHECKING:  # pragma: no cover
    from .queryset import QueryDescription, QuerySet


class Param:
    """Placeholder for a per-entry parameter in a cacheable queryset template.

    The optional ``name`` is purely descriptive (error messages, repr); the
    cache key is always derived from the storage column the placeholder is
    bound to in ``filter()``.
    """

    __slots__ = ("name",)

    def __init__(self, name: Optional[str] = None) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"Param({self.name!r})" if self.name else "Param()"


@dataclass(frozen=True)
class ChainStep:
    """One relationship hop in a LinkQuery chain.

    * ``forward`` — the current model has a ForeignKey named ``field`` whose
      target is the next model (``current.field_id == next.pk``).
    * ``reverse`` — the next model (``model_name``) has a ForeignKey named
      ``field`` pointing back at the current model
      (``next.field_id == current.pk``).
    """

    direction: str
    field: str
    model_name: Optional[str] = None

    @classmethod
    def forward(cls, field: str) -> "ChainStep":
        return cls(direction="forward", field=field)

    @classmethod
    def reverse(cls, model_name: str, field: str) -> "ChainStep":
        return cls(direction="reverse", field=field, model_name=model_name)

    def __post_init__(self) -> None:
        if self.direction not in ("forward", "reverse"):
            raise CacheClassError(
                f"invalid chain step direction {self.direction!r}"
            )
        if self.direction == "reverse" and not self.model_name:
            raise CacheClassError("reverse chain steps must name the next model")


def coerce_chain_step(step: Any) -> ChainStep:
    """Coerce a step spec (ChainStep, field name, or tuple) to a ChainStep."""
    if isinstance(step, ChainStep):
        return step
    if isinstance(step, str):
        return ChainStep.forward(step)
    if isinstance(step, (tuple, list)):
        if len(step) == 2 and step[0] == "forward":
            return ChainStep.forward(step[1])
        if len(step) == 3 and step[0] == "reverse":
            return ChainStep.reverse(step[1], step[2])
    raise CacheClassError(f"invalid chain step {step!r}")


def resolve_chain_models(model: type, chain: Tuple[ChainStep, ...]) -> Tuple[type, ...]:
    """Resolve the model classes along a chain, index 0 = the base model.

    Raises :class:`~repro.errors.FieldError` / :class:`~repro.errors.ModelError`
    at declaration time if a step names a missing field or model — the typo
    the stringly-typed API would only surface when a trigger misfired.
    """
    models = [model]
    registry = model._meta.registry
    for step in chain:
        current = models[-1]
        if step.direction == "forward":
            field = current._meta.get_field(step.field)
            target = field.resolve_target(registry)
        else:
            target = registry.get_model(step.model_name)
            # Validate that the FK actually exists on the next model.
            target._meta.get_field(step.field)
        models.append(target)
    return tuple(models)


@dataclass(frozen=True)
class QueryTemplate:
    """The normalized shape of a cacheable query.

    ``param_fields`` are the storage columns bound to :class:`Param`
    placeholders (declaration order preserved); ``order_by`` / ``limit`` /
    ``chain`` capture the rest of the shape.  Instances are immutable and
    hashable, so shapes can be compared and used for duplicate detection.
    """

    model: type
    kind: str                                        # "select" or "count"
    param_fields: Tuple[str, ...]
    order_by: Tuple[Tuple[str, bool], ...] = ()
    limit: Optional[int] = None
    chain: Tuple[ChainStep, ...] = ()
    #: Constant equality filters ((column, value) pairs, sorted) narrowing
    #: the cached rows alongside the Param placeholders — e.g.
    #: ``filter(status="PENDING", user_id=Param("u"))``.
    const_filters: Tuple[Tuple[str, Any], ...] = ()

    @property
    def table(self) -> str:
        return self.model._meta.db_table

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_queryset(cls, queryset: "QuerySet", kind: str = "select") -> "QueryTemplate":
        """Normalize a Param-carrying queryset into a template.

        Validates the shape eagerly so declaration mistakes fail at the
        ``cacheable()`` call, not when the interceptor silently never matches.
        """
        if queryset._offset:
            raise TemplateError(
                "cacheable templates cannot be sliced with an offset; "
                "use [:k] to declare a Top-K query")

        params: Dict[str, Param] = {}
        consts: Dict[str, Any] = {}
        for key, value in queryset._filters.items():
            column, _, suffix = key.partition("__")
            if suffix and suffix != "exact":
                raise TemplateError(
                    f"cacheable templates only support equality filters; "
                    f"{key!r} uses the lookup {suffix!r}")
            if isinstance(value, Param):
                params[column] = value
            else:
                # A constant filter: folded into the query shape (and the
                # cache-key fingerprint) rather than varying per entry.
                consts[column] = value
        if not params:
            raise TemplateError(
                "cacheable templates must filter on at least one "
                "Param(...) placeholder")

        chain = tuple(queryset._through_steps)
        if chain and consts:
            raise TemplateError(
                "constant filters are not supported on through() chains; "
                "filter the chain's base rows with Param placeholders only")
        order_by = tuple(queryset._order_by)
        limit = queryset._limit

        if kind == "count":
            if chain:
                raise TemplateError(
                    "count() of a through() chain is not supported; declare "
                    "the chain as a LinkQuery and measure its length instead")
            if order_by or limit is not None:
                raise TemplateError(
                    "count() templates cannot be ordered or sliced")
        elif not chain:
            if limit is not None and not order_by:
                raise TemplateError(
                    "a sliced template needs order_by(...) to define which "
                    "rows are the top K")
            if order_by and limit is None:
                raise TemplateError(
                    "an ordered template without a slice is ambiguous: add "
                    "[:k] to declare a TopKQuery, or drop order_by() to "
                    "declare a FeatureQuery (interception re-sorts on read)")
            if limit is not None and len(order_by) != 1:
                raise TemplateError(
                    "Top-K templates must order by exactly one field")
            if limit is not None and limit < 1:
                raise TemplateError("Top-K templates require k >= 1")
        else:
            if len(order_by) > 1:
                raise TemplateError(
                    "through() chains support at most one order_by field")
            # Validate the chain resolves; raises at declaration time if not.
            resolve_chain_models(queryset.model, chain)

        return cls(
            model=queryset.model,
            kind=kind,
            param_fields=tuple(params),
            order_by=order_by,
            limit=limit,
            chain=chain,
            const_filters=tuple(sorted(consts.items())),
        )

    # -- shape inference -------------------------------------------------------

    def infer_cache_class(self) -> str:
        """The name of the built-in cache class this shape declares; the
        class reads the rest of its shape off the template."""
        if self.chain:
            return "LinkQuery"
        if self.kind == "count":
            return "CountQuery"
        if self.limit is not None:
            return "TopKQuery"
        return "FeatureQuery"

    # -- compilation -----------------------------------------------------------

    def query(self, params: Dict[str, Any],
              limit: Optional[int] = None) -> Union[SelectQuery, CountQuery]:
        """The storage query this shape stands for, with ``params`` bound.

        The one compile of a cached object's query: every recompute runs it
        through ``Database.select``/``Database.count``.  The predicate holds
        the constant filters first, then ``params`` in the caller's order;
        the chain becomes inner joins returning the final model's rows.
        ``limit`` overrides the template's own (Top-K fetches its reserve
        rows too).
        """
        filters = dict(self.const_filters)
        filters.update(params)
        predicate = predicate_from_filters(filters)
        if self.kind == "count":
            return CountQuery(table=self.table, predicate=predicate)
        joins, select_from = self._joins
        return SelectQuery(
            table=self.table, predicate=predicate, joins=list(joins),
            select_from=select_from,
            order_by=[OrderBy(column=c, descending=d) for c, d in self.order_by],
            limit=self.limit if limit is None else limit)

    def tail_query(self, position: int,
                   row: Dict[str, Any]) -> Optional[SelectQuery]:
        """The final model's rows ``row``, a row of chain position
        ``position``, reaches: the chain's steps after it as one query,
        bound to the row's join value (a trigger's ΔV).  None when that
        value is NULL, which joins nothing."""
        joins, select_from = self._joins
        step = joins[position]
        value = row.get(step.left_column)
        if value is None:
            return None
        return SelectQuery(
            table=step.right_table,
            predicate=predicate_from_filters({step.right_column: value}),
            joins=list(joins[position + 1:]), select_from=select_from)

    @cached_property
    def _joins(self) -> Tuple[Tuple[Join, ...], Optional[str]]:
        """The chain as equi-joins, and the table whose rows they return."""
        if not self.chain:
            return (), None
        models = resolve_chain_models(self.model, self.chain)
        joins = []
        for step, here, there in zip(self.chain, models, models[1:]):
            if step.direction == "forward":
                joins.append(Join(here._meta.db_table,
                                  here._meta.get_field(step.field).column,
                                  there._meta.db_table, there._meta.pk_column))
            else:
                joins.append(Join(here._meta.db_table, here._meta.pk_column,
                                  there._meta.db_table,
                                  there._meta.get_field(step.field).column))
        return tuple(joins), models[-1]._meta.db_table

    # -- shape identity --------------------------------------------------------

    def shape_fingerprint(self) -> str:
        """Canonical string identifying this query shape (duplicate detection)."""
        parts = [
            self.table,
            self.kind,
            ",".join(sorted(self.param_fields)),
            ";".join(f"{c}:{'desc' if d else 'asc'}" for c, d in self.order_by),
            str(self.limit),
            ";".join(f"{s.direction}:{s.field}:{s.model_name}" for s in self.chain),
            ";".join(f"{c}={v!r}" for c, v in self.const_filters),
        ]
        return "|".join(parts)

    # -- interception matching -------------------------------------------------

    def match_shape(self, description: "QueryDescription") -> bool:
        """Value-independent half of a match (:meth:`bind` is the other).

        Depends only on the description's *shape* — table, kind, filter-key
        set, ordering, limit, offset — never on filter values, so the
        interceptor's match memo can cache the verdict for every description
        sharing the shape.
        """
        if self.chain:
            # Single-table querysets cannot express joins, so chain-shaped
            # objects are only reachable through explicit evaluate() calls.
            return False
        if description.kind != self.kind:
            return False
        if description.table != self.table:
            return False
        if description.offset:
            return False
        if self.kind == "select":
            if self.limit is not None:
                # Top-K shape: the query must want the same ordering and no
                # more rows than the declared K.
                if description.limit is None or description.limit > self.limit:
                    return False
                if list(description.order_by) != list(self.order_by):
                    return False
            # Feature shape (limit is None): any ordering/limit is acceptable;
            # the cached object re-sorts and trims when presenting results.
        expected = set(self.param_fields) | {c for c, _ in self.const_filters}
        return set(description.filters) == expected

    def bind(self, description: "QueryDescription") -> Optional[Dict[str, Any]]:
        """Value-dependent half of a match: const equality, then the
        evaluate() parameter dict.  Only valid after :meth:`match_shape`."""
        filters = description.filters
        for column, value in self.const_filters:
            if filters[column] != value:
                return None
        return {column: filters[column] for column in self.param_fields}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = [f"{self.model.__name__}", self.kind,
                f"params={list(self.param_fields)!r}"]
        if self.order_by:
            bits.append(f"order_by={list(self.order_by)!r}")
        if self.limit is not None:
            bits.append(f"limit={self.limit}")
        if self.chain:
            bits.append(f"chain={list(self.chain)!r}")
        if self.const_filters:
            bits.append(f"consts={dict(self.const_filters)!r}")
        return f"<QueryTemplate {' '.join(bits)}>"
