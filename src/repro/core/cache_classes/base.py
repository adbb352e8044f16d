"""The CacheClass base: the contract every caching abstraction implements.

Per §3.1 of the paper, a cache class must perform three tasks:

1. **Query generation** — derive the database query template that computes a
   cached object's value from the models/fields named in its definition.
2. **Trigger generation** — report which tables and events need triggers and
   provide the handler code that keeps affected keys consistent.
3. **Query evaluation** — fetch the value from the cache, falling back to the
   database (and populating the cache) on a miss, and transform the value
   into what the application expects.

A cached object is built from its :class:`~repro.orm.template.QueryTemplate`
alone: the template is the one statement of its query, compiled by
:meth:`QueryTemplate.query` for every recompute.  A write reaches a cached
object through one delta rule, :meth:`CacheClass.apply_delta`, driven by
the template: the keys a changed row reaches (one per derivation) and the
rows it adds to or takes from each.  Subclasses (FeatureQuery, LinkQuery,
CountQuery, TopKQuery) only say how a value is computed and shaped, and a
LinkQuery how a row walks its chain.  Consistency *policy* lives on the
object's :class:`~repro.core.strategies.ConsistencyStrategy`: the read path,
the trigger dispatch, and expiry all go through ``self.strategy`` — a cache
class never compares strategy names.  The shared plumbing — key naming, the
trigger side's enqueues, statistics — lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from ...errors import CacheClassError, FieldError
from ...orm.template import QueryTemplate
from ..keys import KeyScheme, fingerprint
# freeze_rows/freeze_value: benchmarks/e2e/e2ebench/spans.py looks them up here.
from ..serializer import freeze_rows, freeze_value, thaw_rows  # noqa: F401
from ..stats import CachedObjectStats
from ..strategies import (ConsistencyStrategy, UPDATE_IN_PLACE, read_through,
                          resolve_strategy, unwrap_envelope)

if TYPE_CHECKING:  # pragma: no cover
    from ...orm.queryset import QueryDescription
    from ..manager import CacheGenie


@dataclass
class TriggerSpec:
    """One trigger a cached object needs: table + event + handler."""

    table: str
    event: str
    handler: Callable[[Dict[str, Any]], None]
    description: str = ""


class CacheClass:
    """Base class for CacheGenie caching abstractions ("cache classes")."""

    #: Name used in ``cacheable(cache_class_type=...)``.
    cache_class_type = "Abstract"
    #: Rows a Top-K list keeps (its ``k`` plus its reserve); None elsewhere.
    capacity: Optional[int] = None

    def __init__(
        self,
        name: str,
        genie: "CacheGenie",
        template: QueryTemplate,
        update_strategy: Any = UPDATE_IN_PLACE,
        use_transparently: bool = True,
        expiry_seconds: Optional[float] = None,
    ) -> None:
        self.name = name
        self.genie = genie
        #: The object's query: its shape is read off here, its recompute is
        #: compiled from it, and interception matches against it.
        self.template = template
        self.main_model = template.model
        self.where_fields: List[str] = list(template.param_fields)
        #: A normalized request's where-field values, as the tuple the key
        #: scheme takes (``itemgetter`` hands one field back bare).
        self._where_values: Callable[[Dict[str, Any]], tuple] = (
            itemgetter(*self.where_fields) if len(self.where_fields) > 1
            else lambda params, field=self.where_fields[0]: (params[field],))
        #: Constant equality filters narrowing the cached rows (e.g. a
        #: ``status="PENDING"`` alongside the Param): part of the query
        #: shape, the key fingerprint, and the trigger row gate.
        self.const_filters: Dict[str, Any] = dict(template.const_filters)
        #: The model of the cached rows (a LinkQuery's is its chain's last),
        #: and the column and direction an ordered object sorts them by.
        self.result_model = template.model
        self.sort_column, self.descending = (
            template.order_by[0] if template.order_by else (None, False))
        #: The consistency policy, resolved through the strategy registry;
        #: accepts a registered name or a ConsistencyStrategy instance.
        self.strategy: ConsistencyStrategy = resolve_strategy(update_strategy)
        self.expiry_seconds = expiry_seconds
        self.use_transparently = use_transparently
        self.stats = CachedObjectStats()
        self.keys = KeyScheme(name, self._fingerprint())
        #: evaluate() parameter name -> storage column, resolved once per
        #: name (a model's fields are fixed, and so bound the map).
        self._param_columns: Dict[str, str] = {}

    # -- helpers ---------------------------------------------------------------

    @property
    def update_strategy(self) -> str:
        """The strategy's registry name (the pre-object API surface)."""
        return self.strategy.name

    @staticmethod
    def _resolve_column(model: type, field_name: str) -> str:
        """Resolve a field name (or raw column) to its storage column."""
        return model._meta.column_for(field_name)

    def _fingerprint(self) -> str:
        consts = ",".join(f"{c}={self.const_filters[c]!r}"
                          for c in sorted(self.const_filters))
        return fingerprint(self.cache_class_type, self.main_table,
                           ",".join(self.where_fields) + ("|" + consts if consts else ""))

    @property
    def main_table(self) -> str:
        return self.main_model._meta.db_table

    @property
    def db(self):
        return self.genie.db

    @property
    def app_cache(self):
        return self.genie.app_cache

    @property
    def trigger_cache(self):
        return self.genie.trigger_cache

    def _expire(self, key: Optional[str] = None) -> Optional[float]:
        return self.strategy.expiry_for(self, key=key)

    # -- key construction ------------------------------------------------------

    def make_key(self, **params: Any) -> str:
        """Build the cache key for one combination of where-field values,
        named as :meth:`evaluate` accepts them."""
        return self._request(params)[0]

    def _request(self, params: Dict[str, Any]) -> Tuple[str, Dict[str, Any]]:
        """One read request's cache key and its normalized parameters: field
        names or columns accepted, model instances resolved to pks."""
        columns = self._param_columns
        normalized: Dict[str, Any] = {}
        for name, value in params.items():
            column = columns.get(name)
            if column is None:
                try:
                    column = columns[name] = self._resolve_column(
                        self.main_model, name)
                except FieldError:
                    column = name  # not a field: passes through, never kept
            if hasattr(value, "pk"):
                value = value.pk
            normalized[column] = value
        try:
            values = self._where_values(normalized)
        except KeyError as exc:
            raise CacheClassError(
                f"cached object {self.name!r} requires parameter {exc.args[0]!r}"
            ) from None
        return self.keys.key_for(values), normalized

    def key_from_row(self, row: Dict[str, Any]) -> str:
        """Build the cache key from a main-table row's values."""
        return self.keys.key_for([row.get(c) for c in self.where_fields])

    def row_in_scope(self, row: Optional[Dict[str, Any]]) -> bool:
        """Whether a main-table row satisfies the declared constant filters."""
        if row is None:
            return False
        return all(row.get(column) == value
                   for column, value in self.const_filters.items())

    # -- step 1: query generation ------------------------------------------------

    def compute_from_db(self, params: Dict[str, Any]) -> Any:
        """Compute the cached value for ``params`` from the database."""
        return self.db.select(self.template.query(params))

    # -- step 2: trigger generation ---------------------------------------------

    def trigger_tables(self) -> List[str]:
        """Tables whose changes can affect this cached object."""
        return [self.main_table]

    def get_trigger_info(self) -> List[TriggerSpec]:
        """Return the trigger specs CacheGenie must install for this object."""
        if not self.strategy.needs_triggers:
            return []
        specs: List[TriggerSpec] = []
        for table in self.trigger_tables():
            for event in ("insert", "update", "delete"):
                specs.append(TriggerSpec(
                    table=table,
                    event=event,
                    handler=self._make_handler(table, event),
                    description=(
                        f"{self.cache_class_type} {self.name!r}: sync on "
                        f"{event.upper()} of {table!r} ({self.update_strategy})"
                    ),
                ))
        return specs

    def _make_handler(self, table: str, event: str) -> Callable[[Dict[str, Any]], None]:
        def handler(trigger_data: Dict[str, Any]) -> None:
            self.handle_trigger(table, event,
                                new=trigger_data.get("new"),
                                old=trigger_data.get("old"))
        handler.__name__ = f"cg_{self.name}_{table}_{event}"
        return handler

    # -- step 3: evaluation ------------------------------------------------------

    def evaluate(self, **params: Any) -> Any:
        """Fetch the cached value, falling back to the database on a miss.

        This is both the explicit API (``cached_user_profile.evaluate(user_id=42)``)
        and what transparent interception calls under the hood.  It is
        :func:`evaluate_many`'s read path on a batch of one (the strategy's
        ``fetch``).
        """
        self.genie.run_pending_refreshes()
        key, normalized = self._request(params)
        return self.strategy.fetch(self, key, normalized)

    def _present(self, value: Any) -> Any:
        """Shape a stored value the way evaluate() hands it out: a new list
        of read-only views over the stored rows (:func:`thaw_rows`), never a
        copy of one.

        Subclasses whose values are shaped differently override this
        (TopKQuery trims the reserve rows, CountQuery hands out the count).
        """
        return thaw_rows(value)

    def peek(self, **params: Any) -> Optional[Any]:
        """Return the cached value as stored, without falling back to the
        database: a row list as views (a Top-K list with its reserve rows),
        a count as itself."""
        key = self._request(params)[0]
        value = unwrap_envelope(self.app_cache.get(key))
        return thaw_rows(value) if isinstance(value, list) else value

    # -- transparent interception -------------------------------------------------

    def result_for_application(self, value: Any,
                               description: "QueryDescription") -> Any:
        """Transform a cached value into the shape the QuerySet expects."""
        return value

    # -- trigger handling ----------------------------------------------------------

    def handle_trigger(self, table: str, event: str,
                       new: Optional[Dict[str, Any]],
                       old: Optional[Dict[str, Any]]) -> None:
        """Dispatch a trigger firing to the configured consistency strategy."""
        self.stats.trigger_invocations += 1
        self.trigger_cache.reset_connection()
        if self.const_filters and table == self.main_table:
            # Constant filters gate which rows belong to the cached set: a
            # row moving across the constant boundary is an insert/delete
            # from the cache's point of view; a row outside it is a no-op.
            event, new, old = self._project_const_event(event, new, old)
            if event is None:
                return
        self.strategy.on_write(self, table, event, new, old)

    def _project_const_event(
        self, event: str, new: Optional[Dict[str, Any]],
        old: Optional[Dict[str, Any]],
    ) -> Tuple[Optional[str], Optional[Dict[str, Any]], Optional[Dict[str, Any]]]:
        """Re-express a row change relative to the constant-filtered subset."""
        new_in = self.row_in_scope(new)
        old_in = self.row_in_scope(old)
        if event == "insert":
            return ("insert", new, None) if new_in else (None, None, None)
        if event == "delete":
            return ("delete", None, old) if old_in else (None, None, None)
        # update
        if new_in and old_in:
            return "update", new, old
        if new_in:
            return "insert", new, None   # the row entered the cached subset
        if old_in:
            return "delete", None, old   # the row left the cached subset
        return None, None, None

    def invalidate_affected(self, table: str, event: str,
                            new: Optional[Dict[str, Any]],
                            old: Optional[Dict[str, Any]]) -> None:
        """Invalidate every key affected by a row change (strategy hook
        target), one :meth:`invalidate_key` each."""
        keys = set()
        for row in (new, old):
            if row is not None:
                keys.update(self.affected_keys(table, row))
        for key in keys:
            self.invalidate_key(key)

    def invalidate_key(self, key: str) -> None:
        """Invalidate one key: enqueue it on the trigger-op queue, whose
        flush drops it through the strategy's batched invalidation (a plain
        ``delete_multi`` for classic invalidation, a stale-retaining
        ``lease_delete_multi`` for leased invalidation)."""
        self.genie.trigger_op_queue.enqueue_delete(self, key)

    def affected_keys(self, table: str, row: Dict[str, Any]) -> List[str]:
        """Cache keys affected by a change to ``row`` in ``table``: the
        distinct keys of its :meth:`derivations`, sorted."""
        return sorted({self.key_from_row(base)
                       for base in self.derivations(table, row)})

    # -- the delta rule (update-in-place) ---------------------------------------------

    def derivations(self, table: str,
                    row: Optional[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """The base rows a change to ``row`` in ``table`` reaches, one per
        derivation: a key appears once per base row that carries it.

        A base row carries the where-field values its key is built from.
        Here the base table is the only table, so a row reaches itself when
        it is in the constant filters' scope; a LinkQuery walks its chain
        back.  ``row`` None (the missing side of an insert or a delete)
        reaches nothing.
        """
        if row is None or table != self.main_table:
            return []
        if self.const_filters and not self.row_in_scope(row):
            return []
        return [row]

    def reached_rows(self, table: str,
                     row: Dict[str, Any]) -> List[Dict[str, Any]]:
        """The cached-model rows a change to ``row`` in ``table`` adds to (or
        takes from) each key it reaches: the row itself, for a single-table
        object."""
        return [row]

    def apply_delta(self, table: str, new: Optional[Dict[str, Any]],
                    old: Optional[Dict[str, Any]],
                    bases: Optional[Tuple[List[Dict[str, Any]],
                                          List[Dict[str, Any]]]] = None,
                    ) -> None:
        """Update-in-place (§3.2) as one counting delta (Gupta, Mumick &
        Subrahmanian, SIGMOD 1993): every cache class, every event.

        An UPDATE is the DELETE of ``old`` plus the INSERT of ``new``.  Each
        side's keys (:meth:`derivations`, or ``bases``, the two sides'
        derivations a caller already walked) and rows (:meth:`reached_rows`)
        are read now, against this statement's state: a later statement of
        the transaction cannot leak into this one's delta.  A key reached
        twice takes the rows twice.  Each key whose two sides do not cancel
        gets one read-modify-write on the trigger-op queue, applied by
        :meth:`_patch` at the flush.
        """
        if bases is None:
            bases = self.derivations(table, old), self.derivations(table, new)
        old_bases, new_bases = bases
        old_rows = self.reached_rows(table, old) if old_bases else []
        new_rows = self.reached_rows(table, new) if new_bases else []
        patches: Dict[str, Tuple[Dict[str, Any], List, List]] = {}
        for side, side_bases, rows in ((1, old_bases, old_rows),
                                       (2, new_bases, new_rows)):
            for base in side_bases:
                key = self.key_from_row(base)
                patch = patches.get(key)
                if patch is None:
                    patch = patches[key] = (base, [], [])
                patch[side].extend(rows)
        counting = self.template.kind == "count"
        for key, (base, minus, plus) in patches.items():
            if len(minus) == len(plus) if counting else minus == plus:
                continue  # the two sides cancel: nothing this object shows
            self._cas_update(key, partial(self._patch, minus=minus, plus=plus,
                                          base=base))

    def _patch(self, value: Any, minus: List[Dict[str, Any]],
               plus: List[Dict[str, Any]], base: Dict[str, Any]) -> Any:
        """One key's delta applied to its cached value (the flush's batched
        read); returns the new value, or None when nothing changed.

        A count moves by the difference, floored at 0.  A row list is a bag:
        a row occurs as many times as it has derivations.  A removal drops
        one occurrence (by primary key); an insertion goes before the first
        row it precedes if the object is ordered (:meth:`_precedes`), last
        otherwise.  A single table's rows are unique, so an insertion of a
        primary key the list holds is skipped: a recompute that read this
        write put it there (a Top-K refill, or a reader's miss).

        A Top-K list (one with a ``capacity``) is the first rows of its
        order, at least ``k`` of them when the database has that many.
        Removals that leave it shorter than ``k`` recompute it from the
        database (the reserve ran out), so a list shorter than ``k`` holds
        every row and takes any insertion.  A row that would land after
        the last row of a list of ``k`` rows or more is left out: rows the
        list never held may sort between, and without it the list is still
        the first rows of the order.  An insertion trims it to capacity.
        """
        if self.template.kind == "count":
            return max(0, value + len(plus) - len(minus))
        rows = list(value)
        pk = self.result_model._meta.pk_column
        changed = False
        for old in minus:
            old_pk = old.get(pk)
            for index, row in enumerate(rows):
                if row.get(pk) == old_pk:
                    del rows[index]
                    changed = True
                    break
        capacity = self.capacity
        if capacity is not None and changed and len(rows) < self.k:
            self.stats.recomputations += 1
            return self.compute_from_db(
                {column: base.get(column) for column in self.where_fields})
        single_table = not self.template.chain
        for new in plus:
            new_pk = new.get(pk)
            if single_table and any(row.get(pk) == new_pk for row in rows):
                continue
            index = self._position(rows, new, new_pk, pk)
            if capacity is not None and index == len(rows) >= self.k:
                continue
            rows.insert(index, new)
            changed = True
        if capacity is not None:
            del rows[capacity:]
        return rows if changed else None

    def _position(self, rows: List[Dict[str, Any]], new: Dict[str, Any],
                  new_pk: Any, pk: str) -> int:
        """Where ``new`` goes in ``rows``: before the first row it precedes
        (:meth:`_precedes`), found by bisection, or last — always last when
        the object is unordered or ``new``'s sort value is NULL.  The list
        is sorted by its sort column, so the row lands among its equals;
        a tie holds one table's rows by primary key, but a join's in the
        order the join returned them, where the row's place within the tie
        is whatever bisection finds."""
        column = self.sort_column
        value = new.get(column) if column is not None else None
        if value is None:
            return len(rows)
        low, high = 0, len(rows)
        while low < high:
            middle = (low + high) // 2
            if self._precedes(value, new_pk, rows[middle], pk):
                high = middle
            else:
                low = middle + 1
        return low

    def _precedes(self, value: Any, pk: Any, row: Dict[str, Any],
                  pk_column: str) -> bool:
        """Whether a row with the non-NULL sort ``value`` and primary key
        ``pk`` goes before ``row``: before a NULL, then by the sort column,
        and within a tie by primary key ascending in either direction — the
        order the engine returns a tie in (its sort is stable over row-id
        order, and a reversed index walk reverses only the keys)."""
        existing = row.get(self.sort_column)
        if existing is None:
            return True
        if value == existing:
            return pk < row.get(pk_column)
        return value > existing if self.descending else value < existing

    def _cas_update(self, key: str, mutate: Callable[[Any], Any]) -> None:
        """Read-modify-write ``key``, as the paper's triggers do with
        gets/cas: enqueue ``mutate`` on the genie's trigger-op queue, whose
        flush applies it to the batched read of ``key`` and writes the result
        back with ``cas_multi``.

        ``mutate`` receives the current value and returns the new value, or
        ``None`` to leave the entry untouched.  If the key is absent the
        trigger quits (paper: "If not present, the trigger quits").
        """
        telemetry = getattr(self.trigger_cache, "telemetry", None)
        if telemetry is not None:
            # Adaptive runs only: attribute the write to the patch's target
            # key here, where the trigger already knows it — the adaptive
            # strategy's all-cold write path relies on this so it never has
            # to recompute the affected-key set just for telemetry.
            telemetry.note_write(key)
        self.genie.trigger_op_queue.enqueue_mutate(self, key, mutate)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{self.__class__.__name__} {self.name!r} on {self.main_table!r} "
            f"by {self.where_fields!r} ({self.update_strategy})>"
        )


def evaluate_many(
    requests: Sequence[Tuple["CacheClass", Dict[str, Any]]],
) -> List[Any]:
    """Batched evaluate() across cached objects sharing one cache client.

    All requested keys are fetched in one round trip per server per strategy
    read protocol (``get_multi`` for the classic strategies, ``lease_multi``
    for leased invalidation); misses fall back to the database per object
    and are written back with a single batched ``set_multi`` per expiry
    group (:func:`~repro.core.strategies.read_through`).  Results are
    returned in request order, shaped exactly as the individual
    ``evaluate()`` calls would shape them.
    """
    if not requests:
        return []
    first = requests[0][0]
    genie, client = first.genie, first.app_cache
    genie.run_pending_refreshes()
    entries: List[Tuple[CacheClass, str, Dict[str, Any]]] = []
    for cached_object, params in requests:
        if (cached_object.genie is not genie
                and cached_object.app_cache is not client):
            raise CacheClassError(
                "evaluate_many() requires cached objects on the same cache client"
            )
        key, normalized = cached_object._request(params)
        entries.append((cached_object, key, normalized))
    return read_through(client, entries)
