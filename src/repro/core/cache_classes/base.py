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
:meth:`QueryTemplate.query` for every recompute.  Subclasses (FeatureQuery,
LinkQuery, CountQuery, TopKQuery) specialize the affected-key computation
and the incremental update logic.  Consistency *policy* lives on the object's
:class:`~repro.core.strategies.ConsistencyStrategy`: the read path, the
trigger dispatch, and expiry all go through ``self.strategy`` — a cache
class never compares strategy names.  The shared plumbing — key naming, the
trigger side's enqueues, statistics — lives here.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        """Cache keys affected by a change to ``row`` in ``table``.

        The base implementation assumes ``table`` is the main table and keys
        are derived directly from the row's where-field values; subclasses
        with join chains override this.  Rows outside the declared constant
        filters affect nothing.
        """
        if table != self.main_table:
            return []
        if self.const_filters and not self.row_in_scope(row):
            return []
        return [self.key_from_row(row)]

    def apply_incremental_update(self, table: str, event: str,
                                 new: Optional[Dict[str, Any]],
                                 old: Optional[Dict[str, Any]]) -> None:
        """Apply the update-in-place strategy (subclass responsibility)."""
        raise NotImplementedError

    # -- shared update helpers ------------------------------------------------------

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

    def _recompute_key(self, key: str, params: Dict[str, Any]) -> None:
        """Recompute a key's value from the database and overwrite it.

        The flush's batched read supplies the "only maintain entries already
        cached" check; at commit the recompute sees the transaction's final
        state exactly once per key."""
        self.genie.trigger_op_queue.enqueue_mutate(
            self, key, lambda _current: self.compute_from_db(params),
            counter="recomputations")

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
