"""Per-model metadata (the ``_meta`` object).

Collects a model's fields, knows the backing table name, and can emit the
storage-engine schema for the model table — the equivalent of Django's
``Options`` + ``syncdb`` DDL generation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import FieldError, ModelError, PlannerError
from ..storage.predicates import filter_lookup
from ..storage.schema import ColumnDef, IndexDef, TableSchema
from .fields import AutoField, Field, ForeignKey


def row_constructor(model: type) -> Callable[[Dict[str, Any]], Any]:
    """Build an instance of ``model`` from a row: a fresh instance whose
    ``__dict__`` is a copy of the row, never the row itself.

    Every field's attname is its column (a field's ``column`` and
    ``attname`` are both its name, ``<name>_id`` for a ForeignKey), so a row
    needs no renaming: one ``row.copy()`` fills the instance, for a stored
    dict and for the read-only view a cache hit hands out alike
    (``dict.update`` would walk a view key by key).  The saved-state flag
    needs no store either: ``Model._state_adding`` is False unless the
    instance's own state says otherwise.  Attnames are plain instance
    attributes (the ForeignKey descriptor lives on the field *name*), so a
    field added after the class is loaded like the others."""
    new = object.__new__

    def from_db(row: Dict[str, Any]) -> Any:
        instance = new(model)
        instance.__dict__ = row.copy()
        return instance
    return from_db


class Options:
    """Metadata container attached to every model class as ``_meta``."""

    def __init__(self, model: type, meta: Optional[type], registry) -> None:
        self.model = model
        self.registry = registry
        self.db_table: str = getattr(meta, "db_table", None) or model.__name__.lower()
        #: Extra (non-unique) index column lists declared in ``class Meta``.
        self.indexes: List[List[str]] = [list(cols) for cols in getattr(meta, "indexes", [])]
        self.ordering: List[str] = list(getattr(meta, "ordering", []))
        self.fields: List[Field] = []
        self.fields_by_name: Dict[str, Field] = {}
        self.pk: Optional[Field] = None
        self.pk_attname: Optional[str] = None
        #: ``(instance attribute, storage column)`` of every concrete field:
        #: what loading a row into an instance (and reading it back) walks.
        self.attname_columns: Tuple[Tuple[str, str], ...] = ()
        #: ``filter()`` keyword -> (storage column with its lookup suffix,
        #: the ForeignKey whose value it unwraps or None); :meth:`filter_key`.
        self.filter_keys: Dict[str, Tuple[str, Optional[ForeignKey]]] = {}
        #: Call shape -> :class:`~repro.orm.queryset.PreparedRead`: each read
        #: shape of this model is resolved once (``QuerySet._prepared``).
        self.prepared_reads: Dict[tuple, Any] = {}
        #: Build an instance from a storage row (:func:`row_constructor`).
        self.from_db: Callable[[Dict[str, Any]], Any] = row_constructor(model)
        # The insert plan, kept current by add_field.  It names attributes
        # and columns only — never a clock or a database: both live on the
        # registry, which a new Scenario rebinds, and are read at save time.
        #: ``instance.__dict__`` of a fresh instance: the state flag, then
        #: every attname at its default (None where a factory fills it in).
        self.initial_state: Dict[str, Any] = {"_state_adding": True}
        #: ``(attname, factory)`` of the callable defaults, run per instance.
        self.default_factories: Tuple[Tuple[str, Any], ...] = ()
        #: ``(attname, column, is pk, auto_now_add, ForeignKey or None)`` of
        #: every concrete field: what ``save()`` walks to build the row.
        self.column_plan: Tuple[Tuple[str, str, bool, bool, Optional[ForeignKey]], ...] = ()
        self.init_targets: Dict[str, Tuple[str, bool]] = {}

    # -- field management -----------------------------------------------------

    def add_field(self, field: Field) -> None:
        if field.name in self.fields_by_name:
            raise ModelError(
                f"duplicate field {field.name!r} on model {self.model.__name__}"
            )
        self.fields_by_name[field.name] = field
        self.filter_keys.clear()
        self.prepared_reads.clear()
        self.init_targets.clear()
        self.fields.append(field)
        attname, column = field.attname, field.column
        self.attname_columns += ((attname, column),)
        if callable(field.default):
            self.initial_state[attname] = None
            self.default_factories += ((attname, field.default),)
        else:
            self.initial_state[attname] = field.default
        self.column_plan += ((
            attname, column, field.primary_key,
            getattr(field, "auto_now_add", False),
            field if isinstance(field, ForeignKey) else None),)
        if field.primary_key:
            if self.pk is not None:
                raise ModelError(
                    f"model {self.model.__name__} declares multiple primary keys"
                )
            self.pk = field
            self.pk_attname = attname

    def get_field(self, name: str) -> Field:
        try:
            return self.fields_by_name[name]
        except KeyError:
            raise FieldError(
                f"model {self.model.__name__} has no field {name!r}"
            ) from None

    @property
    def pk_column(self) -> str:
        assert self.pk is not None
        return self.pk.column

    def column_for(self, name: str) -> str:
        """Resolve a field name (or raw attname) to its storage column."""
        if name in self.fields_by_name:
            return self.fields_by_name[name].column
        # Allow raw attnames like "user_id" to pass through.
        for field in self.fields:
            if field.attname == name or field.column == name:
                return field.column
        raise FieldError(f"model {self.model.__name__} has no field {name!r}")

    def filter_target(self, name: str) -> Tuple[str, Optional[ForeignKey]]:
        """Resolve a filter/update keyword to its storage column, plus the
        ForeignKey when ``name`` is a relation (whose value may be a model
        instance to unwrap)."""
        field = self.fields_by_name.get(name)
        return (self.column_for(name),
                field if isinstance(field, ForeignKey) else None)

    def filter_key(self, key: str) -> Tuple[str, Optional[ForeignKey]]:
        """Resolve a ``filter()`` keyword (``field`` or ``field__lookup``) to
        its storage column with the lookup suffix kept, plus the ForeignKey
        that unwraps its value (an equality on a relation only).  Memoised
        per model in :attr:`filter_keys`."""
        try:
            name, suffix, _build = filter_lookup(key)
        except PlannerError:
            raise FieldError(f"unsupported lookup {key!r}") from None
        column, foreign_key = self.filter_target(name)
        target = self.filter_keys[key] = (
            f"{column}__{suffix}" if suffix else column,
            foreign_key if suffix in ("", "exact") else None)
        return target

    def init_target(self, key: str) -> Tuple[str, bool]:
        """Resolve a constructor keyword to ``(attribute, is_relation)``: a
        plain instance attribute (a field name or a raw ``<fk>_id`` attname),
        or the ForeignKey descriptor that unwraps an instance or a pk.
        Memoised per model in :attr:`init_targets`."""
        field = self.fields_by_name.get(key)
        if isinstance(field, ForeignKey):
            target = (key, True)
        elif field is not None:
            target = (field.attname, False)
        elif any(key == attname for attname, _column in self.attname_columns):
            target = (key, False)
        else:
            raise ModelError(f"{self.model.__name__} has no field {key!r}")
        self.init_targets[key] = target
        return target

    # -- schema generation ----------------------------------------------------

    def build_schema(self) -> TableSchema:
        """Build the storage schema for this model's table."""
        columns: List[ColumnDef] = []
        indexes: List[IndexDef] = []
        for field in self.fields:
            columns.append(
                ColumnDef(
                    name=field.column,
                    dtype=field.data_type,
                    nullable=field.null or field.primary_key,
                    default=field.default,
                )
            )
            if field.primary_key:
                continue
            if field.unique:
                indexes.append(IndexDef(
                    name=f"{self.db_table}_{field.column}_uniq",
                    columns=(field.column,), unique=True))
            elif field.db_index or isinstance(field, ForeignKey):
                indexes.append(IndexDef(
                    name=f"{self.db_table}_{field.column}_idx",
                    columns=(field.column,)))
        for i, cols in enumerate(self.indexes):
            resolved = tuple(self.column_for(c) for c in cols)
            indexes.append(IndexDef(
                name=f"{self.db_table}_meta{i}_idx", columns=resolved))
        return TableSchema(
            name=self.db_table,
            columns=columns,
            indexes=indexes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Options for {self.model.__name__} (table {self.db_table!r})>"
