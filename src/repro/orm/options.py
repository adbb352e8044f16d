"""Per-model metadata (the ``_meta`` object).

Collects a model's fields, knows the backing table name, and can emit the
storage-engine schemas for the model table and any many-to-many through
tables — the equivalent of Django's ``Options`` + ``syncdb`` DDL generation.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..errors import FieldError, ModelError
from ..storage.schema import ColumnDef, IndexDef, TableSchema
from .fields import AutoField, Field, ForeignKey, ManyToManyField

if TYPE_CHECKING:  # pragma: no cover
    from .registry import Registry


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
        self.m2m_fields: List[ManyToManyField] = []
        self.pk: Optional[Field] = None
        self.pk_attname: Optional[str] = None
        #: ``(instance attribute, storage column)`` of every concrete field:
        #: what loading a row into an instance (and reading it back) walks.
        self.attname_columns: Tuple[Tuple[str, str], ...] = ()
        self._filter_targets: Dict[str, Tuple[str, Optional[ForeignKey]]] = {}
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
        self._filter_targets.clear()
        self.init_targets.clear()
        if isinstance(field, ManyToManyField):
            self.m2m_fields.append(field)
            return
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

    def concrete_fields(self) -> List[Field]:
        """Fields that map to a column on the model's own table."""
        return list(self.fields)

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
            field = self.fields_by_name[name]
            if isinstance(field, ManyToManyField):
                raise FieldError(
                    f"cannot filter directly on ManyToManyField {name!r}"
                )
            return field.column
        # Allow raw attnames like "user_id" to pass through.
        for field in self.fields:
            if field.attname == name or field.column == name:
                return field.column
        raise FieldError(f"model {self.model.__name__} has no field {name!r}")

    def filter_target(self, name: str) -> Tuple[str, Optional[ForeignKey]]:
        """Resolve a filter/update keyword to its storage column, plus the
        ForeignKey when ``name`` is a relation (whose value may be a model
        instance to unwrap).  Memoised per model."""
        target = self._filter_targets.get(name)
        if target is None:
            field = self.fields_by_name.get(name)
            target = (self.column_for(name),
                      field if isinstance(field, ForeignKey) else None)
            self._filter_targets[name] = target
        return target

    def init_target(self, key: str) -> Tuple[str, bool]:
        """Resolve a constructor keyword to ``(attribute, is_relation)``: a
        plain instance attribute (a field name or a raw ``<fk>_id`` attname),
        or the ForeignKey descriptor that unwraps an instance or a pk.
        Memoised per model in :attr:`init_targets`."""
        field = self.fields_by_name.get(key)
        if isinstance(field, ManyToManyField):
            raise ModelError(
                f"cannot set ManyToManyField {key!r} in the constructor"
            )
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
            primary_key=self.pk_column,
            indexes=indexes,
        )

    def build_m2m_schemas(self, registry: "Registry") -> List[TableSchema]:
        """Build schemas for auto-created many-to-many through tables."""
        schemas: List[TableSchema] = []
        for m2m in self.m2m_fields:
            if m2m.through:
                # An explicit through model owns its own table.
                continue
            target = m2m.resolve_target(registry)
            source_col = f"{self.model.__name__.lower()}_id"
            target_col = f"{target.__name__.lower()}_id"
            if source_col == target_col:
                target_col = f"to_{target_col}"
            table_name = m2m.through_table_name()
            schemas.append(TableSchema(
                name=table_name,
                columns=[
                    ColumnDef("id", "integer", nullable=True),
                    ColumnDef(source_col, "integer", nullable=False),
                    ColumnDef(target_col, "integer", nullable=False),
                ],
                primary_key="id",
                indexes=[
                    IndexDef(f"{table_name}_{source_col}_idx", (source_col,)),
                    IndexDef(f"{table_name}_{target_col}_idx", (target_col,)),
                ],
            ))
        return schemas

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Options for {self.model.__name__} (table {self.db_table!r})>"
