"""Model fields.

Fields describe how a model attribute maps onto a storage-engine column:
its data type, nullability, default, and whether it gets a secondary index.
``ForeignKey`` and ``ManyToManyField`` additionally describe relationships,
which is what CacheGenie's LinkQuery cache class traverses.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from ..errors import FieldError
from ..storage.datatypes import (BOOLEAN, FLOAT, INTEGER, TEXT, TIMESTAMP,
                                 DataType, TextType)


class Field:
    """Base class for model fields."""

    #: Storage data type; subclasses override.
    data_type: DataType = TEXT

    #: Creation order counter so fields keep their declaration order.
    _creation_counter = 0

    def __init__(
        self,
        null: bool = False,
        default: Any = None,
        unique: bool = False,
        db_index: bool = False,
        primary_key: bool = False,
        db_column: Optional[str] = None,
    ) -> None:
        self.null = null
        self.default = default
        self.unique = unique
        self.db_index = db_index
        self.primary_key = primary_key
        self.db_column = db_column
        self.name: Optional[str] = None       # set by the metaclass
        self.model: Optional[type] = None     # set by the metaclass
        self._order = Field._creation_counter
        Field._creation_counter += 1

    # -- metaclass wiring -----------------------------------------------------

    def contribute_to_class(self, model: type, name: str) -> None:
        """Attach this field to ``model`` under attribute ``name``."""
        self.name = name
        self.model = model
        model._meta.add_field(self)

    # -- column mapping -------------------------------------------------------

    @property
    def column(self) -> str:
        """Name of the storage-engine column backing this field."""
        if self.db_column:
            return self.db_column
        if self.name is None:
            raise FieldError("field is not attached to a model yet")
        return self.name

    @property
    def attname(self) -> str:
        """Name of the instance attribute holding the raw column value."""
        return self.name or self.column

    def to_python(self, value: Any) -> Any:
        """Convert a storage value to the Python-level value."""
        return value

    def get_prep_value(self, value: Any) -> Any:
        """Convert a Python-level value to what the storage engine stores."""
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self.name!r}>"


class AutoField(Field):
    """Auto-incrementing integer primary key (added implicitly as ``id``)."""

    data_type = INTEGER

    def __init__(self, **kwargs: Any) -> None:
        kwargs.setdefault("primary_key", True)
        super().__init__(**kwargs)


class IntegerField(Field):
    data_type = INTEGER


class FloatField(Field):
    data_type = FLOAT


class BooleanField(Field):
    data_type = BOOLEAN

    def __init__(self, default: Any = False, **kwargs: Any) -> None:
        super().__init__(default=default, **kwargs)


class CharField(Field):
    """Bounded text field."""

    def __init__(self, max_length: int = 255, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.max_length = max_length
        self.data_type = TextType(max_length=max_length)


class TextField(Field):
    """Unbounded text field."""

    data_type = TEXT


class DateTimeField(Field):
    """Timestamp field.

    ``auto_now_add`` fills the field at INSERT time from the clock callable
    configured on the registry (the workload generator installs a virtual
    clock so timestamps are deterministic).
    """

    data_type = TIMESTAMP

    def __init__(self, auto_now_add: bool = False, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.auto_now_add = auto_now_add


class FloatTimestampField(FloatField):
    """A timestamp stored as a float (seconds); simpler for sorting in Top-K."""

    def __init__(self, auto_now_add: bool = False, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.auto_now_add = auto_now_add


class ForeignKey(Field):
    """Many-to-one relationship.

    The storage column is ``<name>_id``; attribute access through the field
    name returns the related model instance (lazy lookup through its manager).
    """

    data_type = INTEGER

    def __init__(self, to: Union[str, type], related_name: Optional[str] = None,
                 **kwargs: Any) -> None:
        kwargs.setdefault("db_index", True)
        super().__init__(**kwargs)
        self.to = to
        self.related_name = related_name

    def contribute_to_class(self, model: type, name: str) -> None:
        self._attname = f"{name}_id"  # formatted once, read on every access
        super().contribute_to_class(model, name)

    @property
    def column(self) -> str:
        return self.db_column or self._attname

    @property
    def attname(self) -> str:
        return self._attname

    def resolve_target(self, registry) -> type:
        """Resolve the target model class (handles string references)."""
        if isinstance(self.to, str):
            return registry.get_model(self.to)
        return self.to

    def get_prep_value(self, value: Any) -> Any:
        # Accept either a model instance or a raw primary-key value.
        pk = getattr(value, "pk", None)
        return pk if pk is not None else value


class ManyToManyField(Field):
    """Many-to-many relationship implemented through an auto-created join table."""

    data_type = INTEGER

    def __init__(self, to: Union[str, type], related_name: Optional[str] = None,
                 through: Optional[str] = None, **kwargs: Any) -> None:
        super().__init__(null=True, **kwargs)
        self.to = to
        self.related_name = related_name
        self.through = through

    @property
    def column(self) -> str:
        raise FieldError(
            f"ManyToManyField {self.name!r} has no column; use its through table"
        )

    def through_table_name(self) -> str:
        if self.through:
            return self.through
        assert self.model is not None and self.name is not None
        return f"{self.model._meta.db_table}_{self.name}"

    def resolve_target(self, registry) -> type:
        if isinstance(self.to, str):
            return registry.get_model(self.to)
        return self.to
