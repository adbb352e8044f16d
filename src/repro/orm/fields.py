"""Model fields.

Fields describe how a model attribute maps onto a storage-engine column:
its data type, nullability, default, and whether it gets a secondary index.
``ForeignKey`` additionally describes a relationship, which is what
CacheGenie's LinkQuery cache class traverses.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Union

from ..errors import FieldError
from ..storage.datatypes import (BOOLEAN, FLOAT, INTEGER, TEXT, DataType,
                                 TextType)


class Field:
    """Base class for model fields."""

    #: Storage data type; subclasses override.
    data_type: DataType = TEXT

    #: Creation order counter so fields keep their declaration order.
    _creation_counter = 0

    #: The default of a field declared with none (or ``default=None``).
    implicit_default: Any = None

    def __init__(
        self,
        null: bool = False,
        default: Any = None,
        unique: bool = False,
        db_index: bool = False,
        primary_key: bool = False,
    ) -> None:
        self.null = null
        self.default = self.implicit_default if default is None else default
        self.unique = unique
        self.db_index = db_index
        self.primary_key = primary_key
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
        if self.name is None:
            raise FieldError("field is not attached to a model yet")
        return self.name

    @property
    def attname(self) -> str:
        """Name of the instance attribute holding the raw column value."""
        return self.name or self.column

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
    implicit_default = False


class CharField(Field):
    """Bounded text field."""

    def __init__(self, max_length: int = 255, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.max_length = max_length
        self.data_type = TextType(max_length=max_length)


class TextField(Field):
    """Unbounded text field."""

    data_type = TEXT


class FloatTimestampField(FloatField):
    """A timestamp stored as a float (seconds); simpler for sorting in Top-K.
    Set to the registry clock's time when its row is first saved."""

    auto_now_add = True


class ForeignKey(Field):
    """Many-to-one relationship.

    The storage column is ``<name>_id``; attribute access through the field
    name returns the related model instance (lazy lookup through its manager).
    """

    data_type = INTEGER

    def __init__(self, to: Union[str, type], **kwargs: Any) -> None:
        kwargs.setdefault("db_index", True)
        super().__init__(**kwargs)
        self.to = to

    def contribute_to_class(self, model: type, name: str) -> None:
        self._attname = f"{name}_id"  # formatted once, read on every access
        super().contribute_to_class(model, name)

    @property
    def column(self) -> str:
        return self._attname

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

