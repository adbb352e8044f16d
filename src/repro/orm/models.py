"""Model base class and metaclass.

Mirrors the slice of Django's model layer that the paper's workload needs:
declarative fields, an implicit ``id`` primary key, ``objects`` managers,
``save``/``delete`` and foreign-key accessors.  Writes always go straight to
the database — CacheGenie keeps the cache consistent via database triggers,
never via the ORM write path (§3.2).
"""

from __future__ import annotations

from typing import Any, Dict

from ..errors import DoesNotExist, ModelError
from ..storage.predicates import predicate_from_filters
from .descriptors import ForeignKeyDescriptor
from .fields import AutoField, Field, ForeignKey
from .manager import Manager
from .options import Options
from .registry import Registry, default_registry


class ModelBase(type):
    """Metaclass that wires fields, options, managers, and registration."""

    def __new__(mcs, name: str, bases: tuple, attrs: Dict[str, Any]):
        parents = [b for b in bases if isinstance(b, ModelBase)]
        if not parents:
            # The Model base class itself.
            return super().__new__(mcs, name, bases, attrs)

        meta = attrs.pop("Meta", None)
        registry: Registry = getattr(meta, "registry", None) or default_registry

        module = attrs.pop("__module__", None)
        qualname = attrs.pop("__qualname__", None)
        new_attrs = {"__module__": module, "__qualname__": qualname}
        cls = super().__new__(mcs, name, bases, new_attrs)
        cls._meta = Options(cls, meta, registry)

        # Attach fields in declaration order.
        fields = [(key, value) for key, value in attrs.items() if isinstance(value, Field)]
        fields.sort(key=lambda pair: pair[1]._order)
        declared_pk = any(f.primary_key for _, f in fields)
        if not declared_pk:
            auto = AutoField(null=True)
            auto.contribute_to_class(cls, "id")
        for key, field in fields:
            field.contribute_to_class(cls, key)
            if isinstance(field, ForeignKey):
                setattr(cls, key, ForeignKeyDescriptor(field))

        # Attach non-field attributes (methods, class attributes, managers).
        manager_found = False
        for key, value in attrs.items():
            if isinstance(value, Field):
                continue
            if isinstance(value, Manager):
                value.contribute_to_class(cls, key)
                manager_found = True
            else:
                setattr(cls, key, value)
        if not manager_found:
            Manager().contribute_to_class(cls, "objects")

        # Per-model DoesNotExist, like Django.
        cls.DoesNotExist = type("DoesNotExist", (DoesNotExist,), {})

        registry.register_model(cls)
        return cls



class Model(metaclass=ModelBase):
    """Base class for all models."""

    _meta: Options
    #: Whether ``save()`` inserts the instance.  A new instance stores True
    #: (``Options.initial_state``); one loaded from a row stores nothing and
    #: reads this default: it is saved.
    _state_adding = False

    def __init__(self, **kwargs: Any) -> None:
        meta = self._meta
        state = self.__dict__
        state.update(meta.initial_state)
        for attname, factory in meta.default_factories:
            state[attname] = factory()
        targets = meta.init_targets
        for key, value in kwargs.items():
            attribute, is_relation = targets.get(key) or meta.init_target(key)
            if is_relation:
                setattr(self, attribute, value)  # descriptor handles instance/pk
            else:
                state[attribute] = value

    # -- identity --------------------------------------------------------------

    @property
    def pk(self) -> Any:
        return self.__dict__.get(self._meta.pk_attname)

    @pk.setter
    def pk(self, value: Any) -> None:
        self.__dict__[self._meta.pk_attname] = value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return self.__class__ is other.__class__ and self.pk is not None and self.pk == other.pk

    def __hash__(self) -> int:
        if self.pk is None:
            return object.__hash__(self)
        return hash((self.__class__.__name__, self.pk))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} pk={self.pk!r}>"

    # -- persistence -----------------------------------------------------------

    def _column_values(self, *, include_pk: bool) -> Dict[str, Any]:
        values: Dict[str, Any] = {}
        state = self.__dict__
        for attname, column, is_pk, auto_now_add, fk in self._meta.column_plan:
            if is_pk and not include_pk:
                continue
            value = state.get(attname)
            if value is None and auto_now_add and self._state_adding:
                value = state[attname] = self._meta.registry.clock()
            if fk is not None:
                value = fk.get_prep_value(value)
            values[column] = value
        return values

    def save(self) -> "Model":
        """INSERT the instance if new, otherwise UPDATE its row."""
        db = self._meta.registry.db
        table = self._meta.db_table
        pk_col = self._meta.pk_column
        if self._state_adding or self.pk is None:
            values = self._column_values(include_pk=self.pk is not None)
            stored = db.insert(table, values)
            self.pk = stored[pk_col]
            self._state_adding = False
        else:
            values = self._column_values(include_pk=False)
            db.update(table, values, predicate_from_filters({pk_col: self.pk}))
        return self

    def delete(self) -> None:
        """DELETE the instance's row."""
        if self.pk is None:
            raise ModelError("cannot delete an unsaved instance")
        db = self._meta.registry.db
        db.delete(self._meta.db_table,
                  predicate_from_filters({self._meta.pk_column: self.pk}))
        self._state_adding = True

    def to_dict(self) -> Dict[str, Any]:
        """Return the instance's column values as a plain dict."""
        state = self.__dict__
        return {column: state.get(attname)
                for attname, column in self._meta.attname_columns}
