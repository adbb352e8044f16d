"""The attribute descriptor for a relationship.

``ForeignKeyDescriptor`` gives ``bookmark.user`` semantics (lazy load, cached
per instance).
"""

from __future__ import annotations

from typing import Any

from .fields import ForeignKey


class ForeignKeyDescriptor:
    """Instance attribute for the forward side of a ForeignKey."""

    def __init__(self, field: ForeignKey) -> None:
        self.field = field
        self.cache_attr = f"_cache_{field.name}"

    def __get__(self, instance: Any, owner: type) -> Any:
        if instance is None:
            return self
        cached = getattr(instance, self.cache_attr, None)
        if cached is not None:
            return cached
        fk_value = getattr(instance, self.field.attname, None)
        if fk_value is None:
            return None
        target = self.field.resolve_target(instance._meta.registry)
        related = target.objects.get(**{target._meta.pk.name: fk_value})
        setattr(instance, self.cache_attr, related)
        return related

    def __set__(self, instance: Any, value: Any) -> None:
        if value is None:
            setattr(instance, self.field.attname, None)
            setattr(instance, self.cache_attr, None)
            return
        if hasattr(value, "pk"):
            setattr(instance, self.field.attname, value.pk)
            setattr(instance, self.cache_attr, value)
        else:
            setattr(instance, self.field.attname, value)
            setattr(instance, self.cache_attr, None)

