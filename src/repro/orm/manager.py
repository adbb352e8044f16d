"""Model managers: the ``Model.objects`` entry point."""

from __future__ import annotations

from typing import Any, Optional

from .queryset import QuerySet


class Manager:
    """Default per-model manager, exposed as ``Model.objects``."""

    def __init__(self) -> None:
        self.model: Optional[type] = None

    def contribute_to_class(self, model: type, name: str) -> None:
        self.model = model
        setattr(model, name, ManagerDescriptor(self))

    # -- convenience passthroughs ---------------------------------------------

    def filter(self, **kwargs: Any) -> QuerySet:
        return QuerySet(self.model, kwargs)

    def get(self, **kwargs: Any) -> Any:
        return QuerySet(self.model, {}).get(**kwargs)

    def count(self) -> int:
        return QuerySet(self.model, {}).count()

    def create(self, **kwargs: Any) -> Any:
        """Instantiate and immediately save a model instance."""
        assert self.model is not None
        instance = self.model(**kwargs)
        instance.save()
        return instance

    def get_or_create(self, defaults: Optional[dict] = None, **kwargs: Any):
        """Return ``(instance, created)`` for the given lookup."""
        from ..errors import DoesNotExist
        try:
            return self.get(**kwargs), False
        except DoesNotExist:
            params = dict(kwargs)
            params.update(defaults or {})
            return self.create(**params), True


class ManagerDescriptor:
    """Restricts manager access to the class (``Model.objects``), like Django."""

    def __init__(self, manager: Manager) -> None:
        self.manager = manager

    def __get__(self, instance: Any, owner: type) -> Manager:
        if instance is not None:
            raise AttributeError("Manager is not accessible via model instances")
        return self.manager

