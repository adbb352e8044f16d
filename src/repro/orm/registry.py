"""Model registry and database binding.

The registry plays the role of Django's app registry plus its database
connection: model classes register themselves at class-definition time, and
``bind()`` attaches a :class:`~repro.storage.database.Database` so the ORM
can create tables and run queries.  Query interceptors (CacheGenie's
transparent cache lookup) also hang off the registry.
"""

from __future__ import annotations

import time as _time
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from ..errors import ModelError, ORMError
from ..storage.database import Database

if TYPE_CHECKING:  # pragma: no cover
    from .queryset import QueryDescription


class QueryInterceptor:
    """Interface for transparent query interception.

    CacheGenie registers an interceptor that, given a normalized description
    of an ORM query, may return ``(True, result)`` to satisfy it from the
    cache, or ``(False, None)`` to let it proceed to the database.
    """

    def try_fetch(self, description: "QueryDescription"):  # pragma: no cover - interface
        return False, None


class Registry:
    """Holds model classes, the bound database, the clock, and interceptors."""

    def __init__(self, name: str = "default") -> None:
        self.name = name
        self.models: Dict[str, type] = {}
        self.database: Optional[Database] = None
        self.interceptors: List[QueryInterceptor] = []
        #: Clock used for auto_now_add fields; replaced by the simulation.
        self.clock: Callable[[], float] = _time.time

    # -- model registration ---------------------------------------------------

    def register_model(self, model: type) -> None:
        key = model.__name__.lower()
        self.models[key] = model

    def get_model(self, name: str) -> type:
        try:
            return self.models[name.lower()]
        except KeyError:
            raise ModelError(f"no model named {name!r} is registered") from None

    # -- database binding -----------------------------------------------------

    def bind(self, database: Database) -> None:
        """Attach a database.  Replaces any previous binding."""
        self.database = database

    def unbind(self) -> None:
        self.database = None
        self.interceptors.clear()

    @property
    def db(self) -> Database:
        if self.database is None:
            raise ORMError(
                f"registry {self.name!r} is not bound to a database; call bind()"
            )
        return self.database

    def create_all(self) -> None:
        """Create the storage table of every model."""
        from .models import Model  # local import to avoid a cycle

        for model in self.models.values():
            if not issubclass(model, Model):  # pragma: no cover - defensive
                continue
            schema = model._meta.build_schema()
            if not self.db.has_table(schema.name):
                self.db.create_table(schema)

    # -- interception ---------------------------------------------------------

    def add_interceptor(self, interceptor: QueryInterceptor) -> None:
        self.interceptors.append(interceptor)

    def remove_interceptor(self, interceptor: QueryInterceptor) -> None:
        if interceptor in self.interceptors:
            self.interceptors.remove(interceptor)

    def intercept(self, description: "QueryDescription"):
        """Offer a query to every interceptor; first hit wins."""
        for interceptor in self.interceptors:
            handled, result = interceptor.try_fetch(description)
            if handled:
                return True, result
        return False, None


#: The default registry, used when a model does not name one explicitly —
#: mirroring Django's single global app registry.
default_registry = Registry("default")
