"""Shared test helpers: small model sets bound to throwaway registries."""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.memcache import CacheServer
from repro.obs import hooks
from repro.orm import (CharField, FloatTimestampField, ForeignKey,
                       IntegerField, Model, Registry, TextField)
from repro.storage import Database


def exact_numbers(metrics) -> Dict[str, Any]:
    """Every number of a simulated run that retained and streaming metrics
    both compute exactly: all of them but the percentiles."""
    return {"throughput": metrics.throughput,
            "mean_latency": metrics.mean_latency,
            "completed_pages": metrics.completed_pages,
            "window": metrics.measured_window,
            "latency_by_page": metrics.latency_by_page()}


def database_rows(model: type, **filters: Any) -> List[Dict[str, Any]]:
    """``model``'s rows whose columns equal ``filters``, read from its
    database directly: the ground truth no interceptor can answer for."""
    return model._meta.registry.db.find(model._meta.db_table, where=filters)


def build_blog_models(name: str = "blog") -> Dict[str, object]:
    """Create a small Author/Post/Comment model set on a fresh registry.

    The classes are created inside this function so every caller gets an
    isolated registry (no cross-test pollution through the default registry).
    """
    reg = Registry(name)

    class Author(Model):
        username = CharField(max_length=50, unique=True)
        karma = IntegerField(default=0)

        class Meta:
            registry = reg

    class Post(Model):
        author = ForeignKey(Author)
        title = CharField(max_length=120)
        body = TextField(null=True)
        score = IntegerField(default=0, db_index=True)
        published = FloatTimestampField(db_index=True)

        class Meta:
            registry = reg

    class Comment(Model):
        post = ForeignKey(Post)
        author = ForeignKey(Author)
        text = TextField()
        created = FloatTimestampField()

        class Meta:
            registry = reg

    registry = reg

    database = Database(name=f"{name}-db")
    registry.bind(database)
    registry.create_all()
    return {
        "registry": registry,
        "database": database,
        "Author": Author,
        "Post": Post,
        "Comment": Comment,
    }


def build_cache_servers(count: int = 2, capacity: int = 4 * 1024 * 1024):
    """Build a list of small cache servers for CacheGenie tests."""
    return [CacheServer(f"test-cache{i}", capacity_bytes=capacity) for i in range(count)]


class SpanLog(hooks.Observer):
    """Subscribe it to the hook chain to log each closing span of the
    watched labels as ``(label, args)``, in the order they close."""

    def __init__(self, *labels: str) -> None:
        self.labels = labels
        self.spans: List[Tuple[str, Dict[str, Any]]] = []

    def exit(self, label: str, args: Dict[str, Any]) -> None:
        if label in self.labels:
            self.spans.append((label, dict(args)))
