"""Fixtures for CacheGenie core tests: a small model set plus a genie."""

from __future__ import annotations

import itertools

import pytest

from repro.core import CacheGenie
from repro.memcache import CacheServer
from repro.orm import (CharField, FloatTimestampField, ForeignKey, IntegerField,
                       Model, Registry, TextField)
from repro.storage import Database

_COUNTER = itertools.count()


@pytest.fixture
def stack():
    """A fresh registry + database + CacheGenie with Person/Profile/Wall/Edge/Item models."""
    reg = Registry(f"core{next(_COUNTER)}")

    class Person(Model):
        name = CharField(max_length=60)

        class Meta:
            registry = reg

    class Profile(Model):
        person = ForeignKey(Person)
        bio = TextField(null=True)

        class Meta:
            registry = reg

    class Wall(Model):
        person = ForeignKey(Person)
        content = TextField()
        posted = FloatTimestampField(db_index=True)

        class Meta:
            registry = reg

    class Edge(Model):
        """A follows B."""

        src = ForeignKey(Person)
        dst = ForeignKey(Person)

        class Meta:
            registry = reg

    class Item(Model):
        owner = ForeignKey(Person)
        label = CharField(max_length=60)
        rank = IntegerField(default=0)

        class Meta:
            registry = reg

    database = Database(buffer_pool_pages=256)
    reg.bind(database)
    reg.create_all()
    servers = [CacheServer("core-cache", capacity_bytes=8 * 1024 * 1024)]
    genie = CacheGenie(registry=reg, database=database, cache_servers=servers).activate()
    yield {
        "registry": reg, "database": database, "genie": genie,
        "Person": Person, "Profile": Profile, "Wall": Wall,
        "Edge": Edge, "Item": Item,
        "cache_server": servers[0],
    }
    genie.deactivate()
