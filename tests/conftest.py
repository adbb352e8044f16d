"""Shared pytest fixtures."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.apps.social import SeedScale, seed_database, social_registry
from repro.apps.social.cached_objects import install_cached_objects
from repro.apps.social.pages import SocialApplication
from repro.core import CacheGenie
from repro.memcache import CacheServer
from repro.sim import VirtualClock
from repro.storage import Database

#: ``--hypothesis-profile=deep`` (CI's simulator-smoke job): longer and more
#: histories for the state machines than tier-1's budget, which is what a
#: run without the flag gets (tests/memcache/test_tier_model.py).
settings.register_profile("deep", max_examples=500, stateful_step_count=80,
                          deadline=None)


@pytest.fixture
def social_stack():
    """The social app bound to a fresh database with a tiny seeded dataset."""
    clock = VirtualClock(1_000_000.0)
    database = Database(name="test-social", buffer_pool_pages=128)
    social_registry.unbind()
    social_registry.bind(database)
    social_registry.clock = clock
    social_registry.create_all()
    summary = seed_database(SeedScale.tiny())
    stack = {
        "database": database,
        "registry": social_registry,
        "clock": clock,
        "seed": summary,
        "app": SocialApplication(rng=random.Random(5)),
    }
    yield stack
    social_registry.unbind()


@pytest.fixture
def social_genie(social_stack):
    """The social stack with CacheGenie installed (update-in-place strategy)."""
    servers = [CacheServer("fixture-cache", capacity_bytes=8 * 1024 * 1024,
                           clock=social_stack["clock"])]
    genie = CacheGenie(
        registry=social_stack["registry"],
        database=social_stack["database"],
        cache_servers=servers,
    ).activate()
    cached = install_cached_objects(genie)
    social_stack["genie"] = genie
    social_stack["cached"] = cached
    social_stack["app"] = SocialApplication(cached_objects=cached,
                                            rng=random.Random(5))
    yield social_stack
    genie.deactivate()
