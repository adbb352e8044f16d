"""Tests for cache-key construction and consistency strategies."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import keys as keys_module
from repro.core.keys import KeyScheme, fingerprint
from repro.core.strategies import (EXPIRY, INVALIDATE, UPDATE_IN_PLACE,
                                   resolve_strategy)
from repro.errors import CacheClassError


class TestKeyScheme:
    def test_keys_are_deterministic(self):
        a = KeyScheme("user_profile", fingerprint("FeatureQuery", "profiles", "user_id"))
        b = KeyScheme("user_profile", fingerprint("FeatureQuery", "profiles", "user_id"))
        assert a.key_for([42]) == b.key_for([42])

    def test_different_definitions_do_not_collide(self):
        a = KeyScheme("counts", fingerprint("CountQuery", "bookmarks", "user_id"))
        b = KeyScheme("counts", fingerprint("CountQuery", "wall", "user_id"))
        assert a.key_for([42]) != b.key_for([42])

    def test_distinct_values_distinct_keys(self):
        scheme = KeyScheme("obj", "fp")
        assert scheme.key_for([1]) != scheme.key_for([2])
        assert scheme.key_for([1, 2]) != scheme.key_for([2, 1])

    def test_keys_are_memcached_safe(self):
        scheme = KeyScheme("weird name!", "fp")
        key = scheme.key_for(["value with spaces", None, 3.5])
        assert len(key) <= 250
        assert not any(ch.isspace() for ch in key)

    def test_long_values_are_hashed(self):
        scheme = KeyScheme("obj", "fp")
        key = scheme.key_for(["x" * 500])
        assert len(key) <= 250


class TestKeyMemo:
    """``key_for`` is a pure function of each component's (type, value)."""

    @pytest.mark.parametrize("order", list(itertools.permutations(
        [1, True, 1.0])))
    def test_hash_equal_values_never_share_a_key(self, order):
        # 1 == True == 1.0 and all three hash alike; their keys differ, and
        # must not depend on which one the scheme saw first.
        scheme = KeyScheme("obj", "fp")
        built = {repr(value): scheme.key_for([value]) for value in order}
        prefix = scheme.prefix
        assert built == {"1": f"{prefix}:1", "True": f"{prefix}:True",
                         "1.0": f"{prefix}:1.0"}
        # ... and a second pass (every memoisable value now memoised) agrees.
        assert {repr(v): scheme.key_for([v]) for v in order} == built

    def test_signed_zero_is_not_conflated(self):
        scheme = KeyScheme("obj", "fp")
        assert scheme.key_for([0.0]) != scheme.key_for([-0.0])
        assert scheme.key_for([-0.0]) == scheme._build([-0.0])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(
        st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                  st.floats(allow_nan=False), st.text(max_size=3),
                  st.tuples(st.integers(0, 1))),
        min_size=1, max_size=3), min_size=1, max_size=12))
    def test_memoised_key_equals_fresh_build(self, value_lists):
        scheme = KeyScheme("obj", "fp")
        for values in value_lists:
            assert scheme.key_for(values) == KeyScheme("obj", "fp")._build(values)

    def test_unhashable_components_are_built_unmemoised(self):
        scheme = KeyScheme("obj", "fp")
        assert scheme.key_for([[1, 2]]) == scheme._build([[1, 2]])
        assert not scheme._memo

    def test_memo_is_capped(self, monkeypatch):
        monkeypatch.setattr(keys_module, "KEY_MEMO_MAX", 8)
        scheme = KeyScheme("obj", "fp")
        for value in range(100):
            assert scheme.key_for([value]) == scheme._build([value])
            assert len(scheme._memo) <= 8


class TestStrategies:
    def test_validate_known(self):
        for strategy in (UPDATE_IN_PLACE, INVALIDATE, EXPIRY):
            assert resolve_strategy(strategy).name == strategy

    def test_validate_unknown_raises(self):
        with pytest.raises(CacheClassError):
            resolve_strategy("write-through")

    def test_needs_triggers(self):
        assert resolve_strategy(UPDATE_IN_PLACE).needs_triggers
        assert resolve_strategy(INVALIDATE).needs_triggers
        assert not resolve_strategy(EXPIRY).needs_triggers
