"""Tests for value serialization, CacheGenie statistics, and the expiry strategy."""

import copy
import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serializer import (_copy_row, freeze_rows, freeze_value,
                                   thaw_rows)
from repro.core.stats import CachedObjectStats, CacheGenieStats


class TestSerializer:
    def test_freeze_rows_detaches_nested_structures(self):
        original = [{"id": 1, "tags": ["a", "b"]}]
        frozen = freeze_rows(original)
        original[0]["tags"].append("mutated")
        assert frozen[0]["tags"] == ["a", "b"]

    def test_thaw_rows_detaches_from_cache_value(self):
        cached = [{"id": 1, "payload": {"x": 1}}]
        thawed = thaw_rows(cached)
        thawed[0]["payload"]["x"] = 99
        assert cached[0]["payload"]["x"] == 1

    def test_thaw_none_is_empty_list(self):
        assert thaw_rows(None) == []

    def test_freeze_value_passes_scalars_through(self):
        assert freeze_value(7) == 7
        assert freeze_value("x") == "x"
        assert freeze_value(None) is None

    def test_freeze_value_copies_containers(self):
        value = {"a": [1, 2]}
        frozen = freeze_value(value)
        value["a"].append(3)
        assert frozen["a"] == [1, 2]


_ATOMS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.text(max_size=8), st.binary(max_size=8))
_VALUES = st.recursive(
    st.one_of(_ATOMS, st.datetimes(), st.dates()),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner,
                                            max_size=3)),
    max_leaves=6)
_ROWS = st.dictionaries(st.text(max_size=6), _VALUES, max_size=6)


def _containers(value):
    """Every mutable container reachable from ``value``, itself included."""
    if isinstance(value, dict):
        yield value
        for inner in value.values():
            yield from _containers(inner)
    elif isinstance(value, list):
        yield value
        for inner in value:
            yield from _containers(inner)


class TestCopyRowIsDeepCopy:
    """The scalar-row shallow copy is ``copy.deepcopy``, only cheaper."""

    @settings(max_examples=300, deadline=None)
    @given(_ROWS)
    def test_equal_to_deepcopy_and_shares_no_container(self, row):
        copied = _copy_row(row)
        assert copied == copy.deepcopy(row)
        assert type(copied) is dict
        originals = {id(c) for c in _containers(row)}
        assert not originals & {id(c) for c in _containers(copied)}

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(max_size=6), _ATOMS, max_size=8))
    def test_scalar_rows_keep_their_value_objects(self, row):
        # deepcopy of an atomic returns the object itself; so must we.
        copied = _copy_row(row)
        assert copied is not row
        assert all(copied[k] is row[k] for k in row)

    def test_scalar_subclasses_take_the_deep_copy(self):
        class Tagged(str):
            pass
        tagged = Tagged("x")
        tagged.notes = ["mutable"]
        copied = _copy_row({"t": tagged})
        assert copied["t"] == "x" and copied["t"] is not tagged
        assert copied["t"].notes is not tagged.notes

    def test_datetimes_survive_the_round_trip(self):
        row = {"at": datetime.datetime(2011, 12, 12, 9, 30), "id": 1}
        assert thaw_rows(freeze_rows([row])) == [row]

    def test_freeze_value_shares_the_atomic_definition(self):
        payload = b"raw"
        assert freeze_value(payload) is payload
        assert freeze_value(2.5) == 2.5


class TestStats:
    def test_hit_ratio(self):
        stats = CachedObjectStats(cache_hits=3, cache_misses=1)
        assert stats.hit_ratio == pytest.approx(0.75)
        assert CachedObjectStats().hit_ratio == 0.0

    def test_totals_aggregate_across_objects(self):
        stats = CacheGenieStats()
        stats.per_object["a"] = CachedObjectStats(cache_hits=2)
        stats.per_object["b"] = CachedObjectStats(cache_hits=3,
                                                  invalidations=1)
        totals = stats.totals()
        assert totals.cache_hits == 5
        assert totals.invalidations == 1


class TestExpiryStrategy:
    def test_expiry_entries_age_out_and_recompute(self, stack):
        genie = stack["genie"]
        Person, Profile = stack["Person"], stack["Profile"]
        clock = stack["cache_server"].clock
        # Replace the server clock with a controllable one.
        from repro.sim import VirtualClock
        virtual = VirtualClock()
        stack["cache_server"].clock = virtual

        person = Person.objects.create(name="p")
        Profile.objects.create(person=person, bio="original")
        cached = genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                                 where_fields=["person_id"],
                                 update_strategy="expiry", expiry_seconds=30)
        assert cached.evaluate(person_id=person.pk)[0]["bio"] == "original"

        # A write does NOT touch the cache (no triggers for expiry strategy)...
        Profile.objects.filter(person_id=person.pk).update(bio="changed")
        assert cached.evaluate(person_id=person.pk)[0]["bio"] == "original"

        # ...until the entry expires and the next read recomputes it.
        virtual.advance(31)
        assert cached.evaluate(person_id=person.pk)[0]["bio"] == "changed"

    def test_expiry_strategy_installs_no_triggers(self, stack):
        genie = stack["genie"]
        before = len(stack["database"].triggers)
        genie.cacheable(cache_class_type="CountQuery", main_model="Item",
                        where_fields=["owner_id"], update_strategy="expiry")
        assert len(stack["database"].triggers) == before
