"""Tests for the FeatureQuery cache class."""

import pytest

from repro.core import INVALIDATE, evaluate_many
from repro.errors import CacheClassError


@pytest.fixture
def profile_setup(stack):
    Person, Profile = stack["Person"], stack["Profile"]
    people = [Person.objects.create(name=f"p{i}") for i in range(3)]
    for person in people:
        Profile.objects.create(person=person, bio=f"bio of {person.name}")
    stack["people"] = people
    return stack


class TestEvaluateAndTransparency:
    def test_miss_then_hit(self, profile_setup):
        genie = profile_setup["genie"]
        cached = genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                                 where_fields=["person_id"])
        person = profile_setup["people"][0]
        rows = cached.evaluate(person_id=person.pk)
        assert rows[0]["bio"] == "bio of p0"
        assert cached.stats.cache_misses == 1
        rows_again = cached.evaluate(person_id=person.pk)
        assert rows_again == rows
        assert cached.stats.cache_hits == 1

    def test_transparent_orm_interception(self, profile_setup):
        genie = profile_setup["genie"]
        cached = genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                                 where_fields=["person_id"])
        Profile = profile_setup["Profile"]
        person = profile_setup["people"][1]
        first = Profile.objects.get(person_id=person.pk)
        second = Profile.objects.get(person_id=person.pk)
        assert first.bio == second.bio == "bio of p1"
        assert cached.stats.cache_hits >= 1
        assert cached.stats.transparent_fetches == 2

    def test_use_transparently_false_is_not_intercepted(self, profile_setup):
        genie = profile_setup["genie"]
        cached = genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                                 where_fields=["person_id"], use_transparently=False)
        Profile = profile_setup["Profile"]
        Profile.objects.get(person_id=profile_setup["people"][0].pk)
        assert cached.stats.transparent_fetches == 0
        # Explicit evaluate still works.
        assert cached.evaluate(person_id=profile_setup["people"][0].pk)

    def test_peek_does_not_fall_back_to_db(self, profile_setup):
        genie = profile_setup["genie"]
        cached = genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                                 where_fields=["person_id"])
        assert cached.peek(person_id=profile_setup["people"][0].pk) is None

    def test_evaluate_accepts_model_instance(self, profile_setup):
        genie = profile_setup["genie"]
        cached = genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                                 where_fields=["person_id"])
        person = profile_setup["people"][2]
        rows = cached.evaluate(person_id=person)
        assert rows[0]["person_id"] == person.pk

    def test_returned_rows_are_detached_copies(self, profile_setup):
        genie = profile_setup["genie"]
        cached = genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                                 where_fields=["person_id"])
        person = profile_setup["people"][0]
        rows = cached.evaluate(person_id=person.pk)
        rows[0]["bio"] = "mutated by caller"
        assert cached.evaluate(person_id=person.pk)[0]["bio"] == "bio of p0"


class TestParameterNames:
    """Field name, attname and column all name the same where-field; the
    name -> column resolution is remembered per cached object."""

    def test_every_spelling_builds_the_same_key(self, profile_setup):
        cached = profile_setup["genie"].cacheable(
            cache_class_type="FeatureQuery", main_model="Profile",
            where_fields=["person_id"])
        person = profile_setup["people"][0]
        key = cached.make_key(person_id=person.pk)
        for _ in range(2):  # second pass: resolved from the remembered map
            assert cached._normalize_params({"person": person}) == \
                {"person_id": person.pk}
            assert cached._normalize_params({"person_id": person.pk}) == \
                {"person_id": person.pk}
        assert cached._key_of({"person_id": person.pk}) == key
        assert cached._param_columns == {"person": "person_id",
                                         "person_id": "person_id"}

    def test_unknown_names_pass_through_and_are_not_remembered(self, profile_setup):
        cached = profile_setup["genie"].cacheable(
            cache_class_type="FeatureQuery", main_model="Profile",
            where_fields=["person_id"])
        for junk in ("nope", "also_nope"):
            assert cached._normalize_params({junk: 1}) == {junk: 1}
        assert cached._param_columns == {}
        with pytest.raises(CacheClassError, match="requires parameter 'person_id'"):
            cached.evaluate(nope=1)

    def test_evaluate_many_leaves_the_callers_params_alone(self, profile_setup):
        cached = profile_setup["genie"].cacheable(
            cache_class_type="FeatureQuery", main_model="Profile",
            where_fields=["person_id"])
        people = profile_setup["people"]
        requests = [(cached, {"person": person}) for person in people]
        results = evaluate_many(requests)
        assert [rows[0]["bio"] for rows in results] == \
            [f"bio of {person.name}" for person in people]
        assert [params for _obj, params in requests] == \
            [{"person": person} for person in people]
        assert results == [cached.evaluate(person=person) for person in people]


class TestOversizedValues:
    def test_value_over_the_item_limit_is_served_uncached(self, stack):
        """Single-key evaluate() and batched evaluate_many() agree: the
        rows are served from the database and the store is refused."""
        Person, Wall = stack["Person"], stack["Wall"]
        stack["cache_server"].max_item_bytes = 4096
        person = Person.objects.create(name="prolific")
        for i in range(20):
            # Distinct strings: pickle would store one shared object once.
            Wall.objects.create(person=person, content=f"{i:02d}" + "x" * 600,
                                posted=float(i))
        walls = stack["genie"].cacheable(cache_class_type="FeatureQuery",
                                         main_model="Wall",
                                         where_fields=["person_id"])
        rows = walls.evaluate(person_id=person.pk)
        assert len(rows) == 20
        assert walls.peek(person_id=person.pk) is None
        assert evaluate_many([(walls, {"person_id": person.pk})]) == [rows]
        assert walls.stats.db_fallbacks == 2


class TestUpdateInPlace:
    def test_update_trigger_refreshes_cached_row(self, profile_setup):
        genie = profile_setup["genie"]
        Profile = profile_setup["Profile"]
        cached = genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                                 where_fields=["person_id"])
        person = profile_setup["people"][0]
        cached.evaluate(person_id=person.pk)
        Profile.objects.filter(person_id=person.pk).update(bio="updated bio")
        assert cached.peek(person_id=person.pk)[0]["bio"] == "updated bio"
        assert cached.stats.updates_applied >= 1

    def test_insert_trigger_appends_only_if_cached(self, profile_setup):
        genie = profile_setup["genie"]
        Profile = profile_setup["Profile"]
        cached = genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                                 where_fields=["person_id"])
        person = profile_setup["people"][0]
        # Not cached yet: trigger must quit without creating the entry.
        Profile.objects.create(person=person, bio="second profile row")
        assert cached.peek(person_id=person.pk) is None
        # Once cached, inserts are appended in place.
        assert len(cached.evaluate(person_id=person.pk)) == 2
        Profile.objects.create(person=person, bio="third profile row")
        assert len(cached.peek(person_id=person.pk)) == 3

    def test_delete_trigger_removes_row(self, profile_setup):
        genie = profile_setup["genie"]
        Profile = profile_setup["Profile"]
        cached = genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                                 where_fields=["person_id"])
        person = profile_setup["people"][1]
        cached.evaluate(person_id=person.pk)
        Profile.objects.filter(person_id=person.pk).delete()
        assert cached.peek(person_id=person.pk) == []

    def test_update_moving_row_between_groups(self, profile_setup):
        genie = profile_setup["genie"]
        Profile = profile_setup["Profile"]
        cached = genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                                 where_fields=["person_id"])
        src, dst = profile_setup["people"][0], profile_setup["people"][2]
        cached.evaluate(person_id=src.pk)
        cached.evaluate(person_id=dst.pk)
        profile = Profile.objects.get(person_id=src.pk)
        Profile.objects.filter(id=profile.pk).update(person_id=dst.pk)
        assert cached.peek(person_id=src.pk) == []
        assert len(cached.peek(person_id=dst.pk)) == 2


class TestInvalidateStrategy:
    def test_write_invalidates_only_affected_key(self, profile_setup):
        genie = profile_setup["genie"]
        Profile = profile_setup["Profile"]
        cached = genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                                 where_fields=["person_id"],
                                 update_strategy=INVALIDATE)
        a, b = profile_setup["people"][0], profile_setup["people"][1]
        cached.evaluate(person_id=a.pk)
        cached.evaluate(person_id=b.pk)
        Profile.objects.filter(person_id=a.pk).update(bio="new")
        # Exactly the affected entry disappears (unlike template invalidation).
        assert cached.peek(person_id=a.pk) is None
        assert cached.peek(person_id=b.pk) is not None
        assert cached.stats.invalidations >= 1

    def test_next_read_recomputes_fresh_value(self, profile_setup):
        genie = profile_setup["genie"]
        Profile = profile_setup["Profile"]
        cached = genie.cacheable(cache_class_type="FeatureQuery", main_model="Profile",
                                 where_fields=["person_id"],
                                 update_strategy=INVALIDATE)
        person = profile_setup["people"][0]
        cached.evaluate(person_id=person.pk)
        Profile.objects.filter(person_id=person.pk).update(bio="fresh")
        assert cached.evaluate(person_id=person.pk)[0]["bio"] == "fresh"
