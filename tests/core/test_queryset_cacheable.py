"""Tests for the queryset-native cacheable() API: inference, duplicate-shape
detection, interceptor precedence, and per-object accounting lifecycle."""

import inspect

import pytest

from repro.core import (CacheGenie, ChainStep, CountQuery, FeatureQuery,
                        LinkQuery, Param, TopKQuery, cacheable)
from repro.errors import CacheClassError, TemplateError


class TestInference:
    def test_plain_filter_infers_feature_query(self, stack):
        Profile = stack["Profile"]
        cached = stack["genie"].cacheable(
            Profile.objects.filter(person_id=Param("person_id")))
        assert isinstance(cached, FeatureQuery)
        assert cached.where_fields == ["person_id"]

    def test_count_terminal_infers_count_query(self, stack):
        Item = stack["Item"]
        cached = stack["genie"].cacheable(
            Item.objects.filter(owner_id=Param("owner_id")).count())
        assert isinstance(cached, CountQuery)

    def test_ordered_slice_infers_topk_query(self, stack):
        Wall = stack["Wall"]
        cached = stack["genie"].cacheable(
            Wall.objects.filter(person_id=Param("person_id"))
            .order_by("-posted")[:5])
        assert isinstance(cached, TopKQuery)
        assert cached.k == 5
        assert cached.sort_column == "posted" and cached.descending

    def test_through_chain_infers_link_query(self, stack):
        Edge = stack["Edge"]
        cached = stack["genie"].cacheable(
            Edge.objects.filter(src_id=Param("src_id")).through("dst"),
            use_transparently=False)
        assert isinstance(cached, LinkQuery)
        assert [m.__name__ for m in cached.chain_models] == ["Edge", "Person"]

    def test_shape_neutral_options_pass_through(self, stack):
        Wall = stack["Wall"]
        cached = stack["genie"].cacheable(
            Wall.objects.filter(person_id=Param("person_id"))
            .order_by("-posted")[:5],
            name="tight_topk", reserve=1)
        assert cached.reserve == 1 and cached.capacity == 6

    def test_shape_overrides_rejected(self, stack):
        Wall, Item = stack["Wall"], stack["Item"]
        topk_template = Wall.objects.filter(person_id=Param("person_id")) \
            .order_by("-posted")[:20]
        with pytest.raises(CacheClassError, match="shape"):
            stack["genie"].cacheable(topk_template, k=10)
        with pytest.raises(CacheClassError, match="shape"):
            stack["genie"].cacheable(topk_template, sort_order="ascending")
        with pytest.raises(CacheClassError, match="shape"):
            stack["genie"].cacheable(
                Item.objects.filter(owner_id=Param("owner_id")),
                cache_class_type="CountQuery")

    def test_default_names_match_legacy_convention(self, stack):
        Profile = stack["Profile"]
        cached = stack["genie"].cacheable(
            Profile.objects.filter(person_id=Param("person_id")))
        assert cached.name == "featurequery_profile_by_person_id"

    def test_module_level_cacheable_accepts_querysets(self, stack):
        Item = stack["Item"]
        cached = cacheable(Item.objects.filter(owner_id=Param("owner_id")))
        assert cached.name in stack["genie"].cached_objects

    def test_non_template_queryset_rejected(self, stack):
        Profile = stack["Profile"]
        with pytest.raises(TemplateError, match="Param"):
            stack["genie"].cacheable(Profile.objects.filter(person_id=1))

    def test_garbage_argument_rejected(self, stack):
        with pytest.raises(CacheClassError):
            stack["genie"].cacheable(42)

    def test_typo_in_field_fails_at_declaration(self, stack):
        from repro.errors import FieldError
        Profile = stack["Profile"]
        with pytest.raises(FieldError):
            stack["genie"].cacheable(
                Profile.objects.filter(persn_id=Param("person_id")))


class TestEndToEnd:
    def test_transparent_interception_through_new_api(self, stack):
        genie, Person, Profile = stack["genie"], stack["Person"], stack["Profile"]
        cached = genie.cacheable(
            Profile.objects.filter(person_id=Param("person_id")))
        person = Person.objects.create(name="p")
        Profile.objects.create(person=person, bio="hello")
        assert Profile.objects.get(person_id=person.pk).bio == "hello"  # miss
        assert Profile.objects.get(person_id=person.pk).bio == "hello"  # hit
        assert cached.stats.cache_hits == 1
        assert cached.stats.transparent_fetches == 2

    def test_topk_declared_from_queryset_serves_topk_reads(self, stack):
        genie, Person, Wall = stack["genie"], stack["Person"], stack["Wall"]
        cached = genie.cacheable(
            Wall.objects.filter(person_id=Param("person_id"))
            .order_by("-posted")[:3])
        person = Person.objects.create(name="w")
        for i in range(6):
            Wall.objects.create(person=person, content=f"c{i}", posted=float(i))
        top = list(Wall.objects.filter(person_id=person.pk).order_by("-posted")[:3])
        assert [row.posted for row in top] == [5.0, 4.0, 3.0]
        assert cached.stats.transparent_fetches == 1

    def test_count_declared_from_queryset_serves_counts(self, stack):
        genie, Person, Item = stack["genie"], stack["Person"], stack["Item"]
        cached = genie.cacheable(
            Item.objects.filter(owner_id=Param("owner_id")).count())
        person = Person.objects.create(name="c")
        for i in range(4):
            Item.objects.create(owner=person, label=f"i{i}")
        assert Item.objects.filter(owner_id=person.pk).count() == 4
        assert Item.objects.filter(owner_id=person.pk).count() == 4
        assert cached.stats.cache_hits == 1


class TestDuplicateShapeDetection:
    def test_same_shape_under_two_names_rejected(self, stack):
        genie, Profile = stack["genie"], stack["Profile"]
        genie.cacheable(Profile.objects.filter(person_id=Param("person_id")),
                        name="first")
        with pytest.raises(CacheClassError) as excinfo:
            genie.cacheable(Profile.objects.filter(person_id=Param("p")),
                            name="second")
        assert "first" in str(excinfo.value) and "second" in str(excinfo.value)

    def test_detects_duplicates_across_declaration_styles(self, stack):
        genie, Profile = stack["genie"], stack["Profile"]
        genie.cacheable(Profile.objects.filter(person_id=Param("person_id")),
                        name="native")
        with pytest.raises(CacheClassError, match="native"):
            genie.cacheable(cache_class_type="FeatureQuery",
                            main_model="Profile", where_fields=["person_id"],
                            name="legacy")

    def test_different_shapes_on_same_columns_allowed(self, stack):
        genie, Item = stack["genie"], stack["Item"]
        genie.cacheable(Item.objects.filter(owner_id=Param("owner_id")))
        genie.cacheable(Item.objects.filter(owner_id=Param("owner_id")).count())
        genie.cacheable(Item.objects.filter(owner_id=Param("owner_id"))
                        .order_by("-rank")[:5])
        assert genie.cached_object_count == 3

    def test_shape_freed_after_removal(self, stack):
        genie, Profile = stack["genie"], stack["Profile"]
        genie.cacheable(Profile.objects.filter(person_id=Param("person_id")),
                        name="first")
        genie.remove_cached_object("first")
        replacement = genie.cacheable(
            Profile.objects.filter(person_id=Param("person_id")), name="second")
        assert replacement.name == "second"


class TestInterceptorPrecedence:
    """Multiple cached objects can match one query: first-registered wins."""

    def _declare_both(self, stack):
        genie, Wall = stack["genie"], stack["Wall"]
        feature = genie.cacheable(
            Wall.objects.filter(person_id=Param("person_id")), name="feature")
        topk = genie.cacheable(
            Wall.objects.filter(person_id=Param("person_id"))
            .order_by("-posted")[:5], name="topk")
        person = stack["Person"].objects.create(name="prec")
        for i in range(8):
            Wall.objects.create(person=person, content=f"c{i}", posted=float(i))
        return feature, topk, person

    def _read_topk(self, stack, person):
        Wall = stack["Wall"]
        return list(Wall.objects.filter(person_id=person.pk)
                    .order_by("-posted")[:5])

    def test_first_registered_object_serves_overlapping_queries(self, stack):
        feature, topk, person = self._declare_both(stack)
        rows = self._read_topk(stack, person)
        assert [r.posted for r in rows] == [7.0, 6.0, 5.0, 4.0, 3.0]
        assert feature.stats.transparent_fetches == 1
        assert topk.stats.transparent_fetches == 0

    def test_removal_promotes_next_registered_match(self, stack):
        feature, topk, person = self._declare_both(stack)
        self._read_topk(stack, person)
        stack["genie"].remove_cached_object("feature")
        rows = self._read_topk(stack, person)
        assert [r.posted for r in rows] == [7.0, 6.0, 5.0, 4.0, 3.0]
        assert feature.stats.transparent_fetches == 1  # unchanged
        assert topk.stats.transparent_fetches == 1

    def test_no_remaining_match_falls_back_to_database(self, stack):
        feature, topk, person = self._declare_both(stack)
        stack["genie"].remove_cached_object("feature")
        stack["genie"].remove_cached_object("topk")
        rows = self._read_topk(stack, person)
        assert [r.posted for r in rows] == [7.0, 6.0, 5.0, 4.0, 3.0]
        assert feature.stats.transparent_fetches == 0
        assert topk.stats.transparent_fetches == 0


class TestAccountingLifecycle:
    def test_remove_cached_object_drops_per_object_stats(self, stack):
        genie, Person, Profile = stack["genie"], stack["Person"], stack["Profile"]
        cached = genie.cacheable(
            Profile.objects.filter(person_id=Param("person_id")), name="gone")
        person = Person.objects.create(name="s")
        Profile.objects.create(person=person, bio="b")
        cached.evaluate(person_id=person.pk)
        cached.evaluate(person_id=person.pk)
        assert genie.stats.totals().cache_hits == 1
        genie.remove_cached_object("gone")
        assert "gone" not in genie.stats.per_object
        assert "gone" not in genie.stats.declarations
        assert genie.stats.totals().cache_hits == 0
        assert genie.effort_report()["cached_objects"] == 0

    def test_deactivate_tears_down_all_accounting(self, stack):
        genie, Profile, Item = stack["genie"], stack["Profile"], stack["Item"]
        genie.cacheable(Profile.objects.filter(person_id=Param("person_id")))
        genie.cacheable(Item.objects.filter(owner_id=Param("owner_id")).count())
        genie.deactivate()
        assert genie.stats.per_object == {}
        assert genie.stats.declarations == {}
        assert genie.stats.totals().cache_hits == 0
        genie.activate()  # leave the fixture something consistent to tear down


def query_fields(value):
    """A storage query (or any part of one) as nested plain values."""
    if isinstance(value, list):
        return [query_fields(part) for part in value]
    if hasattr(value, "__dict__"):
        return type(value).__name__, {name: query_fields(part)
                                      for name, part in vars(value).items()}
    return value


#: One shape per cache class (and one with constant filters, declared in
#: unsorted order): the paper's keywords, and the same query as a queryset.
BOTH_FORMS = {
    "FeatureQuery": (
        dict(cache_class_type="FeatureQuery", main_model="Profile",
             where_fields=["person_id"]),
        lambda s: s["Profile"].objects.filter(person_id=Param("person_id"))),
    "CountQuery": (
        dict(cache_class_type="CountQuery", main_model="Item",
             where_fields=["owner_id"]),
        lambda s: s["Item"].objects.filter(owner_id=Param("o")).count()),
    "TopKQuery": (
        dict(cache_class_type="TopKQuery", main_model="Wall",
             where_fields=["person_id"], sort_field="posted", k=5),
        lambda s: s["Wall"].objects.filter(person_id=Param("person_id"))
        .order_by("-posted")[:5]),
    "LinkQuery": (
        dict(cache_class_type="LinkQuery", main_model="Edge",
             where_fields=["src_id"],
             chain=[ChainStep.forward("dst"), ChainStep.reverse("Item", "owner")],
             order_by="rank", descending=False, limit=2),
        lambda s: s["Edge"].objects.filter(src_id=Param("src_id"))
        .through("dst", ("reverse", "Item", "owner")).order_by("rank")[:2]),
    "CountQuery-consts": (
        dict(cache_class_type="CountQuery", main_model="Item",
             where_fields=["owner"], const_filters={"rank": 1, "label": "x"}),
        lambda s: s["Item"].objects.filter(owner_id=Param("o"), label="x",
                                           rank=1).count()),
}


class TestLegacyAdapter:
    @pytest.mark.parametrize("shape", sorted(BOTH_FORMS))
    def test_legacy_and_queryset_forms_share_one_template_shape(
            self, stack, monkeypatch, shape):
        genie = stack["genie"]
        keywords, queryset = BOTH_FORMS[shape]

        def declare(*args, **kwargs):
            """Declare, recompute one key, remove; what the object was."""
            cached = genie.cacheable(*args, name="both", **kwargs)
            sent = []
            for op in ("select", "count"):
                run = getattr(genie.db, op)
                monkeypatch.setattr(genie.db, op, lambda query, run=run: (
                    sent.append(query_fields(query)), run(query))[1])
            cached.compute_from_db({cached.where_fields[0]: 1})
            monkeypatch.undo()
            genie.remove_cached_object("both")
            return (cached.template, cached.template.shape_fingerprint(),
                    cached.keys.prefix, sent)

        legacy = declare(**keywords)
        native = declare(queryset(stack))
        assert legacy == native
        assert len(legacy[3]) == 1

    def test_legacy_positional_form_still_works(self, stack):
        cached = stack["genie"].cacheable("FeatureQuery", "Profile", ["person_id"])
        assert isinstance(cached, FeatureQuery)

    def test_legacy_positional_name_is_honored(self, stack):
        cached = stack["genie"].cacheable("CountQuery", "Item", ["owner_id"],
                                          "my_count")
        assert cached.name == "my_count"
        assert stack["genie"].cached_objects["my_count"] is cached

    def test_excess_legacy_positionals_rejected(self, stack):
        with pytest.raises(CacheClassError, match="positional"):
            stack["genie"].cacheable("FeatureQuery", "Profile", ["person_id"],
                                     "a_name", "update-in-place")

    def test_effort_report_notes_legacy_declarations(self, stack):
        genie, Profile, Item = stack["genie"], stack["Profile"], stack["Item"]
        genie.cacheable(Profile.objects.filter(person_id=Param("person_id")))
        report = genie.effort_report()
        assert report["queryset_declarations"] == 1
        assert report["legacy_keyword_declarations"] == 0
        assert "notes" not in report
        genie.cacheable(cache_class_type="CountQuery", main_model="Item",
                        where_fields=["owner_id"])
        report = genie.effort_report()
        assert report["legacy_keyword_declarations"] == 1
        assert any("deprecated" in note for note in report["notes"])

    def test_declaration_report_distinguishes_apis(self, stack):
        genie, Profile, Item = stack["genie"], stack["Profile"], stack["Item"]
        genie.cacheable(Profile.objects.filter(person_id=Param("person_id")),
                        name="native")
        genie.cacheable(cache_class_type="CountQuery", main_model="Item",
                        where_fields=["owner_id"], name="legacy")
        report = genie.declaration_report()
        assert report["native"]["api"] == "queryset"
        assert report["native"]["inferred"] is True
        assert report["native"]["cache_class"] == "FeatureQuery"
        assert report["legacy"]["api"] == "keywords"
        assert report["legacy"]["inferred"] is False


class TestSocialAppPort:
    """Acceptance: the 14 social cached objects, declared queryset-natively."""

    EXPECTED_CLASSES = {
        "user_profile": FeatureQuery,
        "user_by_id": FeatureQuery,
        "friendships_of_user": FeatureQuery,
        "invitations_to_user": FeatureQuery,
        "bookmarks_of_user": FeatureQuery,
        "friend_count": CountQuery,
        "pending_invitation_count": CountQuery,
        "bookmark_save_count": CountQuery,
        "user_bookmark_count": CountQuery,
        "wall_post_count": CountQuery,
        "latest_bookmarks": TopKQuery,
        "latest_wall_posts": TopKQuery,
        "friends_of_user": LinkQuery,
        "friend_bookmarks": LinkQuery,
    }

    def test_inference_picks_the_same_four_cache_classes(self, social_genie):
        cached = social_genie["cached"]
        assert set(cached) == set(self.EXPECTED_CLASSES)
        for name, expected_class in self.EXPECTED_CLASSES.items():
            assert type(cached[name]) is expected_class, name

    def test_every_declaration_is_queryset_native(self, social_genie):
        report = social_genie["genie"].effort_report()
        assert report["queryset_declarations"] == 14
        assert report["legacy_keyword_declarations"] == 0

    def test_no_cache_class_type_strings_in_the_port(self):
        from repro.apps.social import cached_objects
        source = inspect.getsource(cached_objects)
        assert "cache_class_type" not in source

    def test_topk_parameters_survive_inference(self, social_genie):
        cached = social_genie["cached"]
        assert cached["latest_wall_posts"].k == 20
        assert cached["latest_wall_posts"].sort_column == "date_posted"
        assert cached["latest_bookmarks"].k == 10
        assert cached["latest_bookmarks"].sort_column == "added"

    def test_link_chains_survive_inference(self, social_genie):
        cached = social_genie["cached"]
        assert [m.__name__ for m in cached["friends_of_user"].chain_models] == \
            ["Friendship", "User"]
        assert [m.__name__ for m in cached["friend_bookmarks"].chain_models] == \
            ["Friendship", "User", "BookmarkInstance"]
        assert cached["friend_bookmarks"].sort_column == "added"
        assert cached["friend_bookmarks"].descending is True
