"""Tests for fields, model declaration, and instance persistence."""

import itertools

import pytest

from repro.apps.social import SeedScale
from repro.apps.social.models import User
from repro.bench.scenarios import NO_CACHE, Scenario, ScenarioConfig
from repro.errors import DoesNotExist, ModelError
from repro.orm import BooleanField, CharField, IntegerField, Model, Registry
from repro.storage import Database

from tests.helpers import build_blog_models


class TestModelDeclaration:
    def test_implicit_id_primary_key(self):
        stack = build_blog_models("decl1")
        Author = stack["Author"]
        assert Author._meta.pk.name == "id"
        assert Author._meta.pk_column == "id"

    def test_db_table_defaults_to_lowercased_name(self):
        stack = build_blog_models("decl2")
        assert stack["Author"]._meta.db_table == "author"

    def test_fk_creates_id_column_and_index(self):
        stack = build_blog_models("decl3")
        Post = stack["Post"]
        schema = Post._meta.build_schema()
        assert "author_id" in schema.column_names
        assert any(idx.columns == ("author_id",) for idx in schema.indexes)

    def test_unique_field_gets_unique_index(self):
        stack = build_blog_models("decl4")
        schema = stack["Author"]._meta.build_schema()
        unique = [idx for idx in schema.indexes if idx.unique]
        assert any(idx.columns == ("username",) for idx in unique)

    def test_unknown_constructor_kwarg_rejected(self):
        stack = build_blog_models("decl5")
        with pytest.raises(ModelError):
            stack["Author"](nonexistent="x")

    def test_registry_registration(self):
        stack = build_blog_models("decl6")
        registry = stack["registry"]
        assert registry.get_model("author") is stack["Author"]


class TestConstructor:
    """Every keyword form ``Model(**kwargs)`` accepts, and the two it refuses."""

    def test_field_name_fk_instance_fk_pk_and_raw_attname(self):
        stack = build_blog_models("ctor1")
        Author, Post = stack["Author"], stack["Post"]
        author = Author.objects.create(username="alice")
        by_instance = Post(author=author, title="t")
        by_pk = Post(author=author.pk, title="t")
        by_attname = Post(author_id=author.pk, title="t")
        for post in (by_instance, by_pk, by_attname):
            assert post.author_id == author.pk
            assert post.title == "t" and post.score == 0 and post.body is None
            assert post.pk is None
        assert by_instance.author is author               # cached, no query
        assert by_pk.author == by_attname.author == author
        assert Post(author=None, title="t").author_id is None

    def test_unknown_keyword_message(self):
        stack = build_blog_models("ctor2")
        with pytest.raises(ModelError) as caught:
            stack["Author"](username="x", nonexistent="y")
        assert str(caught.value) == "Author has no field 'nonexistent'"
        with pytest.raises(ModelError):                   # and again: no memo
            stack["Author"](nonexistent="y")

    def test_callable_defaults_run_once_per_instance(self):
        reg = Registry("ctor4")
        serial = itertools.count(1)

        class Ticket(Model):
            number = IntegerField(default=lambda: next(serial))
            tags = CharField(default=list)
            owner = CharField(default="nobody")

            class Meta:
                registry = reg

        first, second, explicit = Ticket(), Ticket(), Ticket(number=99)
        assert (first.number, second.number, explicit.number) == (1, 2, 99)
        assert next(serial) == 4            # evaluated even when overridden
        assert first.tags == [] and first.tags is not second.tags
        assert first.owner == "nobody"
        assert list(vars(first)) == ["_state_adding", "id", "number", "tags", "owner"]

    def test_a_boolean_field_declared_without_a_default_is_false(self):
        reg = Registry("ctor6")

        class Flag(Model):
            on = BooleanField()
            forced = BooleanField(default=True)
            label = CharField(null=True)

            class Meta:
                registry = reg

        reg.bind(Database(name="ctor6-db"))
        reg.create_all()
        flag = Flag.objects.create()
        assert (flag.on, flag.forced, flag.label) == (False, True, None)
        assert Flag.objects.get(id=flag.pk).on is False

    def test_field_added_after_the_first_instance_is_seen(self):
        stack = build_blog_models("ctor5")
        Author = stack["Author"]
        assert not hasattr(Author(username="a"), "rank")
        with pytest.raises(ModelError):
            Author(rank=1)
        IntegerField(default=7).contribute_to_class(Author, "rank")
        assert Author(username="b").rank == 7
        late = Author(username="c", rank=1)
        assert late.rank == 1
        assert late._column_values(include_pk=False) == {
            "username": "c", "karma": 0, "rank": 1}


class TestSavePath:
    """``save()`` compiles nothing that outlives a rebinding: the clock, the
    database and ``Database.insert`` itself are looked up on every call."""

    def test_second_scenario_gets_its_own_clock_and_database(self):
        scenarios = []
        for now in (111.0, 222.0):
            scenario = Scenario(ScenarioConfig(
                name=NO_CACHE, seed_scale=SeedScale.tiny()))
            scenario.clock.advance(now)
            user = User.objects.create(username=f"late-{now}")
            assert user.date_joined == now
            scenarios.append((scenario, user, now))
        first, second = scenarios
        # Both rows are the first of their own database, stamped by its clock.
        for scenario, user, now in scenarios:
            rows = scenario.database.find("auth_user")
            assert [(row["id"], row["date_joined"]) for row in rows] == [(1, now)]
            assert user.pk == 1
        assert first[0].database is not second[0].database
        second[0].teardown()

    def test_saved_twice_inserts_then_updates(self):
        stack = build_blog_models("save2")
        author = stack["Author"](username="alice")
        with stack["database"].measure() as counters:
            author.save()
            author.karma = 5
            author.save()
        assert (counters.inserts, counters.updates) == (1, 1)
        assert stack["Author"].objects.get(id=author.pk).karma == 5

    def test_save_reaches_an_insert_shadowed_on_the_database_instance(self):
        """What ``benchmarks/e2e/e2ebench/spans.py`` does to time the layer."""
        stack = build_blog_models("save3")
        database, calls = stack["database"], []
        insert = database.insert

        def traced(table, values):
            calls.append((table, dict(values)))
            return insert(table, values)
        database.insert = traced
        stack["Author"](username="alice").save()
        stack["Author"].objects.create(username="bob", karma=2)
        assert calls == [("author", {"username": "alice", "karma": 0}),
                         ("author", {"username": "bob", "karma": 2})]

    def test_explicit_pk_is_inserted_and_fk_instances_are_unwrapped(self):
        stack = build_blog_models("save4")
        Author, Post = stack["Author"], stack["Post"]
        author = Author(id=40, username="alice").save()
        assert author.pk == 40 and Author.objects.create(username="b").pk == 41
        stack["registry"].clock = lambda: 5.0
        post = Post(author=author, title="t").save()
        assert stack["database"].get_by_pk("post", post.pk) == {
            "id": 1, "author_id": 40, "title": "t", "body": None,
            "score": 0, "published": 5.0}


class TestPersistence:
    def test_create_assigns_pk(self):
        stack = build_blog_models("persist1")
        author = stack["Author"].objects.create(username="alice")
        assert author.pk == 1

    def test_save_twice_updates_not_inserts(self):
        stack = build_blog_models("persist2")
        Author = stack["Author"]
        author = Author.objects.create(username="alice")
        author.karma = 10
        author.save()
        assert Author.objects.count() == 1
        assert Author.objects.get(id=author.pk).karma == 10

    def test_delete_removes_row(self):
        stack = build_blog_models("persist3")
        Author = stack["Author"]
        author = Author.objects.create(username="alice")
        author.delete()
        assert Author.objects.count() == 0
        with pytest.raises(DoesNotExist):
            Author.objects.get(id=author.pk)

    def test_delete_unsaved_raises(self):
        stack = build_blog_models("persist4")
        with pytest.raises(ModelError):
            stack["Author"](username="x").delete()

    def test_auto_now_add_uses_registry_clock(self):
        stack = build_blog_models("persist6")
        stack["registry"].clock = lambda: 1234.5
        post = stack["Post"].objects.create(
            author=stack["Author"].objects.create(username="a"), title="t")
        assert post.published == 1234.5

    def test_equality_and_hash_by_pk(self):
        stack = build_blog_models("persist7")
        Author = stack["Author"]
        a1 = Author.objects.create(username="alice")
        same = Author.objects.get(id=a1.pk)
        other = Author.objects.create(username="bob")
        assert a1 == same
        assert a1 != other
        assert len({a1, same, other}) == 2

    def test_to_dict(self):
        stack = build_blog_models("persist8")
        author = stack["Author"].objects.create(username="alice", karma=3)
        assert author.to_dict() == {"id": author.pk, "username": "alice", "karma": 3}

    def test_writes_go_through_database_triggers(self):
        stack = build_blog_models("persist9")
        events = []
        stack["database"].create_trigger(
            "audit", "author", "insert", lambda d: events.append(d["new"]["username"]))
        stack["Author"].objects.create(username="carol")
        assert events == ["carol"]
