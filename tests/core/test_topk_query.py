"""Tests for the TopKQuery cache class (the paper's §3.2 worked example)."""

import pytest

from repro.errors import CacheClassError


@pytest.fixture
def wall_setup(stack):
    Person, Wall = stack["Person"], stack["Wall"]
    owner = Person.objects.create(name="wall-owner")
    other = Person.objects.create(name="other")
    for i in range(8):
        Wall.objects.create(person=owner, content=f"post {i}", posted=float(i))
    stack["owner"] = owner
    stack["other"] = other
    return stack


def make_topk(genie, k=3, reserve=2, **kwargs):
    return genie.cacheable(cache_class_type="TopKQuery", main_model="Wall",
                           where_fields=["person_id"], sort_field="posted",
                           sort_order="descending", k=k, reserve=reserve, **kwargs)


class TestDefinition:
    def test_invalid_k_rejected(self, stack):
        with pytest.raises(CacheClassError):
            make_topk(stack["genie"], k=0)

    def test_invalid_sort_order_rejected(self, stack):
        with pytest.raises(CacheClassError):
            stack["genie"].cacheable(cache_class_type="TopKQuery", main_model="Wall",
                                     where_fields=["person_id"], sort_field="posted",
                                     sort_order="sideways", k=3)


class TestEvaluate:
    def test_returns_top_k_in_order(self, wall_setup):
        cached = make_topk(wall_setup["genie"])
        rows = cached.evaluate(person_id=wall_setup["owner"].pk)
        assert [r["posted"] for r in rows] == [7.0, 6.0, 5.0]

    def test_cache_stores_reserve_rows(self, wall_setup):
        cached = make_topk(wall_setup["genie"], k=3, reserve=2)
        owner = wall_setup["owner"]
        cached.evaluate(person_id=owner.pk)
        raw = cached.peek(person_id=owner.pk)
        assert len(raw) == 5  # k + reserve

    def test_transparent_interception_of_order_by_limit(self, wall_setup):
        genie = wall_setup["genie"]
        Wall = wall_setup["Wall"]
        cached = make_topk(genie, k=3)
        owner = wall_setup["owner"]
        first = list(Wall.objects.filter(person_id=owner.pk).order_by("-posted")[:3])
        second = list(Wall.objects.filter(person_id=owner.pk).order_by("-posted")[:3])
        assert [w.posted for w in second] == [7.0, 6.0, 5.0]
        assert cached.stats.transparent_fetches == 2

    def test_larger_limits_are_not_intercepted(self, wall_setup):
        genie = wall_setup["genie"]
        Wall = wall_setup["Wall"]
        cached = make_topk(genie, k=3)
        owner = wall_setup["owner"]
        rows = list(Wall.objects.filter(person_id=owner.pk).order_by("-posted")[:6])
        assert len(rows) == 6
        assert cached.stats.transparent_fetches == 0


class TestIncrementalMaintenance:
    def test_insert_lands_at_correct_position(self, wall_setup):
        genie = wall_setup["genie"]
        Wall = wall_setup["Wall"]
        cached = make_topk(genie, k=3)
        owner = wall_setup["owner"]
        cached.evaluate(person_id=owner.pk)
        Wall.objects.create(person=owner, content="newest", posted=100.0)
        assert [r["posted"] for r in cached.evaluate(person_id=owner.pk)] == [100.0, 7.0, 6.0]
        Wall.objects.create(person=owner, content="middle", posted=6.5)
        assert [r["posted"] for r in cached.evaluate(person_id=owner.pk)] == [100.0, 7.0, 6.5]

    def test_insert_below_window_is_ignored(self, wall_setup):
        genie = wall_setup["genie"]
        Wall = wall_setup["Wall"]
        cached = make_topk(genie, k=3, reserve=1)
        owner = wall_setup["owner"]
        cached.evaluate(person_id=owner.pk)
        Wall.objects.create(person=owner, content="ancient", posted=-50.0)
        assert [r["posted"] for r in cached.evaluate(person_id=owner.pk)] == [7.0, 6.0, 5.0]

    def test_delete_consumes_reserve_without_recompute(self, wall_setup):
        genie = wall_setup["genie"]
        Wall = wall_setup["Wall"]
        cached = make_topk(genie, k=3, reserve=2)
        owner = wall_setup["owner"]
        cached.evaluate(person_id=owner.pk)
        recomputations_before = cached.stats.recomputations
        Wall.objects.filter(person_id=owner.pk, posted=7.0).delete()
        assert [r["posted"] for r in cached.evaluate(person_id=owner.pk)] == [6.0, 5.0, 4.0]
        assert cached.stats.recomputations == recomputations_before

    def test_exhausted_reserve_triggers_recompute(self, wall_setup):
        genie = wall_setup["genie"]
        Wall = wall_setup["Wall"]
        cached = make_topk(genie, k=3, reserve=1)
        owner = wall_setup["owner"]
        cached.evaluate(person_id=owner.pk)
        # Delete more rows than the reserve can absorb.
        for posted in (7.0, 6.0, 5.0):
            Wall.objects.filter(person_id=owner.pk, posted=posted).delete()
        rows = cached.evaluate(person_id=owner.pk)
        assert [r["posted"] for r in rows] == [4.0, 3.0, 2.0]

    def test_a_refill_holds_a_row_its_transaction_inserts_once(self, wall_setup):
        """A refill reads the database at the flush, after every statement
        of its transaction, so a row a later statement inserts is in the
        recompute already; that statement's own patch must not add it again."""
        genie, Wall = wall_setup["genie"], wall_setup["Wall"]
        cached = make_topk(genie, k=3, reserve=1)
        owner = wall_setup["owner"]
        cached.evaluate(person_id=owner.pk)            # 7, 6, 5, 4
        with wall_setup["database"].transaction():
            for posted in (7.0, 6.0):                  # 5, 4: below k
                Wall.objects.filter(person_id=owner.pk, posted=posted).delete()
            Wall.objects.create(person=owner, content="new", posted=6.5)
        assert [r["posted"] for r in cached.peek(person_id=owner.pk)] == \
            [6.5, 5.0, 4.0, 3.0]
        assert cached.stats.recomputations == 1

    def test_update_repositions_row(self, wall_setup):
        genie = wall_setup["genie"]
        Wall = wall_setup["Wall"]
        cached = make_topk(genie, k=3)
        owner = wall_setup["owner"]
        cached.evaluate(person_id=owner.pk)
        victim = Wall.objects.filter(person_id=owner.pk, posted=0.0).first()
        Wall.objects.filter(id=victim.pk).update(posted=50.0)
        assert [r["posted"] for r in cached.evaluate(person_id=owner.pk)] == [50.0, 7.0, 6.0]

    def test_other_users_wall_unaffected(self, wall_setup):
        genie = wall_setup["genie"]
        Wall = wall_setup["Wall"]
        cached = make_topk(genie, k=3)
        owner, other = wall_setup["owner"], wall_setup["other"]
        cached.evaluate(person_id=owner.pk)
        Wall.objects.create(person=other, content="elsewhere", posted=999.0)
        assert [r["posted"] for r in cached.evaluate(person_id=owner.pk)] == [7.0, 6.0, 5.0]
