"""Tests for WHERE-clause predicates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlannerError
from repro.storage import (ALWAYS_TRUE, And, Between, Comparison, Eq, In,
                           IsNull, Not, Or, predicate_from_filters)
from tests.storage.scripts import drawn, predicate as random_predicate


class TestComparison:
    def test_equality(self):
        pred = Eq("age", 30)
        assert pred.matches({"age": 30})
        assert not pred.matches({"age": 31})
        assert not pred.matches({})

    @pytest.mark.parametrize("op,value,row_value,expected", [
        ("<", 5, 4, True), ("<", 5, 5, False),
        ("<=", 5, 5, True), (">", 5, 6, True),
        (">=", 5, 5, True), ("!=", 5, 4, True), ("!=", 5, 5, False),
    ])
    def test_operators(self, op, value, row_value, expected):
        assert Comparison("x", op, value).matches({"x": row_value}) is expected

    def test_null_never_matches_ordering(self):
        assert not Comparison("x", "<", 5).matches({"x": None})
        assert not Eq("x", 5).matches({"x": None})

    def test_unknown_operator_rejected(self):
        with pytest.raises(PlannerError):
            Comparison("x", "~", 1)

    def test_equality_bindings(self):
        assert Eq("x", 1).equality_bindings() == {"x": 1}
        assert Comparison("x", ">", 1).equality_bindings() == {}


class TestCombinators:
    def test_and_flattens(self):
        pred = And([Eq("a", 1), And([Eq("b", 2), Eq("c", 3)])])
        assert len(pred.children) == 3
        assert pred.equality_bindings() == {"a": 1, "b": 2, "c": 3}
        assert pred.matches({"a": 1, "b": 2, "c": 3})
        assert not pred.matches({"a": 1, "b": 2, "c": 4})

    def test_or(self):
        pred = Or([Eq("a", 1), Eq("a", 2)])
        assert pred.matches({"a": 2})
        assert not pred.matches({"a": 3})

    def test_not(self):
        pred = Not(Eq("a", 1))
        assert pred.matches({"a": 2})
        assert not pred.matches({"a": 1})

    def test_operator_overloads(self):
        pred = Eq("a", 1) & Eq("b", 2) | Eq("c", 3)
        assert pred.matches({"c": 3})
        assert pred.matches({"a": 1, "b": 2})

    def test_columns_collects_all(self):
        pred = (Eq("a", 1) & Eq("b", 2)) | Eq("c", 3)
        assert set(pred.columns()) == {"a", "b", "c"}


class TestOtherPredicates:
    def test_in(self):
        pred = In("x", [1, 2, 3])
        assert pred.matches({"x": 2})
        assert not pred.matches({"x": 9})
        assert In("x", [7]).equality_bindings() == {"x": 7}

    def test_between(self):
        pred = Between("x", 2, 5)
        assert pred.matches({"x": 2}) and pred.matches({"x": 5})
        assert not pred.matches({"x": 6})
        assert not pred.matches({"x": None})

    def test_is_null(self):
        assert IsNull("x").matches({"x": None})
        assert not IsNull("x").matches({"x": 1})
        assert IsNull("x", negated=True).matches({"x": 1})

    def test_always_true(self):
        assert ALWAYS_TRUE.matches({})
        assert ALWAYS_TRUE.columns() == []


class TestPredicateFromFilters:
    def test_empty_filters_is_always_true(self):
        assert predicate_from_filters({}) is ALWAYS_TRUE

    def test_django_style_suffixes(self):
        pred = predicate_from_filters({
            "a": 1, "b__gte": 2, "c__in": [3, 4], "d__isnull": True, "e__lt": 9,
        })
        assert pred.matches({"a": 1, "b": 2, "c": 4, "d": None, "e": 0})
        assert not pred.matches({"a": 1, "b": 1, "c": 4, "d": None, "e": 0})

    def test_unknown_suffix_rejected(self):
        with pytest.raises(PlannerError):
            predicate_from_filters({"a__regex": "x"})

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(st.sampled_from(["a", "b", "c"]), st.integers(0, 5),
                           min_size=1),
           st.dictionaries(st.sampled_from(["a", "b", "c"]), st.integers(0, 5)))
    def test_equality_filters_match_manual_check(self, filters, row):
        pred = predicate_from_filters(filters)
        expected = all(row.get(col) == val for col, val in filters.items())
        assert pred.matches(row) is expected
        assert pred.equality_bindings() == filters


class TestCompile:
    @settings(max_examples=500, deadline=None)
    @given(predicate=drawn(random_predicate),
           rows=st.lists(st.dictionaries(
               st.sampled_from(("id", "a", "b", "k", "missing")),
               st.one_of(st.none(), st.integers(0, 4))), max_size=6))
    def test_compiled_predicate_agrees_with_matches(self, predicate, rows):
        check = predicate.compile()
        for row in rows:
            expected = predicate.matches(row)
            assert (True if check is None else bool(check(row))) == bool(expected)

    def test_equalities_compile_to_closures_and_true_to_no_filter(self):
        """What the ORM emits on the hot path must not fall back to ``matches``."""
        assert ALWAYS_TRUE.compile() is None
        single = Comparison("a", "=", 1)
        pair = And([Comparison("a", "=", 1), Comparison("b", "=", 2)])
        for predicate in (single, pair):
            assert predicate.compile() != predicate.matches
        assert single.compile()({"a": 1}) and not single.compile()({"a": 2})
        assert pair.compile()({"a": 1, "b": 2}) and not pair.compile()({"a": 1, "b": 3})
        # ``= NULL`` matches nothing, not the NULL rows.
        assert not Comparison("a", "=", None).compile()({"a": None})
        assert not And([Comparison("a", "=", None)]).compile()({"a": None})
