"""The reachability gate's classification, on synthetic seen-sets.

``tools/reach.py --check`` runs every command of the system under a profiler
(minutes); these tests run none.  They hand :func:`reach.triage` a seen-set
directly and check that the gate fails on an unreached function without a
keeper and on a keeper that keeps nothing, and that every row of
:data:`reach.KEEPERS` and every name the frozen benchmark reaches into still
names a function under ``src/repro``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import reach  # noqa: E402
from reach import Function  # noqa: E402

#: A base class, a subclass overriding its hook, and a free helper.
SYNTHETIC = {
    ("m.py", 1): Function("m.py", "Base.hook", 1, 2, False),
    ("m.py", 4): Function("m.py", "Sub.hook", 4, 5, False),
    ("m.py", 7): Function("m.py", "Sub.__repr__", 7, 8, False),
    ("m.py", 10): Function("m.py", "Sub.__init__", 10, 11, False),
    ("m.py", 13): Function("m.py", "helper", 13, 16, False),
    ("m.py", 14): Function("m.py", "helper.inner", 14, 15, True),
}
BASES = {"Base": set(), "Sub": {"Base"}}
SUB_HOOK = ("m.py", 4)


def synthetic(keepers, seen=(SUB_HOOK,), frozen=None):
    return reach.triage(SYNTHETIC, set(seen), keepers, frozen or {}, BASES)


class TestSyntheticTriage:
    def test_an_unreached_function_without_a_keeper_fails_the_gate(self):
        result = synthetic({})
        assert result.unkept == [("m.py", 10), ("m.py", 13), ("m.py", 14)]
        assert result.stale == []

    def test_the_rules_keep_dunders_and_overridden_hooks(self):
        kept = synthetic({}).kept
        assert kept[("m.py", 7)][0] == reach.RULE
        assert kept[("m.py", 1)] == (reach.RULE, "overridden by Sub.hook")
        assert ("m.py", 10) not in kept    # an unbuilt class needs a keeper

    def test_a_keeper_keeps_a_function_and_what_it_nests(self):
        result = synthetic({"m.py:helper": (reach.SAFETY, "why"),
                            "m.py:Sub.__init__": (reach.ORACLE, "why")})
        assert result.unkept == [] and result.stale == []
        assert result.kept[("m.py", 14)] == (reach.SAFETY, "why")

    def test_a_keeper_of_a_deleted_function_is_stale(self):
        result = synthetic({"m.py:helper": (reach.SAFETY, "why"),
                            "m.py:Sub.__init__": (reach.ORACLE, "why"),
                            "m.py:gone": (reach.SAFETY, "why")})
        assert result.stale == ["m.py:gone"]

    def test_a_keeper_of_a_reached_function_is_stale(self):
        everything = set(SYNTHETIC)
        result = synthetic({"m.py:helper": (reach.SAFETY, "why")},
                           seen=everything)
        assert result.unkept == [] and result.kept == {}
        assert result.stale == ["m.py:helper"]

    def test_the_frozen_benchmark_comes_first(self):
        result = synthetic({"m.py:helper": (reach.SAFETY, "why")},
                           frozen={("m.py", 13): "spans.py shadows helper"})
        assert result.kept[("m.py", 13)] == (reach.FROZEN,
                                             "spans.py shadows helper")
        assert result.stale == []    # it still keeps helper.inner

    def test_a_module_key_keeps_every_function_in_it(self):
        assert reach.keeps("m.py", SYNTHETIC[("m.py", 14)])
        assert not reach.keeps("m.py:Sub", SYNTHETIC[("m.py", 13)])
        assert not reach.keeps("m.py:Sub.hoo", SYNTHETIC[SUB_HOOK])


    def test_init_is_not_a_protocol_dunder(self):
        assert reach.is_protocol_dunder(SYNTHETIC[("m.py", 7)])
        assert not reach.is_protocol_dunder(SYNTHETIC[("m.py", 10)])

    def test_an_override_two_levels_down_keeps_the_root_hook(self):
        bases = {"Base": set(), "Mid": {"Base"}, "Leaf": {"Mid"}}
        defined = {("m.py", 1): Function("m.py", "Base.hook", 1, 2, False),
                   ("m.py", 4): Function("m.py", "Leaf.hook", 4, 5, False),
                   ("m.py", 7): Function("m.py", "Leaf.inner", 7, 9, False),
                   ("m.py", 8): Function("m.py", "Leaf.inner.hook", 8, 9,
                                         True)}
        found = reach.overriders(defined, {("m.py", 4), ("m.py", 8)}, bases)
        assert found == {"Mid.hook": "Leaf.hook", "Base.hook": "Leaf.hook"}

    def test_an_instance_lookup_finds_the_nearest_definition(self):
        bases = {"Base": set(), "Mid": {"Base"}, "Leaf": {"Mid"},
                 "Other": {"Base"}}
        names = {"Base.hook", "Leaf.hook", "Other.hook", "Base.plain"}
        # Through a Mid: Base's hook, or an override in a subclass of Mid.
        assert reach._lookups(bases, names, "Mid", "hook") == {"Base.hook",
                                                               "Leaf.hook"}
        assert reach._lookups(bases, names, "Leaf", "plain") == {"Base.plain"}
        assert reach._lookups(bases, names, "Leaf", "gone") == set()

    def test_a_shadowed_tuple_may_sum_earlier_tuples(self):
        node = ast.parse('READS + ("delete",)', mode="eval").body
        assert reach._strings(node, {"READS": ("get", "first")}) == (
            "get", "first", "delete")

    def test_a_nested_def_counts_once_in_the_line_total(self):
        helper, inner = ("m.py", 13), ("m.py", 14)
        assert reach._spans(SYNTHETIC, [helper, inner]) == 4
        assert reach._spans(SYNTHETIC, [inner]) == 2

    def test_the_report_names_each_unkept_function_and_stale_row(self):
        result = synthetic({"m.py:helper": (reach.SAFETY, "why"),
                            "m.py:gone": (reach.SAFETY, "why")})
        lines = list(reach.report(SYNTHETIC, result))
        assert "src/repro/m.py" in lines
        assert any("Sub.__init__" in line and "[UNKEPT: no keeper]" in line
                   for line in lines)
        assert any("helper.inner" in line and f"[{reach.SAFETY}: why]" in line
                   for line in lines)
        assert "  no keeper: 1" in lines
        assert ("Stale keeper (keeps no unreached function): m.py:gone"
                in lines)


@pytest.fixture(scope="module")
def package():
    return reach.functions()


class TestTheRealTree:
    def test_every_keeper_names_a_function_that_exists(self, package):
        defined, _bases = package
        missing = [key for key in reach.KEEPERS
                   if not any(reach.keeps(key, function)
                              for function in defined.values())]
        assert missing == []

    def test_every_keeper_says_why(self):
        for category, reason in reach.KEEPERS.values():
            assert category in (reach.ROADMAP, reach.REFERENCE, reach.PAPER,
                                reach.BAND, reach.SAFETY, reach.OPTION,
                                reach.ORACLE, reach.FROZEN)
            assert reason

    def test_the_frozen_benchmark_keeps_what_spans_py_shadows(self, package):
        defined, bases = package
        frozen = reach.frozen_sites(defined, bases)
        names = {(defined[site].path, defined[site].name)
                 for site in frozen if site in defined}
        assert {("orm/queryset.py", "QuerySet.first"),
                ("orm/queryset.py", "QuerySet.exists"),
                ("orm/queryset.py", "QuerySet.__bool__"),
                ("orm/queryset.py", "QuerySet.delete"),
                ("orm/models.py", "Model.delete"),
                ("core/serializer.py", "freeze_value"),
                ("apps/social/seed.py", "SeedScale.paper_ratio"),
                ("memcache/client.py", "CacheClient.decr_multi"),
                ("memcache/server.py", "CacheServer.touch_key"),
                ("storage/transactions.py", "TransactionManager.commit"),
                } <= names
        assert all(site in defined for site in frozen)
