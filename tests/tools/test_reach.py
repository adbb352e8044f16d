"""The reachability gate's classification, on synthetic seen-sets.

``tools/reach.py --check`` runs every command of the system under a profiler
(minutes); these tests run none.  They hand :func:`reach.triage` a seen-set
and :func:`reach.triage_options` a set of seen values directly, and check
that the gate fails on an unreached function or a single-valued option
without a keeper and on a keeper that keeps nothing, and that every row of
:data:`reach.KEEPERS` and :data:`reach.OPTION_KEEPERS` and every name the
frozen benchmark reaches into still names a function or an option under
``src/repro``.
"""

from __future__ import annotations

import ast
import sys
import tempfile
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


@pytest.fixture(scope="module")
def real_options(package):
    """The real tree's ``(params, fields)``, analysed once per module."""
    return reach.options(package[0])


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


# -- the option pass ---------------------------------------------------------

def option(owner="f", name="n", position=-1, scalar=True, default=("int", 1),
           path="m.py"):
    return reach.Option(path, owner, name, position, scalar, default)


def one_value(value=("int", 1)):
    return {option().key: {value}}


def calls(source):
    """What :func:`reach.calls_in` reads from ``source``."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "probe.py"
        path.write_text(source)
        return reach.calls_in([path])


def triage_options(options, values, keepers=None, frozen="", band="",
                   bases=None):
    return reach.triage_options(options, values, keepers or {},
                                calls(frozen), calls(band), bases or {})


class TestSyntheticOptions:
    def test_a_single_valued_option_without_a_second_user_fails(self):
        result = triage_options([option()], one_value())
        assert result.unkept == [option().key]
        assert list(result.single) == [option().key]

    def test_an_option_two_values_reach_needs_no_keeper(self):
        result = triage_options([option()],
                                {option().key: {("int", 1), ("int", 2)}})
        assert result.single == {} and result.unkept == []

    def test_a_band_test_keyword_is_a_second_value(self):
        result = triage_options([option()], one_value(), band="f(n=2)\n")
        assert result.kept[option().key][0] == reach.BAND
        assert result.unkept == []

    def test_a_band_test_passing_the_same_value_is_no_second_user(self):
        result = triage_options([option()], one_value(), band="f(n=1)\n")
        assert result.unkept == [option().key]

    def test_a_band_test_argument_that_is_no_literal_is_no_second_value(self):
        result = triage_options([option()], one_value(), band="f(n=x)\n")
        assert result.unkept == result.unresolved == [option().key]
        assert list(reach.option_report(result, one_value()))[0] == (
            "  m.py:f(n) = 1  [UNKEPT: a band test passes a value that is no "
            "literal; needs a row]")
        field = option(owner="ScenarioConfig", path="bench/scenarios.py")
        result = triage_options([field], {field.key: {("int", 1)}},
                                band="helper(n=x)\n")
        assert result.unkept == result.unresolved == [field.key]

    def test_a_band_test_leaving_it_out_passes_the_default(self):
        seen = {option().key: {("int", 5)}}
        result = triage_options([option()], seen, band="f()\n")
        assert result.kept[option().key][0] == reach.BAND

    def test_a_config_fields_keyword_counts_in_any_call(self):
        field = option(owner="ScenarioConfig", path="bench/scenarios.py")
        seen = {field.key: {("int", 1)}}
        result = triage_options([field], seen, band="helper(n=3)\n")
        assert result.kept[field.key][0] == reach.BAND
        result = triage_options([option()], one_value(),
                                band="helper(n=3)\n")
        assert result.unkept == [option().key]     # a parameter's does not

    def test_the_frozen_benchmark_passing_it_keeps_it(self):
        result = triage_options([option(position=0)], one_value(),
                                frozen="f(1)\n")
        assert result.kept[option(position=0).key][0] == reach.FROZEN

    def test_an_object_annotation_is_not_an_option(self):
        result = triage_options([option(scalar=False)], one_value())
        assert result.kept[option().key][0] == reach.NOT_OPTION

    def test_a_keeper_row_keeps_it(self):
        result = triage_options([option()], one_value(),
                                keepers={"m.py:f(n)": (reach.FLAG, "--n")})
        assert result.kept[option().key] == (reach.FLAG, "--n")
        assert result.stale == []

    def test_a_keeper_of_a_gone_option_is_stale(self):
        result = triage_options([], {},
                                keepers={"m.py:f(n)": (reach.FLAG, "--n")})
        assert result.stale == ["m.py:f(n)"]

    def test_a_keeper_of_a_two_valued_option_is_stale(self):
        result = triage_options([option()],
                                {option().key: {("int", 1), ("int", 2)}},
                                keepers={"m.py:f(n)": (reach.FLAG, "--n")})
        assert result.stale == ["m.py:f(n)"]

    def test_an_override_shares_its_interfaces_second_user(self):
        base = option(owner="Base.hook")
        sub = option(owner="Sub.hook")
        result = triage_options(
            [base, sub], {base.key: {("int", 1)}, sub.key: {("int", 1)}},
            keepers={"m.py:Base.hook(n)": (reach.FLAG, "--n")},
            bases={"Base": set(), "Sub": {"Base"}})
        assert result.kept[sub.key][0] == reach.RULE
        assert result.unkept == []

    def test_the_report_names_each_option_and_counts_the_census(self):
        field = option(owner="Config", path="x.py")
        keepers = {"m.py:f(n)": (reach.FLAG, "--n")}
        result = triage_options([option(), field],
                                {option().key: {("int", 1)},
                                 field.key: {("str", "a"), ("str", "b")}},
                                keepers=keepers)
        lines = list(reach.option_report(result, {option().key: {("int", 1)}}))
        assert lines[0] == "  m.py:f(n) = 1  [command flag: --n]"
        assert lines[-1].startswith("Options: 2 defaulted parameters and 0 "
                                    "config fields reached; 1 take one "
                                    "scalar value; kept: command flag 1;")


class TestCensus:
    def test_values_are_tagged_by_type_and_objects_settle(self):
        assert reach.scalar(1) != reach.scalar(1.0) != reach.scalar(True)
        assert reach.scalar((1, "a")) == ("tuple", (1, "a"))
        assert reach.scalar((1, object())) is reach.OBJECT
        assert reach.scalar([1]) is reach.OBJECT

    def test_the_profiler_reads_each_call_and_a_generators_first_entry(self):
        def plain(a, n=1):
            return n

        def lazy(n=1):
            n = 99
            yield n
            yield n

        sites = {}
        for function in (plain, lazy):
            code = function.__code__
            sites[(code.co_filename, code.co_firstlineno)] = [
                option(owner=function.__name__)]
        census = reach.Census(sites, {})
        sys.setprofile(census.profiler())
        try:
            plain(0)
            plain(0, n=1)
            list(lazy(n=2))
        finally:
            sys.setprofile(None)
        assert census.values == {"m.py:plain(n)": {("int", 1)},
                                 "m.py:lazy(n)": {("int", 2)}}

    def test_a_config_field_is_read_where_the_instance_is_built(self, real_options):
        from repro.sim import SimulationOptions
        fields = real_options[1]
        census = reach.Census({}, fields)
        sys.setprofile(census.profiler())
        try:
            SimulationOptions(think_time_ms=2.0)
        finally:
            sys.setprofile(None)
        assert census.values == {
            "sim/runner.py:SimulationOptions(think_time_ms)": {("float", 2.0)}}

    def test_a_dataclass_s_other_generated_methods_record_no_field(self, real_options):
        from repro.sim import SimulationOptions
        fields = real_options[1]
        census = reach.Census({}, fields)
        sys.setprofile(census.profiler())
        try:
            built = SimulationOptions(think_time_ms=2.0)
            repr(built)
            assert built == SimulationOptions(think_time_ms=2.0)
        finally:
            sys.setprofile(None)
        assert census.values == {
            "sim/runner.py:SimulationOptions(think_time_ms)": {("float", 2.0)}}

    def test_calls_read_keywords_positions_and_stop_at_star_args(self):
        found = calls("Pool(1, ttl=2.0)\nobj.method(*rest, 3, flag=True)\n")
        assert found == {"Pool": [{0: ("int", 1), "ttl": ("float", 2.0)}],
                         "method": [{"flag": ("bool", True)}]}


class TestTheRealOptions:
    def test_every_option_keeper_names_an_option_that_exists(self, real_options):
        params, fields = real_options
        every = [option for found in list(params.values())
                 + list(fields.values()) for option in found]
        missing = [key for key in reach.OPTION_KEEPERS
                   if not any(reach.keeps_option(key, option)
                              for option in every)]
        assert missing == []

    def test_every_option_keeper_says_why(self):
        for category, reason in reach.OPTION_KEEPERS.values():
            assert category in (reach.FLAG, reach.ROADMAP, reach.DEPLOYMENT,
                                reach.TEST_SCALE, reach.BAND, reach.FROZEN,
                                reach.REFERENCE)
            assert reason

    def test_the_config_fields_are_read(self, real_options):
        fields = real_options[1]
        assert sorted(fields) == sorted(reach.CONFIGS)
        names = {option.name for option in
                 fields["bench/scenarios.py:ScenarioConfig"]}
        assert {"name", "strategy", "reuse_trigger_connections"} <= names

    def test_a_band_test_reaches_a_config_field_through_a_helper(self, real_options):
        band = reach.calls_in(reach.band_paths())
        fields = real_options[1]
        field = next(option for option in fields[
            "bench/scenarios.py:ScenarioConfig"]
            if option.name == "reuse_trigger_connections")
        assert ("bool", True) in reach.passed(band, field, omitted=False)
