"""Which functions under ``src/repro`` does no command of the system reach,
which options does only one value reach, and what keeps each of them?

Runs every golden ``python -m repro.bench`` invocation (the 22 argv lists of
``tests/bench/test_golden_output.py``), ``report run.json`` on the sweep
document the traced one writes, ``benchmarks/e2e/run.py --smoke``, every
``examples/*.py`` and the doctest blocks of the docs (what
``tools/check_docs.py`` runs), all in this one process under ``sys.setprofile`` (and
``threading.setprofile``, so replay worker threads are seen).  Then it lists
every ``def`` under ``src/repro`` whose code never ran, by file, with its line
span and what keeps it:

* **frozen**: a name the frozen benchmark (``benchmarks/e2e/``) reaches into.
  Read with :mod:`ast`, never imported from there: every attribute
  ``e2ebench/spans.py`` shadows by name (the tuples it hands ``shadow()``,
  and the module functions it ``getattr``s in a loop) and every
  ``from repro… import`` name of the benchmark's files.
* **a row of** :data:`KEEPERS`: a module, class or function, the category of
  its keeper and the reason.
* **by rule**: a dunder method other than ``__init__`` (Python's protocols
  call it: ``__repr__``, ``__eq__``, ``__hash__``, ``__len__`` …), or a
  base-class method that a reached method of a subclass overrides (the
  interface that method implements).  An ``__init__`` no command runs is a
  class no command builds: it needs a keeper like any other function.

The same run is a census of options.  It records the distinct values each
defaulted parameter of a reached ``def`` under ``src/repro`` takes, and
each field of the config dataclasses the commands build (:data:`CONFIGS`).
A value is a scalar (None, bool, int, float, str) or a small tuple, list or
dict of them; a parameter that takes an object is a dependency, not an
option.  Then it lists every option that one scalar value reaches, with
its second user:

* **not an option**: its annotation admits no scalar
  (``Optional[VirtualClock] = None``);
* **frozen**: the frozen benchmark passes it, read with :mod:`ast`;
* **band**: a band test (``benchmarks/test_*.py``) passes another literal
  value, read with :mod:`ast` (a call that leaves it out passes the
  default; a config field's keyword counts in any call, since helpers hand
  it on).  An argument that is no literal shows no second value: the
  option is reported unresolved and needs a row;
* **a row of** :data:`OPTION_KEEPERS`: a command flag, a ROADMAP item, a
  deployment setting, a structural size a named test shrinks, a reference
  a test checks it against;
* **by rule**: the same parameter of the method it overrides, or that
  overrides it, takes two values or is kept.

Band tests and the frozen benchmark are read, not run: pytest-benchmark's
fixture switches the profiler off while it times.

Work done in the worker processes of the ``--jobs 2`` golden is not seen: a
function only those processes run is listed as unreached.  Stdlib only::

    PYTHONPATH=src python tools/reach.py            # the report; exits 0
    PYTHONPATH=src python tools/reach.py --check    # exits 1 on a finding

``--check`` fails when an unreached function or a single-valued option has
no keeper, or when a row of :data:`KEEPERS` or :data:`OPTION_KEEPERS` keeps
nothing: what it names was deleted, or a command reaches it now (a
function) or passes it a second value (an option).  Either way the row
goes.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import dis
import importlib
import inspect
import io
import os
import pathlib
import runpy
import sys
import tempfile
import threading
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Set, Tuple)

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
EXAMPLES = ROOT / "examples"
#: The frozen benchmark, and its span recorder, which shadows by name.
E2E = ROOT / "benchmarks" / "e2e"
SPANS = E2E / "e2ebench" / "spans.py"
#: ``spans.py`` names what it shadows by the prefix of its span codes; these
#: two prefixes name the class by its role.
PREFIX_CLASSES = {"client": "CacheClient", "server": "CacheServer"}

#: A function as its code object names itself: (file, the line of its
#: ``def`` or of its first decorator, which is ``co_firstlineno``).
Site = Tuple[str, int]


class Function(NamedTuple):
    path: str        # relative to src/repro, e.g. "core/keys.py"
    name: str        # qualified, e.g. "KeyScheme.key_for" or "And.compile.check"
    first: int
    last: int
    nested: bool     # defined inside another def
    method: bool = False     # defined in a class body
    node: Optional[ast.AST] = None


ROADMAP = "ROADMAP item"
REFERENCE = "reference-checked"
PAPER = "the paper's API"
BAND = "band test"
SAFETY = "safety path"
OPTION = "command option"
ORACLE = "test oracle"
FROZEN = "frozen benchmark"
RULE = "by rule"

_GOLDEN_CORPUS = ("the storage statement language: the sqlite mirror "
                  "(tests/sqlmirror.py) and GOLDEN_CORPUS check it")
_TIER_MODEL = "tests/memcache/test_tier_model.py checks it against its model"
_ITEM_18 = "item 18 (a page is a transaction) opens transactions from pages"
_CONST_FILTERS = ("§3.1: a declaration's constant filters; the trigger must "
                  "re-express a row change against them")

#: What keeps each unreached function that stays.  A key is a module
#: (``"core/txn2pl.py"``), or a module and a class or function in it
#: (``"storage/database.py:Database.begin"``), which keeps that function, its
#: methods and the functions nested in them.  Value: (category, reason).
KEEPERS: Dict[str, Tuple[str, str]] = {
    # Names the frozen benchmark reaches through an instance, which the
    # ast reading of benchmarks/e2e/ cannot follow.
    "cluster/gutter.py:GutterPool.servers": (
        FROZEN, "e2ebench/spans.py shadows every rig.gutter.servers op"),
    "cluster/gutter.py:GutterPool.add": (
        FROZEN, "CacheClient.add, which spans.py shadows, sends a key whose "
                "node is down to the gutter pool"),
    "memcache/client.py:CacheClient._server_for": (
        FROZEN, "CacheClient.add, which spans.py shadows, routes through it"),
    "memcache/client.py:CacheClient._counters": (
        FROZEN, "the counter family of CacheClient.incr/decr/incr_multi/"
                "decr_multi, which spans.py shadows; " + _TIER_MODEL),
    # Open ROADMAP items.
    "core/txn2pl.py": (
        ROADMAP, "item 9 (§3.3's serializable mode as a replayable strategy)"),
    "sim/mva.py": (ROADMAP, "item 11 (seed-robust claims) decides it"),
    "storage/database.py:Database.begin": (ROADMAP, _ITEM_18),
    "storage/database.py:Database.commit": (ROADMAP, _ITEM_18),
    "storage/database.py:Database.abort": (ROADMAP, _ITEM_18),
    "storage/database.py:Database.transaction": (ROADMAP, _ITEM_18),
    "storage/database.py:Database._register_insert_undo": (ROADMAP, _ITEM_18),
    "storage/database.py:Database._register_update_undo": (ROADMAP, _ITEM_18),
    "storage/database.py:Database._register_delete_undo": (ROADMAP, _ITEM_18),
    "storage/transactions.py:Transaction.record_undo": (ROADMAP, _ITEM_18),
    "storage/transactions.py:TransactionManager.current": (ROADMAP, _ITEM_18),
    "storage/transactions.py:TransactionManager.begin": (ROADMAP, _ITEM_18),
    "storage/transactions.py:TransactionManager.abort": (ROADMAP, _ITEM_18),
    "storage/transactions.py:TransactionManager.record_undo": (
        ROADMAP, _ITEM_18),
    # The contracts that pin or mirror a layer.
    "storage/predicates.py": (REFERENCE, _GOLDEN_CORPUS),
    "storage/btree.py:BPlusTree._leftmost_leaf": (REFERENCE, _GOLDEN_CORPUS),
    "storage/btree.py:BPlusTree.items": (REFERENCE, _GOLDEN_CORPUS),
    "storage/btree.py:BPlusTree.range_scan": (REFERENCE, _GOLDEN_CORPUS),
    "storage/datatypes.py:TimestampType._coerce": (
        REFERENCE, "the sqlite mirror's random schemas declare TIMESTAMP "
                   "columns"),
    "storage/database.py:Database.create_index": (
        REFERENCE, "CREATE INDEX: the sqlite mirror and GOLDEN_CORPUS's "
                   "insert-path scripts run it"),
    "storage/table.py:Table.add_index": (
        REFERENCE, "Database.create_index (reference-checked) adds the index"),
    "storage/schema.py:TableSchema.add_index": (
        REFERENCE, "Database.create_index (reference-checked) declares it"),
    "storage/query.py:SelectQuery.tables": (
        REFERENCE, "the sqlite mirror checks each join's tables"),
    "storage/query.py:CountQuery.tables": (
        REFERENCE, "the sqlite mirror checks each join's tables"),
    "storage/btree.py:BPlusTree.height": (
        REFERENCE, "GOLDEN_SEEDED_STATE and GOLDEN_CORPUS pin each tree's "
                   "height"),
    "storage/table.py:Index.name": (
        REFERENCE, "GOLDEN_CORPUS names each index tree it pins"),
    "sim/events.py:EventEngine.pending_events": (
        REFERENCE, "tests/sim/test_event_path.py checks the queue against "
                   "its closure-based reference"),
    "sim/resources.py:QueueingResource.mean_wait": (
        REFERENCE, "tests/sim/test_event_path.py compares each station "
                   "with its reference model"),
    "cluster/controller.py:ClusterController.drain": (REFERENCE, _TIER_MODEL),
    "memcache/hashring.py:HashRing.remove_server": (REFERENCE, _TIER_MODEL),
    "memcache/lru.py:LRUStore.items": (REFERENCE, _TIER_MODEL),
    "storage/costmodel.py:CostCounters.copy": (REFERENCE, _TIER_MODEL),
    # The paper's API.
    "core/manager.py:CacheGenie.register_cache_class": (
        PAPER, "§3.1: custom cache classes"),
    "core/manager.py:CacheGenie._cacheable_legacy": (
        PAPER, "§3.1: the keyword cacheable(cache_class_type=...) form"),
    "core/manager.py:_keyword_template": (
        PAPER, "§3.1: the keyword cacheable(cache_class_type=...) form"),
    "core/manager.py:cacheable": (
        PAPER, "§3.1: the module-level cacheable() of the paper's listings"),
    "core/cache_classes/base.py:CacheClass.row_in_scope": (
        PAPER, _CONST_FILTERS),
    "core/cache_classes/base.py:CacheClass._project_const_event": (
        PAPER, _CONST_FILTERS),
    # What the band tests under benchmarks/ read.
    "bench/experiments.py:skew_gain": (BAND, "benchmarks/test_exp3_zipf.py"),
    "bench/experiments.py:plateau_size": (
        BAND, "benchmarks/test_exp4_cache_size.py"),
    "bench/experiments.py:MicroTriggerResult": (
        BAND, "benchmarks/test_micro_trigger.py"),
    # Branches of reached code that a clean command never takes.
    "core/trigger_queue.py:TriggerOpQueue._invalidate_fallback": (
        SAFETY, "a CAS round that cannot converge invalidates instead"),
    "sim/concurrent.py:ConcurrentReplayer._fail": (
        SAFETY, "a worker that raises fails the replay"),
    "adaptive/telemetry.py:KeyTelemetry._evict_coldest": (
        SAFETY, "the tracker evicts at capacity"),
    "adaptive/telemetry.py:KeyTelemetry.note_cas_mismatch": (
        SAFETY, "a contention signal: a lost CAS"),
    "adaptive/telemetry.py:KeyTelemetry.note_cas_retry": (
        SAFETY, "a contention signal: a CAS retry round"),
    "adaptive/telemetry.py:KeyTelemetry.note_lease_contended": (
        SAFETY, "a contention signal: a contended lease"),
    "storage/btree.py:BPlusTree.check_invariants": (
        SAFETY, "the structural check GOLDEN_SEEDED_STATE runs on each tree"),
    "storage/btree.py:BPlusTree._check_node": (
        SAFETY, "BPlusTree.check_invariants' walk"),
    "obs/hooks.py:Observer.mark": (
        SAFETY, "hooks.mark (every fault firing) reaches a subscriber only "
                "when a replay with workers >= 2 or a tracer meets a fault"),
    "obs/tracer.py:Tracer.mark": (
        SAFETY, "a traced replay records each fault firing as an instant"),
    "obs/tracer.py:Tracer.instant": (
        SAFETY, "a traced replay records each fault firing as an instant"),
    # Reached with a documented flag that no golden passes.
    "sim/interleave.py:WorkerStatus.overlaps": (
        OPTION, "--policy key-overlap / --policies key-overlap"),
    "sim/interleave.py:InterleaveScheduler._choose_key_overlap": (
        OPTION, "--policy key-overlap / --policies key-overlap"),
    # Reads a layer's unit tests check its state through, where no reached
    # method gives the same fact.
    "adaptive/telemetry.py:KeyTelemetry.get": (
        ORACLE, "tests/adaptive: one key's decayed record, first_seen and "
                "traffic included (snapshot() leaves them out)"),
    "core/refresh.py:RefreshQueue.pending_keys": (
        ORACLE, "tests/core, tests/cluster: the current context's backlog "
                "by key (pending_count gives only its size)"),
    "storage/heap.py:HeapFile.fetch": (
        ORACLE, "tests/storage: one row by rowid, refusing an unknown one "
                "(fetch_many skips it)"),
    "storage/heap.py:HeapFile.row_count": (
        ORACLE, "tests/storage; the Table and HeapFile __repr__"),
    "storage/heap.py:HeapFile.page_count": (
        ORACLE, "tests/storage/test_heap.py, HeapFile.__repr__"),
}


def functions() -> Tuple[Dict[Site, Function], Dict[str, Set[str]]]:
    """Every ``def`` under the package by site, and every class's direct
    base classes by simple name."""
    found: Dict[Site, Function] = {}
    bases: Dict[str, Set[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        relative = path.relative_to(PACKAGE).as_posix()

        def visit(node: ast.AST, prefix: str, nested: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    name = prefix + child.name
                    found[(str(path), first)] = Function(
                        relative, name, first, child.end_lineno, nested,
                        isinstance(node, ast.ClassDef), child)
                    visit(child, name + ".", True)
                elif isinstance(child, ast.ClassDef):
                    bases.setdefault(child.name, set()).update(
                        base.id if isinstance(base, ast.Name) else base.attr
                        for base in child.bases
                        if isinstance(base, (ast.Name, ast.Attribute)))
                    visit(child, prefix + child.name + ".", nested)
                else:
                    visit(child, prefix, nested)
        visit(tree, "", False)
    return found, bases


def _strings(node: ast.expr, tuples: Dict[str, Tuple[str, ...]]
             ) -> Tuple[str, ...]:
    """A tuple of names: a literal, an earlier module-level name, or a sum."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _strings(node.left, tuples) + _strings(node.right, tuples)
    if isinstance(node, ast.Name):
        return tuples[node.id]
    return tuple(ast.literal_eval(node))


def shadowed_names() -> Set[Tuple[str, str]]:
    """(class, attribute) or (module, function) for every name the frozen
    ``spans.py`` shadows: each tuple it hands ``shadow(obj, names, layer,
    "Class.")``, and each name of a loop over a literal tuple that
    ``getattr``s an imported ``repro`` module."""
    tree = ast.parse(SPANS.read_text(), str(SPANS))
    tuples: Dict[str, Tuple[str, ...]] = {}
    modules: Dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            modules.update((alias.asname, alias.name) for alias in node.names
                           if alias.asname and alias.name.startswith("repro."))
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            with contextlib.suppress(KeyError, ValueError):
                tuples[node.targets[0].id] = _strings(node.value, tuples)
    found: Set[Tuple[str, str]] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "shadow" and len(node.args) == 4):
            prefix = ast.literal_eval(node.args[3]).rstrip(".")
            owner = PREFIX_CLASSES.get(prefix, prefix)
            found.update((owner, name)
                         for name in _strings(node.args[1], tuples))
        elif (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)):
            for call in ast.walk(node):
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)
                        and call.func.id == "getattr" and len(call.args) == 2
                        and isinstance(call.args[0], ast.Name)
                        and call.args[0].id in modules
                        and isinstance(call.args[1], ast.Name)
                        and call.args[1].id == node.target.id):
                    found.update((modules[call.args[0].id], name)
                                 for name in _strings(node.iter, tuples))
    return found


def imported_names() -> Set[Tuple[str, str]]:
    """(module, name) of every ``from repro… import name`` under
    ``benchmarks/e2e/``, and (module, ``name.attribute``) of every attribute
    a file reads off a name it imported so (``SeedScale.paper_ratio``) or off
    a module it imported as an alias (``base_module.evaluate_many``)."""
    found: Set[Tuple[str, str]] = set()
    for path in sorted(E2E.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported: Dict[str, str] = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "repro"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = (node.module,
                                                            alias.name + ".")
                    found.add((node.module, alias.name))
            elif isinstance(node, ast.Import):
                imported.update((alias.asname, (alias.name, ""))
                                for alias in node.names if alias.asname
                                and alias.name.split(".")[0] == "repro")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in imported):
                module, prefix = imported[node.value.id]
                found.add((module, prefix + node.attr))
    return found


def _lookups(bases: Dict[str, Set[str]], names: Set[str], root: str,
             attribute: str) -> Set[str]:
    """Every qualified name that ``instance.attribute`` may resolve to on an
    instance of ``root`` or of a subclass: the nearest definition up
    ``root``'s bases, breadth first, and each subclass's own."""
    found: Set[str] = set()
    queue, visited = [root], set()
    while queue:
        cls = queue.pop(0)
        if cls in visited:
            continue
        visited.add(cls)
        if f"{cls}.{attribute}" in names:
            found.add(f"{cls}.{attribute}")
            break
        queue.extend(sorted(bases.get(cls, ())))
    family = {root}
    while True:
        more = {cls for cls, parents in bases.items() if parents & family}
        if more <= family:
            break
        family |= more
    found.update(f"{cls}.{attribute}" for cls in family - {root}
                 if f"{cls}.{attribute}" in names)
    return found


def _site(module: str, dotted: str):
    """The site of ``module.dotted`` if it is a function, a method or a
    property, else ``None``."""
    value = importlib.import_module(module)
    for name in dotted.split("."):
        value = getattr(value, name, None)
    value = getattr(value, "fget", value)
    code = getattr(value, "__code__", None)
    return None if code is None else (code.co_filename, code.co_firstlineno)


def frozen_sites(defined: Dict[Site, Function],
                 bases: Dict[str, Set[str]]) -> Dict[Site, str]:
    """Site -> how the frozen benchmark reaches it, for every function it
    names: a shadowed method, where an instance lookup may find it;
    a ``getattr``-ed module function; an imported function."""
    names = {function.name for function in defined.values()}
    methods: Dict[str, str] = {}
    kept: Dict[Site, str] = {}
    for owner, name in shadowed_names():
        reason = f"spans.py shadows {owner}.{name}"
        if owner.startswith("repro."):
            site = _site(owner, name)
            if site is not None:
                kept[site] = reason
        else:
            methods.update((found, reason) for found in
                           _lookups(bases, names, owner, name))
    for site, function in defined.items():
        if function.name in methods:
            kept[site] = methods[function.name]
    for module, name in imported_names():
        site = _site(module, name)
        if site is not None:
            kept[site] = f"benchmarks/e2e imports {name} from {module}"
    return kept


def keeps(key: str, function: Function) -> bool:
    """Whether the :data:`KEEPERS` key names ``function``."""
    path, _, name = key.partition(":")
    return function.path == path and (
        not name or function.name == name
        or function.name.startswith(name + "."))


def is_protocol_dunder(function: Function) -> bool:
    method = function.name.rpartition(".")[2]
    return (method.startswith("__") and method.endswith("__")
            and method != "__init__")


def overriders(defined: Dict[Site, Function], seen: Set[Site],
               bases: Dict[str, Set[str]]) -> Dict[str, str]:
    """``Class.method`` -> a reached ``Subclass.method`` that overrides it,
    for every method some reached subclass method overrides."""
    reached: Dict[str, Set[str]] = {}
    for site, function in defined.items():
        if site in seen and not function.nested:
            cls, _, method = function.name.rpartition(".")
            if cls and "." not in cls:
                reached.setdefault(method, set()).add(cls)
    found: Dict[str, str] = {}
    for method, classes in reached.items():
        for cls in sorted(classes):
            ancestors, frontier = set(), set(bases.get(cls, ()))
            while frontier:
                ancestors |= frontier
                frontier = set().union(
                    *(bases.get(parent, set()) for parent in frontier)
                ) - ancestors
            for ancestor in ancestors:
                found.setdefault(f"{ancestor}.{method}", f"{cls}.{method}")
    return found


class Triage(NamedTuple):
    kept: Dict[Site, Tuple[str, str]]   # site -> (category, reason)
    unkept: List[Site]
    stale: List[str]                    # KEEPERS keys that keep nothing


def triage(defined: Dict[Site, Function], seen: Set[Site],
           keepers: Dict[str, Tuple[str, str]], frozen: Dict[Site, str],
           bases: Dict[str, Set[str]]) -> Triage:
    """Sort every unreached function into kept (first of: the frozen
    benchmark, a keeper row, the rules) or unkept; a keeper row that keeps
    no unreached function is stale."""
    overridden = overriders(defined, seen, bases)
    kept: Dict[Site, Tuple[str, str]] = {}
    unkept: List[Site] = []
    used: Set[str] = set()
    for site in sorted(defined):
        if site in seen:
            continue
        function = defined[site]
        key = next((key for key in keepers if keeps(key, function)), None)
        if site in frozen:
            kept[site] = (FROZEN, frozen[site])
        elif key is not None:
            kept[site] = keepers[key]
            used.add(key)
        elif is_protocol_dunder(function):
            kept[site] = (RULE, "a protocol dunder")
        elif function.name in overridden:
            kept[site] = (RULE, f"overridden by {overridden[function.name]}")
        else:
            unkept.append(site)
    return Triage(kept, unkept, [key for key in keepers if key not in used])


# -- the option pass --------------------------------------------------------

FLAG = "command flag"
DEPLOYMENT = "deployment"
TEST_SCALE = "test scale"
NOT_OPTION = "not an option"

#: The configuration dataclasses, whose fields are options.  Each one's
#: generated ``__init__`` is compiled from a string, not read from its file,
#: so the pass knows it by the class of ``self``.
CONFIGS = ("bench/scenarios.py:ScenarioConfig",
           "workload/config.py:WorkloadConfig",
           "sim/runner.py:SimulationOptions",
           "storage/costmodel.py:CostModel")

#: Names in an annotation that admit a scalar value.  A defaulted parameter
#: annotated with none of them (``Optional[VirtualClock] = None``) takes an
#: object: a dependency, not an option.
SCALAR_TYPES = {"int", "float", "str", "bool", "Literal", "Any"}

#: A value that is not a scalar, or an argument :mod:`ast` cannot evaluate.
OBJECT = ("object",)

_ITEM_18_UNDO = ("item 18: the undo path restores a row with "
                 "fire_triggers=False")

#: What keeps each option that one value reaches, when neither the frozen
#: benchmark nor a band test supplies a second one: its second user.  A key
#: is ``"path:Owner(name)"`` (the owner is the function, or the class for an
#: ``__init__`` parameter or a config field), ``"path:Owner"`` for every
#: option of one owner, or a module.  Value: (category, reason).
OPTION_KEEPERS: Dict[str, Tuple[str, str]] = {
    # A flag of a command sets it.
    "bench/experiments.py:run_scenario(seed)": (
        FLAG, "--seed (exp1, exp-contention) seeds the replay's scheduler"),
    "sim/interleave.py:build_scheduler(seed)": (
        FLAG, "--seed (exp1, exp-contention) seeds the scheduler"),
    # Open ROADMAP items vary it.
    "storage/costmodel.py:CostModel": (
        ROADMAP, "item 11 takes each constant to x1/2 and x2"),
    "core/txn2pl.py": (
        ROADMAP, "item 9 (§3.3's serializable mode as a replayable "
                 "strategy)"),
    "storage/table.py:Table.insert(fire_triggers)": (ROADMAP, _ITEM_18_UNDO),
    "storage/table.py:Table.update_row(fire_triggers)": (
        ROADMAP, _ITEM_18_UNDO),
    "storage/table.py:Table.delete_row(fire_triggers)": (
        ROADMAP, _ITEM_18_UNDO),
    "adaptive/strategy.py:AdaptiveStrategy(telemetry_capacity)": (
        ROADMAP, "item 3 (c), and GOLDEN_FINGERPRINTS' "
                 "Adaptive/telemetry-capacity=32"),
    # Where the system runs.
    "core/manager.py:CacheGenie(cache_address)": (
        DEPLOYMENT, "the memcached address the generated triggers connect "
                    "to"),
    # What a band test sets through a config field.
    "core/manager.py:CacheGenie(reuse_trigger_connections)": (
        BAND, "benchmarks/test_ablation_connection_reuse.py, through "
              "ScenarioConfig.reuse_trigger_connections"),
    "memcache/client.py:CacheClient(reuse_connections)": (
        BAND, "benchmarks/test_ablation_connection_reuse.py, through "
              "ScenarioConfig.reuse_trigger_connections"),
    # A structural size a test shrinks so that a split, an eviction, an
    # overflow or a retry bound happens at test size.
    "storage/btree.py:BPlusTree(order)": (
        TEST_SCALE, "tests/storage/test_btree.py::TestBasicOperations::"
                    "test_splits_grow_height (order 4)"),
    "storage/heap.py:HeapFile(page_size)": (
        TEST_SCALE, "tests/storage/test_heap.py::"
                    "test_rows_spill_onto_multiple_pages (256 bytes)"),
    "memcache/hashring.py:HashRing(replicas)": (
        TEST_SCALE, "tests/memcache/test_multi_ops.py::"
                    "test_virtual_node_collision_nudges_to_free_point (2)"),
    "memcache/server.py:CacheServer(max_item_bytes)": (
        TEST_SCALE, "tests/memcache/test_size_once.py::"
                    "test_set_multi_failed_list_and_bytes (256 bytes)"),
    "core/cache_classes/topk.py:TopKQuery(reserve)": (
        TEST_SCALE, "tests/integration/test_topk_count_invariants.py "
                    "(reserve 2: refills at test size)"),
    "core/trigger_queue.py:TriggerOpQueue(cas_max_retries)": (
        TEST_SCALE, "tests/core/test_trigger_queue.py::"
                    "test_retries_exhausted_fall_back_to_invalidation (2)"),
    "adaptive/telemetry.py:KeyTelemetry(capacity)": (
        TEST_SCALE, "tests/adaptive/test_telemetry.py::TestEviction (2)"),
    "workload/zipf.py:SessionCountSampler(max_sessions)": (
        TEST_SCALE, "tests/workload/test_workload.py::"
                    "test_session_count_sampler_follows_the_truncated_zeta_"
                    "law (5)"),
    "bench/experiments.py:micro_lookup": (
        TEST_SCALE, "tests/storage/test_costmodel.py::"
                    "test_btree_lookup_is_many_times_slower_than_cache_get"),
    "bench/experiments.py:micro_trigger(inserts)": (
        TEST_SCALE, "tests/bench/test_experiments_reporting.py::"
                    "test_micro_trigger_ordering (40)"),
    # A reference a test checks the reached value against.
    "sim/runner.py:simulate_population(retain_completions)": (
        REFERENCE, "tests/sim/test_runner.py checks streamed metrics "
                   "against retained ones on one replay"),
    "storage/executor.py:Executor._scan(stop_at)": (
        REFERENCE, "an index-ordered LIMIT stops early: GOLDEN_CORPUS pins "
                   "the rows it charges"),
}


class Option(NamedTuple):
    path: str        # relative to src/repro
    owner: str       # "run_scenario", "CacheServer.set"; the class for
                     # an __init__ parameter or a config field
    name: str
    position: int    # among the positional parameters after self; -1 if none
    scalar: bool     # unannotated, or annotated with a scalar type
    default: tuple   # as scalar() keeps it

    @property
    def key(self) -> str:
        return f"{self.path}:{self.owner}({self.name})"


def _scalar_typed(annotation) -> bool:
    """Whether an annotation admits a scalar value: it is missing, or names
    one of :data:`SCALAR_TYPES` outside a ``Callable[...]``."""
    if annotation is None:
        return True
    stack = [annotation]
    while stack:
        node = stack.pop()
        if (isinstance(node, ast.Subscript)
                and getattr(node.value, "id", None) == "Callable"):
            continue
        if isinstance(node, ast.Name) and node.id in SCALAR_TYPES:
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            stack.append(ast.parse(node.value, mode="eval").body)
        stack.extend(ast.iter_child_nodes(node))
    return False


def _literal(node) -> tuple:
    """An argument or a default as :func:`scalar` keeps it, or
    :data:`OBJECT` when it is not a literal."""
    try:
        return scalar(ast.literal_eval(node))
    except ValueError:
        return OBJECT


def options(defined: Dict[Site, Function]
            ) -> Tuple[Dict[Site, List[Option]], Dict[str, List[Option]]]:
    """Every defaulted parameter of each ``def`` of :func:`functions`, by
    its site, and every field of each of :data:`CONFIGS`, by
    ``"path:Class"``."""
    params: Dict[Site, List[Option]] = {}
    for site, function in defined.items():
        arguments = function.node.args
        owner = function.name.rpartition(".")[0] if function.name.endswith(
            ".__init__") else function.name
        skip = int(function.method and not any(
            getattr(d, "id", None) == "staticmethod"
            for d in function.node.decorator_list))
        positional = arguments.posonlyargs + arguments.args
        first = len(positional) - len(arguments.defaults)
        found = [Option(function.path, owner, arg.arg, index - skip,
                        _scalar_typed(arg.annotation), _literal(default))
                 for index, (arg, default) in enumerate(
                     zip(positional[first:], arguments.defaults), first)]
        found += [Option(function.path, owner, arg.arg, -1,
                         _scalar_typed(arg.annotation), _literal(default))
                  for arg, default in zip(arguments.kwonlyargs,
                                          arguments.kw_defaults)
                  if default is not None]
        if found:
            params[site] = found
    fields: Dict[str, List[Option]] = {}
    for key in CONFIGS:
        path, _, name = key.partition(":")
        tree = ast.parse((PACKAGE / path).read_text())
        cls = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == name)
        fields[key] = [
            Option(path, name, item.target.id, index,
                   _scalar_typed(item.annotation),
                   OBJECT if item.value is None else _literal(item.value))
            for index, item in enumerate(
                item for item in cls.body if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name))]
    return params, fields


SCALARS = (type(None), bool, int, float, str)


def scalar(value) -> tuple:
    """A value as the census keeps it: a scalar, or a tuple of scalars,
    tagged with its type, so that ``1``, ``1.0`` and ``True`` stay apart;
    anything else as :data:`OBJECT`."""
    if type(value) in SCALARS or (type(value) is tuple and all(
            type(item) in SCALARS for item in value)):
        return (type(value).__name__, value)
    return OBJECT


GENERATOR_FLAGS = (inspect.CO_GENERATOR | inspect.CO_COROUTINE
                   | inspect.CO_ASYNC_GENERATOR)


@dataclasses.dataclass
class _Probe:
    field: int = 0


#: Where every dataclass's generated ``__init__`` says it was defined: it is
#: compiled from a string, so the census knows a config's by ``self``.
GENERATED_INIT: Site = (_Probe.__init__.__code__.co_filename,
                        _Probe.__init__.__code__.co_firstlineno)


class Census:
    """What the commands reach: the site of every code object that runs,
    and the values each option takes.

    Each is read from the frame's locals when its function is entered (a
    generator's only at its first entry; a config field's when the
    dataclass's generated ``__init__`` is).  An option is settled, and no
    longer read, once it has two values or an object."""

    def __init__(self, params: Dict[Site, List[Option]],
                 fields: Dict[str, List[Option]]) -> None:
        self.seen: Set[Site] = set()
        self.values: Dict[str, Set[tuple]] = {}
        self._watched: Dict[Site, List[Option]] = dict(params)
        self._watched[GENERATED_INIT] = []
        self._configs: Dict[Tuple[str, str], List[Option]] = {}
        for key, found in fields.items():
            path, _, name = key.partition(":")
            module = "repro." + path[:-len(".py")].replace("/", ".")
            self._configs[(module, name)] = found
        self._first_resume: Dict[object, int] = {}

    def _note(self, option: Option, value) -> bool:
        """Record one value; whether the option is settled."""
        values = self.values.setdefault(option.key, set())
        if len(values) < 2 and OBJECT not in values:
            values.add(scalar(value))
        return len(values) >= 2 or OBJECT in values

    def _resumed(self, frame) -> bool:
        """Whether a generator's or coroutine's call event is a resume, not
        its first entry: at the first, ``f_lasti`` is the offset of the
        code's first ``RESUME`` (Python 3.11+), or -1 before it."""
        code = frame.f_code
        first = self._first_resume.get(code)
        if first is None:
            first = self._first_resume[code] = next(
                (op.offset for op in dis.get_instructions(code)
                 if op.opname == "RESUME"), -1)
        return frame.f_lasti != first

    def profiler(self) -> Callable:
        """The ``sys.setprofile`` function: a closure over locals, since it
        runs on every event of every command."""
        seen_add, note, resumed = self.seen.add, self._note, self._resumed
        watched, configs = self._watched, self._configs
        watched_get = watched.get

        def profile(frame, event, arg) -> None:
            if event != "call":
                return
            code = frame.f_code
            site = (code.co_filename, code.co_firstlineno)
            seen_add(site)
            options = watched_get(site)
            if options is None or (code.co_flags & GENERATOR_FLAGS
                                   and resumed(frame)):
                return
            local = frame.f_locals
            if site == GENERATED_INIT:
                # Every method a dataclass generates shares the site; only
                # __init__ has the fields among its locals.
                if code.co_name != "__init__":
                    return
                cls = type(local.get("self"))
                for option in configs.get((cls.__module__, cls.__qualname__),
                                          ()):
                    note(option, local.get(option.name))
            elif all([note(option, local.get(option.name))
                      for option in options]):
                watched.pop(site, None)
        return profile


#: One call read with :mod:`ast`: keyword, or position, -> the value passed.
Call = Dict[object, tuple]


def calls_in(paths: List[pathlib.Path]) -> Dict[str, List[Call]]:
    """Callee -> every call of it in ``paths``, read with :mod:`ast`.  The
    callee is the called name's last part (``GutterPool``,
    ``with_overrides``); positions stop at the first ``*args``."""
    found: Dict[str, List[Call]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", None) or getattr(
                node.func, "attr", None)
            if callee is None:
                continue
            call: Call = {}
            for index, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                call[index] = _literal(arg)
            call.update((keyword.arg, _literal(keyword.value))
                        for keyword in node.keywords if keyword.arg)
            found.setdefault(callee, []).append(call)
    return found


def band_paths() -> List[pathlib.Path]:
    return sorted((ROOT / "benchmarks").glob("test_*.py"))


def frozen_paths() -> List[pathlib.Path]:
    return sorted(E2E.rglob("*.py"))


def passed(calls: Dict[str, List[Call]], option: Option,
           omitted: bool) -> Set[tuple]:
    """The values ``calls`` give ``option``: by keyword or position to its
    owner, and with ``omitted`` its default when a call of the owner leaves
    it out.  A config field takes a keyword to any callee, because helpers
    hand fields on (``_scenario_config(reuse_trigger_connections=True)``
    builds a ``ScenarioConfig``)."""
    owner = option.owner.rpartition(".")[2]
    field = f"{option.path}:{option.owner}" in CONFIGS
    found: Set[tuple] = set()
    for callee, made in calls.items():
        if callee != owner and not field:
            continue
        for call in made:
            if option.name in call:
                found.add(call[option.name])
            elif callee == owner and option.position in call:
                found.add(call[option.position])
            elif callee == owner and omitted:
                found.add(option.default)
    return found


def keeps_option(key: str, option: Option) -> bool:
    """Whether the :data:`OPTION_KEEPERS` key names ``option``."""
    path, _, name = key.partition(":")
    return option.path == path and name in ("", option.owner,
                                            f"{option.owner}({option.name})")


def _family(bases: Dict[str, Set[str]], cls: str) -> Set[str]:
    """``cls``'s ancestors and descendants."""
    found, frontier = set(), {cls}
    while frontier:
        found |= frontier
        frontier = set().union(*(bases.get(parent, set())
                                 for parent in frontier)) - found
    frontier = {cls}
    while frontier:
        found |= frontier
        frontier = {c for c, parents in bases.items()
                    if parents & frontier} - found
    return found - {cls}


class OptionTriage(NamedTuple):
    options: Dict[str, Option]          # every reached option, by key
    single: Dict[str, Option]           # the ones one scalar value reaches
    kept: Dict[str, Tuple[str, str]]    # key -> (category, reason)
    unkept: List[str]
    unresolved: List[str]               # unkept, but a band test passes a
                                        # value that is no literal
    stale: List[str]                    # OPTION_KEEPERS keys that keep nothing


def triage_options(reached: List[Option], values: Dict[str, Set[tuple]],
                   keepers: Dict[str, Tuple[str, str]],
                   frozen: Dict[str, List[Call]],
                   band: Dict[str, List[Call]],
                   bases: Dict[str, Set[str]]) -> OptionTriage:
    """Sort every reached option that one scalar value reaches into kept or
    unkept.  Its second user is the first of: none needed, its annotation
    admits no scalar; the frozen benchmark passes it (any value: it cannot
    be edited, so what it names stays); a band test passes another literal
    value (leaving it out passes the default); a keeper row; or, by rule,
    the same parameter of the method it overrides or that overrides it
    takes two values or is kept.  A band test's argument that is no literal
    (``seed=seed``) shows no second value: the option stays unkept, and is
    listed as unresolved, until a row names the value it passes.  A keeper
    row that keeps no option is stale."""
    by_key = {option.key: option for option in reached}
    single: Dict[str, Option] = {}
    kept: Dict[str, Tuple[str, str]] = {}
    used: Set[str] = set()
    for key in sorted(by_key):
        option = by_key[key]
        seen = values.get(key, set())
        if len(seen) != 1 or OBJECT in seen:
            continue
        single[key] = option
        row = next((row for row in keepers if keeps_option(row, option)),
                   None)
        if not option.scalar:
            kept[key] = (NOT_OPTION, "annotated with no scalar type")
        elif passed(frozen, option, omitted=False):
            kept[key] = (FROZEN, f"benchmarks/e2e passes {option.name}")
        elif passed(band, option, omitted=True) - seen - {OBJECT}:
            kept[key] = (BAND, f"a band test passes a second {option.name}")
        elif row is not None:
            kept[key] = keepers[row]
            used.add(row)
    unkept: List[str] = []
    for key, option in single.items():
        if key in kept:
            continue
        cls, _, method = option.owner.rpartition(".")
        family = {f"{other}.{method}" for other in _family(bases, cls)
                  } if cls and "." not in cls else set()
        twin = next((other for other in by_key.values()
                     if other.name == option.name and other.owner in family
                     and (other.key in kept
                          or len(values.get(other.key, ())) >= 2)), None)
        if twin is not None:
            kept[key] = (RULE, f"the interface's parameter, as "
                               f"{twin.owner}({option.name})")
        else:
            unkept.append(key)
    unresolved = [key for key in unkept
                  if OBJECT in passed(band, single[key], omitted=False)]
    return OptionTriage(by_key, single, kept, unkept, unresolved,
                        [row for row in keepers if row not in used])


def option_report(result: OptionTriage,
                  values: Dict[str, Set[tuple]]) -> Iterator[str]:
    for key in sorted(result.single):
        (_tag, value), = values[key]
        category, reason = result.kept.get(key, (
            "UNKEPT", "a band test passes a value that is no literal; needs "
                      "a row" if key in result.unresolved
            else "no second user"))
        yield f"  {key} = {value!r}  [{category}: {reason}]"
    fields = sum(f"{option.path}:{option.owner}" in CONFIGS
                 for option in result.options.values())
    categories: Dict[str, int] = {}
    for category, _reason in result.kept.values():
        categories[category] = categories.get(category, 0) + 1
    kept = ", ".join(f"{category} {categories[category]}"
                     for category in sorted(categories))
    yield (f"Options: {len(result.options) - fields} defaulted parameters "
           f"and {fields} config fields reached; {len(result.single)} take "
           f"one scalar value; kept: {kept or 'none'}; no second user: "
           f"{len(result.unkept)}.")
    for key in result.stale:
        yield f"Stale option keeper (keeps no single-valued option): {key}"


def golden_commands() -> List[List[str]]:
    sys.path.insert(0, str(ROOT))
    from tests.bench.test_golden_output import GOLDEN
    return [GOLDEN[name] for name in sorted(GOLDEN)]


def _run_script(path: pathlib.Path, *args: str) -> None:
    """Run a script as ``__main__`` with its stdout discarded."""
    argv, sys.argv = sys.argv, [path.name, *args]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(path), run_name="__main__")
    except SystemExit:
        pass
    finally:
        sys.argv = argv


def run_commands(census: Census) -> None:
    """Run every command with the census profiling each call."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        profile = census.profiler()
        sys.setprofile(profile)
        threading.setprofile(profile)
        try:
            # Imported under the profiler: what runs at import time counts.
            from repro.bench.cli import main
            for argv in golden_commands() + [["report", "run.json"]]:
                with contextlib.redirect_stdout(io.StringIO()):
                    main(argv)
            _run_script(E2E / "run.py", "--smoke")
            for example in sorted(EXAMPLES.glob("*.py")):
                _run_script(example)
            import check_docs  # beside this script, so on sys.path
            with contextlib.redirect_stdout(io.StringIO()):
                check_docs.check_doctests(check_docs.doc_paths())
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(here)


def _spans(defined: Dict[Site, Function], sites: List[Site]) -> int:
    """Lines of ``sites``, counting a nested def inside a listed one once."""
    lines = 0
    for site in sites:
        function = defined[site]
        if not (function.nested and any(
                other[0] == site[0] and defined[other].first < function.first
                and defined[other].last >= function.last for other in sites)):
            lines += function.last - function.first + 1
    return lines


def report(defined: Dict[Site, Function], result: Triage) -> Iterator[str]:
    unreached = sorted(list(result.kept) + result.unkept)
    current = None
    for site in unreached:
        function = defined[site]
        if function.path != current:
            current = function.path
            yield f"src/repro/{current}"
        category, reason = result.kept.get(site, ("UNKEPT", "no keeper"))
        yield (f"  {function.first:5d}-{function.last:<5d} {function.name}"
               f"  [{category}: {reason}]")
    yield ""
    yield (f"{len(unreached)} of {len(defined)} functions under src/repro "
           f"({_spans(defined, unreached)} lines) are reached by no command: "
           f"the 22 golden commands, report run.json (the traced "
           f"golden's sweep document), "
           f"benchmarks/e2e/run.py --smoke, examples/*.py and the docs' "
           f"doctests.")
    categories: Dict[str, int] = {}
    for category, _reason in result.kept.values():
        categories[category] = categories.get(category, 0) + 1
    for category in sorted(categories):
        yield f"  kept, {category}: {categories[category]}"
    yield f"  no keeper: {len(result.unkept)}"
    for key in result.stale:
        yield f"Stale keeper (keeps no unreached function): {key}"
    yield ("Not seen: work done in --jobs worker processes (the "
           "exp-contention --quick --jobs 2 golden's cells).")


def main(args: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when an unreached function or a "
                             "single-valued option has no keeper, or a "
                             "keeper keeps nothing")
    check = parser.parse_args(args).check
    defined, bases = functions()
    params, fields = options(defined)
    census = Census(params, fields)
    run_commands(census)
    result = triage(defined, census.seen, KEEPERS,
                    frozen_sites(defined, bases), bases)
    for line in report(defined, result):
        print(line)
    reached = [option for site, found in params.items()
               if site in census.seen for option in found]
    reached += [option for found in fields.values() for option in found
                if option.key in census.values]
    options_result = triage_options(
        reached, census.values, OPTION_KEEPERS, calls_in(frozen_paths()),
        calls_in(band_paths()), bases)
    print()
    for line in option_report(options_result, census.values):
        print(line)
    return int(check and bool(result.unkept or result.stale
                              or options_result.unkept
                              or options_result.stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
