"""Which functions under ``src/repro`` does no command of the system reach,
and what keeps each one that none does?

Runs every golden ``python -m repro.bench`` invocation (the 23 argv lists of
``tests/bench/test_golden_output.py``), ``report run.json`` on the traced
one's run document, ``benchmarks/e2e/run.py --smoke``, every
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

Work done in the worker processes of the ``--jobs 2`` golden is not seen: a
function only those processes run is listed as unreached.  Stdlib only::

    PYTHONPATH=src python tools/reach.py            # the report; exits 0
    PYTHONPATH=src python tools/reach.py --check    # exits 1 on a finding

``--check`` fails when an unreached function has no keeper, or when a row of
:data:`KEEPERS` keeps nothing: the function it names was deleted, or a
command reaches it now.  Either way the row goes.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib
import io
import os
import pathlib
import runpy
import sys
import tempfile
import threading
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

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
_TRIGGER_EVENTS = ("§3.2: a cached object's trigger handles DELETE and "
                   "UPDATE as well as INSERT")

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
    "storage/table.py:Index.range": (REFERENCE, _GOLDEN_CORPUS),
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
    "storage/database.py:Database.table_names": (
        REFERENCE, "the sqlite mirror and GOLDEN_SEEDED_STATE walk the "
                   "tables through it"),
    "storage/schema.py:TableSchema.column_names": (
        REFERENCE, "the sqlite mirror reads a schema's columns through it"),
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
    "core/cache_classes/feature.py:FeatureQuery._remove_row": (
        PAPER, _TRIGGER_EVENTS),
    "core/cache_classes/link.py:LinkQuery._remove_row": (
        PAPER, _TRIGGER_EVENTS),
    "core/cache_classes/link.py:LinkQuery._replace_row": (
        PAPER, _TRIGGER_EVENTS),
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
        ORACLE, "tests/adaptive: one key's decayed record"),
    "core/refresh.py:RefreshQueue.pending_keys": (
        ORACLE, "tests/core, tests/cluster: the current context's backlog"),
    "core/trigger_queue.py:TriggerOpQueue.pending_count": (
        ORACLE, "tests/core, tests/sim: the current context's backlog"),
    "core/trigger_queue.py:TriggerOpQueue.pending_keys": (
        ORACLE, "tests/core, tests/sim: the current context's backlog"),
    "storage/heap.py:HeapFile.fetch": (
        ORACLE, "tests/storage/test_heap.py: one row by rowid"),
    "storage/heap.py:HeapFile.row_count": (
        ORACLE, "tests/storage/test_heap.py, HeapFile.__repr__"),
    "storage/heap.py:HeapFile.page_count": (
        ORACLE, "tests/storage/test_heap.py, HeapFile.__repr__"),
    "storage/table.py:Table.row_count": (
        ORACLE, "tests/storage/test_table.py"),
    "storage/table.py:Table.fetch_by_pk": (
        ORACLE, "tests/storage: a row by primary key, past the executor"),
    "obs/tracer.py:Tracer.events": (ORACLE, "tests/obs/test_tracer.py"),
    "obs/tracer.py:Tracer.spans_named": (
        ORACLE, "tests/obs/test_tracing_differential.py"),
    "obs/tracer.py:Tracer.categories": (
        ORACLE, "tests/obs: the layers a traced replay crossed"),
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
                        relative, name, first, child.end_lineno, nested)
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


def run_commands(seen: Set[Site]) -> None:
    """Run every command with the profiler recording each code object."""

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
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
           f"the 23 golden commands, report run.json, "
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
                        help="exit 1 when an unreached function has no "
                             "keeper or a keeper keeps nothing")
    check = parser.parse_args(args).check
    defined, bases = functions()
    seen: Set[Site] = set()
    run_commands(seen)
    result = triage(defined, seen, KEEPERS, frozen_sites(defined, bases),
                    bases)
    for line in report(defined, result):
        print(line)
    return int(check and bool(result.unkept or result.stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
