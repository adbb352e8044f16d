#!/usr/bin/env python
"""Documentation checks: relative-link integrity and runnable snippets.

Run from the repository root (CI's docs job does)::

    PYTHONPATH=src python tools/check_docs.py

Nine checks keep the docs layer from rotting silently:

* **Links** — every relative markdown link in ``README.md`` and ``docs/``
  must point at an existing file, and every ``#anchor`` must match a
  heading (GitHub slug rules) in the target file.
* **Doctests** — every fenced ```python block that contains ``>>>``
  prompts is executed with :mod:`doctest`.  Blocks within one file share a
  namespace, in order, so a setup block can feed the examples below it.
* **The strategy hook table** in ``docs/CONSISTENCY.md`` — every backticked
  hook name in its first column must be an attribute of
  ``ConsistencyStrategy``, and every ``ConsistencyStrategy`` method a
  built-in strategy overrides (``describe`` excepted) must be listed, so a
  deleted hook cannot linger in the docs and a new one cannot go unlisted.
* **The yield-point table** in ``docs/CONCURRENCY.md`` — the backticked
  labels of its second column must be exactly ``repro.obs.hooks.PAUSES``,
  the pause labels the layers declare.
* **The count table** in ``docs/OBSERVABILITY.md`` — every count of the
  owners in :func:`count_owners` must be in exactly one of its owner's rows,
  an owner's row may list only its own counts, and a name two owners keep
  must be one of the declared :data:`HOMONYMS`; so a second copy of a count
  cannot be added without failing here.
* **The module map** in ``docs/ARCHITECTURE.md`` — every backticked
  ``Class.method()`` (and ``Class.a()/b()``, a bare ``function()``, a bare
  ``CamelCase`` name) in its "Entry points" column must resolve in a module
  its "Module" column names, so a deleted or renamed entry point cannot
  linger there.
* **The tuning-knob table** in ``docs/ADAPTIVE.md`` — each row's backticked
  knob must be a parameter of ``AdaptiveStrategy.__init__`` whose default
  is the row's default, and each scalar parameter must have a row, so the
  table names only options that exist.
* **Bench commands** — every ``python -m repro.bench …`` line in a fenced
  block (``\\`` continuations joined, a trailing ``# comment`` dropped)
  must parse with the CLI's ``build_parser()``, so a deleted subcommand or
  option cannot linger in a copy-paste command.  Nothing is run.
* **The experiment tables** in ``EXPERIMENTS.md`` — each table sits under
  a ``<!-- golden: NAME -->`` marker, and every cell of it equals the cell
  in the same row and column of a table of ``tests/bench/golden/NAME.txt``
  (it may leave columns out), or under ``<!-- unchecked: reason -->``,
  listed in the summary line: a table no golden command prints.

Exit status 0 when everything passes; a non-zero status lists every broken
link / failing example on stderr.  No dependencies beyond the standard
library (plus the ``repro`` package being importable for the snippets).
"""

from __future__ import annotations

import contextlib
import doctest
import importlib
import io
import pkgutil
import re
import shlex
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Files whose links and snippets are checked.
DOC_FILES = ("README.md", "EXPERIMENTS.md", "docs")

#: Inline markdown links: [text](target) — images share the syntax.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Fenced code blocks with an info string, non-greedy across lines.
_FENCE_RE = re.compile(r"^```(\w*)[^\n]*\n(.*?)^```\s*$",
                       re.MULTILINE | re.DOTALL)

_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)

_FENCED_CODE_RE = re.compile(r"^```.*?^```\s*$", re.MULTILINE | re.DOTALL)
_INLINE_CODE_RE = re.compile(r"`[^`\n]*`")

#: The page holding the strategy hook table, and the table's header row.
HOOK_TABLE_DOC = "docs/CONSISTENCY.md"
HOOK_TABLE_HEADER = "| hook | responsibility |"

#: A backticked name, e.g. the ``fetch_multi`` of ``fetch_multi(client, …)``.
_HOOK_NAME_RE = re.compile(r"`(\w+)")

#: The page holding the yield-point table, and the table's header row.
YIELD_TABLE_DOC = "docs/CONCURRENCY.md"
YIELD_TABLE_HEADER = "| Boundary | Labels | Announced by |"

#: A whole backticked span, e.g. ``page:<name>``.
_CODE_SPAN_RE = re.compile(r"`([^`]+)`")

#: The page holding the table of where each count lives, and its header.
COUNT_TABLE_DOC = "docs/OBSERVABILITY.md"
COUNT_TABLE_HEADER = "| Count | Owner | Read it from |"

#: The page holding the module map, and the map's header row.
KNOB_TABLE_DOC = "docs/ADAPTIVE.md"
KNOB_TABLE_HEADER = "| knob | default | meaning |"

#: The page whose tables restate the stdout goldens, and where those live.
EXPERIMENTS_DOC = "EXPERIMENTS.md"
GOLDEN_DIR = "tests/bench/golden"

#: The marker above each table of :data:`EXPERIMENTS_DOC`.
_TABLE_MARKER_RE = re.compile(r"^<!-- (golden|unchecked): (.+?) -->$")

ENTRY_TABLE_DOC = "docs/ARCHITECTURE.md"
ENTRY_TABLE_HEADER = "| Paper concept (§) | Module | Entry points |"

#: An entry point: ``owner.name()`` or ``name()``, then ``/more()`` methods
#: of the same owner; or a bare ``CamelCase`` name.
_ENTRY_CALL_RE = re.compile(r"^(?:(\w+)\.)?(\w+)\(\)((?:/\w+\(\))*)$")
_ENTRY_NAME_RE = re.compile(r"^[A-Z]\w*$")

#: Names that more than one owner keeps, each for a different event or at a
#: different grain — not copies of one count.
HOMONYMS = {
    "deletes": "statement DELETEs on the recorder, cache deletes on a server",
    "lease_contended": "the recorder's per-page sum of the servers' "
                       "verdicts, and the telemetry's per key",
    "cache_hits": "the recorder's per key read; an object's per evaluation",
    "cache_misses": "the recorder's per key read; an object's per evaluation",
    "evictions": "a server's LRU, the buffer pool's LRU, the telemetry's cap",
    "coalesced": "trigger ops folded into one key, refreshes into one",
    "cas_retries": "an object's per loser, the telemetry's per key",
    "stale_served": "an object's per read, the telemetry's per key",
}


def strip_code(text: str) -> str:
    """Remove fenced blocks and inline code spans before scanning links.

    Ordinary code like ``handlers[name](event)`` matches the markdown-link
    syntax; only prose links should be validated.
    """
    return _INLINE_CODE_RE.sub("", _FENCED_CODE_RE.sub("", text))


def doc_paths() -> List[Path]:
    """The markdown files under check, in a stable order."""
    paths: List[Path] = []
    for entry in DOC_FILES:
        path = REPO_ROOT / entry
        if path.is_dir():
            paths.extend(sorted(path.rglob("*.md")))
        elif path.exists():
            paths.append(path)
    return paths


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading: lowercase, punctuation dropped,
    spaces to hyphens (backticks and markdown emphasis are stripped first)."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: Path) -> List[str]:
    return [github_slug(m.group(1)) for m in _HEADING_RE.finditer(path.read_text())]


def check_links(paths: List[Path]) -> List[str]:
    """Return one error string per broken relative link or anchor."""
    errors: List[str] = []
    for path in paths:
        for match in _LINK_RE.finditer(strip_code(path.read_text())):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            base, _, anchor = target.partition("#")
            resolved = (path.parent / base).resolve() if base else path
            if not resolved.exists():
                errors.append(f"{path.relative_to(REPO_ROOT)}: broken link "
                              f"-> {target}")
                continue
            if anchor and resolved.suffix == ".md":
                if anchor not in heading_slugs(resolved):
                    errors.append(f"{path.relative_to(REPO_ROOT)}: missing "
                                  f"anchor -> {target}")
    return errors


def python_snippets(path: Path) -> List[Tuple[int, str]]:
    """(line, source) of each ```python block containing doctest prompts."""
    text = path.read_text()
    snippets: List[Tuple[int, str]] = []
    for match in _FENCE_RE.finditer(text):
        language, body = match.group(1), match.group(2)
        if language == "python" and ">>>" in body:
            line = text.count("\n", 0, match.start()) + 1
            snippets.append((line, body))
    return snippets


def check_doctests(paths: List[Path]) -> List[str]:
    """Run each file's doctest blocks (shared namespace, in order)."""
    errors: List[str] = []
    parser = doctest.DocTestParser()
    for path in paths:
        snippets = python_snippets(path)
        if not snippets:
            continue
        name = str(path.relative_to(REPO_ROOT))
        source = "\n".join(body for _line, body in snippets)
        globs: Dict[str, object] = {}
        test = parser.get_doctest(source, globs, name, name, 0)
        runner = doctest.DocTestRunner(verbose=False,
                                       optionflags=doctest.ELLIPSIS)
        output: List[str] = []
        runner.run(test, out=output.append)
        if runner.failures:
            errors.append(f"{name}: {runner.failures} of {runner.tries} "
                          f"doctest example(s) failed\n" + "".join(output))
    return errors


def bench_commands(path: Path) -> List[Tuple[int, List[str]]]:
    """(line, argv) of each ``python -m repro.bench`` command in a fenced
    block of ``path``: the arguments after ``repro.bench``, with ``\\``
    continuations joined and a trailing ``# comment`` dropped."""
    text = path.read_text()
    commands: List[Tuple[int, List[str]]] = []
    for match in _FENCE_RE.finditer(text):
        first = text.count("\n", 0, match.start(2)) + 1
        pending = ""
        for offset, raw in enumerate(match.group(2).splitlines()):
            if not pending:
                start = first + offset
            if raw.endswith("\\"):
                pending += raw[:-1] + " "
                continue
            command, pending = pending + raw, ""
            if "-m repro.bench" not in command:
                continue
            words = shlex.split(command, comments=True)
            for at in range(len(words) - 1):
                if words[at] == "-m" and words[at + 1] == "repro.bench":
                    commands.append((start, words[at + 2:]))
    return commands


def check_bench_commands(paths: List[Path]) -> List[str]:
    """Return one error per documented bench command the CLI refuses."""
    from repro.bench.cli import build_parser

    parser = build_parser()
    errors: List[str] = []
    for path in paths:
        for line, argv in bench_commands(path):
            refusal = io.StringIO()
            try:
                with contextlib.redirect_stderr(refusal), \
                        contextlib.redirect_stdout(io.StringIO()):
                    parser.parse_args(argv)
            except SystemExit as stop:
                if stop.code:  # --help exits 0
                    reason = refusal.getvalue().rpartition("error: ")[2]
                    errors.append(f"{path.relative_to(REPO_ROOT)}:{line}: "
                                  f"`python -m repro.bench {' '.join(argv)}` "
                                  f"does not parse: {reason.strip()}")
    return errors


def table_column(text: str, header: str, column: int) -> List[str]:
    """The cells of column ``column`` (1-based) of the table under
    ``header``."""
    table = text[text.index(header):].split("\n\n", 1)[0]
    return [row.split("|")[column] for row in table.splitlines()[2:]]


def hook_table_names(text: str) -> List[str]:
    """The backticked names in the first column of the hook table."""
    return [name for cell in table_column(text, HOOK_TABLE_HEADER, 1)
            for name in _HOOK_NAME_RE.findall(cell)]


def check_hook_table() -> List[str]:
    """One error per hook the table lists but ``ConsistencyStrategy`` lacks,
    and per overridden hook the table does not list."""
    from repro.adaptive import AdaptiveStrategy
    from repro.core import strategies

    base = strategies.ConsistencyStrategy
    listed = hook_table_names((REPO_ROOT / HOOK_TABLE_DOC).read_text())
    errors = [f"{HOOK_TABLE_DOC}: the hook table lists `{name}`, which "
              f"ConsistencyStrategy does not have"
              for name in listed if not hasattr(base, name)]
    hooks = {name for name, value in vars(base).items()
             if callable(value) and not name.startswith("_")} - {"describe"}
    builtins = [cls for cls in vars(strategies).values()
                if isinstance(cls, type) and issubclass(cls, base)
                and cls is not base] + [AdaptiveStrategy]
    for cls in builtins:
        for name in sorted((hooks & set(vars(cls))) - set(listed)):
            errors.append(f"{HOOK_TABLE_DOC}: the hook table lacks `{name}`, "
                          f"which {cls.__name__} overrides")
    return errors


def knob_rows(text: str) -> List[Tuple[str, str]]:
    """(knob, default) of each row of the tuning-knob table."""
    return [(_CODE_SPAN_RE.findall(knob)[0], default.strip())
            for knob, default in zip(
                table_column(text, KNOB_TABLE_HEADER, 1),
                table_column(text, KNOB_TABLE_HEADER, 2))]


def check_knob_table() -> List[str]:
    """One error per knob row that is no ``AdaptiveStrategy.__init__``
    parameter or shows another default, and per scalar parameter with no
    row (the delegate strategies are objects, not knobs)."""
    import inspect

    from repro.adaptive import AdaptiveStrategy

    parameters = inspect.signature(AdaptiveStrategy.__init__).parameters
    rows = knob_rows((REPO_ROOT / KNOB_TABLE_DOC).read_text())
    errors = []
    for knob, default in rows:
        parameter = parameters.get(knob)
        if parameter is None:
            errors.append(f"{KNOB_TABLE_DOC}: the knob table lists `{knob}`, "
                          f"which AdaptiveStrategy() does not take")
        elif repr(parameter.default) != default:
            errors.append(f"{KNOB_TABLE_DOC}: `{knob}` defaults to "
                          f"{parameter.default!r}, not {default}")
    listed = {knob for knob, _default in rows}
    for name, parameter in parameters.items():
        if (isinstance(parameter.default, (int, float))
                and name not in listed):
            errors.append(f"{KNOB_TABLE_DOC}: the knob table lacks `{name}`")
    return errors


def yield_table_labels(text: str) -> List[str]:
    """The backticked labels in the second column of the yield-point
    table."""
    return [label for cell in table_column(text, YIELD_TABLE_HEADER, 2)
            for label in _CODE_SPAN_RE.findall(cell)]


def check_yield_table() -> List[str]:
    """One error per label the table lists but no layer declares, and per
    declared label the table does not list."""
    from repro.obs import hooks

    listed = yield_table_labels((REPO_ROOT / YIELD_TABLE_DOC).read_text())
    return ([f"{YIELD_TABLE_DOC}: the yield-point table lists `{label}`, "
             f"which is not in repro.obs.hooks.PAUSES"
             for label in listed if label not in hooks.PAUSES]
            + [f"{YIELD_TABLE_DOC}: the yield-point table lacks `{label}`, "
               f"which repro.obs.hooks.PAUSES declares"
               for label in hooks.PAUSES if label not in listed])


def row_modules(cell: str) -> List[object]:
    """The modules a "Module" cell names: ``src/repro/...py`` files, bare
    ``name.py`` files beside the previous one, and ``src/repro/.../``
    packages with every module in them."""
    modules: List[object] = []
    directory = None
    for path in _CODE_SPAN_RE.findall(cell):
        if not path.startswith("src/repro/"):
            if directory is None or "/" in path:
                continue
            path = directory + path
        directory = path if path.endswith("/") else path.rsplit("/", 1)[0] + "/"
        dotted = path[len("src/"):].rstrip("/").replace("/", ".")
        if dotted.endswith(".py"):
            modules.append(importlib.import_module(dotted[:-3]))
            continue
        package = importlib.import_module(dotted)
        modules.append(package)
        modules.extend(importlib.import_module(f"{dotted}.{info.name}")
                       for info in pkgutil.iter_modules(package.__path__))
    return modules


def _lookup(modules: List[object], name: str) -> Optional[object]:
    """``name`` in the first of ``modules`` that has it, or the module of
    that name."""
    for module in modules:
        if hasattr(module, name):
            return getattr(module, name)
        if module.__name__.rsplit(".", 1)[-1] == name:
            return module
    return None


def check_entry_points(text: Optional[str] = None) -> List[str]:
    """One error per entry point of the module map (``text``, by default
    the page's) that names nothing in its row's modules.  A bare ``name()``
    may be a module function or a method of a class the cell named before
    it."""
    if text is None:
        text = (REPO_ROOT / ENTRY_TABLE_DOC).read_text()
    table = text[text.index(ENTRY_TABLE_HEADER):].split("\n\n", 1)[0]
    errors = []
    for row in table.splitlines()[2:]:
        _concept, module_cell, entry_cell = row.split("|")[1:4]
        modules = row_modules(module_cell)
        if not modules:
            continue
        owners: List[object] = []    # the classes the cell named so far
        for span in _CODE_SPAN_RE.findall(entry_cell):
            call = _ENTRY_CALL_RE.match(span)
            if call is None:
                if _ENTRY_NAME_RE.match(span):
                    owner = _lookup(modules, span)
                    if owner is None:
                        errors.append(f"{ENTRY_TABLE_DOC}: `{span}` is in no "
                                      f"module of its row")
                    else:
                        owners.append(owner)
                continue
            owner_name, name, more = call.groups()
            names = [name] + re.findall(r"\w+", more)
            if owner_name is None:
                found = all(any(hasattr(owner, each)
                                for owner in modules + owners)
                            for each in names)
            else:
                owner = _lookup(modules, owner_name)
                found = owner is not None and all(hasattr(owner, each)
                                                  for each in names)
                if owner is not None:
                    owners.append(owner)
            if not found:
                errors.append(f"{ENTRY_TABLE_DOC}: `{span}` does not resolve "
                              f"in its row's modules")
    return errors


def count_owners() -> Dict[str, Tuple[str, ...]]:
    """The owners the count table must cover name for name: the first
    backticked name of an owner cell -> the counts that owner keeps."""
    from dataclasses import fields

    from repro.cluster import ClusterController, GutterPool
    from repro.core.stats import CachedObjectStats
    from repro.memcache import CacheClient, CacheServer
    from repro.memcache.stats import CACHE_STAT_FIELDS
    from repro.storage.costmodel import COST_COUNTER_FIELDS

    server = CacheServer("count-table")
    controller = ClusterController([CacheClient([server])], [server],
                                   clock=lambda: 0.0)
    return {
        "Recorder": COST_COUNTER_FIELDS,
        "CacheServer.stats": CACHE_STAT_FIELDS,
        "CachedObjectStats": tuple(f.name for f in fields(CachedObjectStats)),
        "GutterPool": tuple(GutterPool([server]).counters()),
        "ClusterController": tuple(controller.counters()),
    }


def count_table_rows(text: str) -> List[Tuple[str, List[str]]]:
    """``(owner, counts)`` per row of the count table: the first backticked
    name of the owner cell, and the backticked names of the count cell."""
    owners = table_column(text, COUNT_TABLE_HEADER, 2)
    counts = table_column(text, COUNT_TABLE_HEADER, 1)
    return [(_CODE_SPAN_RE.findall(owner)[0], _CODE_SPAN_RE.findall(cell))
            for owner, cell in zip(owners, counts)]


def check_count_table() -> List[str]:
    """One error per count missing from its owner's rows or listed twice
    there, per count a row lists that its owner does not keep, and per
    name two owners keep that is not a declared homonym."""
    owners = count_owners()
    rows = count_table_rows((REPO_ROOT / COUNT_TABLE_DOC).read_text())
    errors: List[str] = []
    for owner, names in owners.items():
        for name in names:
            listed = sum(counts.count(name) for row_owner, counts in rows
                         if row_owner == owner)
            if listed != 1:
                errors.append(f"{COUNT_TABLE_DOC}: `{name}` of {owner} is "
                              f"listed {listed} times in its rows, not once")
    keepers: Dict[str, set] = {}
    for owner, names in owners.items():
        for name in names:
            keepers.setdefault(name, set()).add(owner)
    for owner, counts in rows:
        for name in counts:
            if owner in owners and name not in owners[owner]:
                errors.append(f"{COUNT_TABLE_DOC}: the {owner} row lists "
                              f"`{name}`, which {owner} does not keep")
            keepers.setdefault(name, set()).add(owner)
    shared = {name for name, kept_by in keepers.items() if len(kept_by) > 1}
    errors += [f"{COUNT_TABLE_DOC}: `{name}` is kept by "
               f"{', '.join(sorted(keepers[name]))}: one count, one owner "
               f"(or declare it in HOMONYMS)"
               for name in sorted(shared - set(HOMONYMS))]
    errors += [f"check_docs.py: HOMONYMS declares `{name}`, which only one "
               f"owner keeps" for name in sorted(set(HOMONYMS) - shared)]
    return errors


def markdown_tables(text: str) -> List[Tuple[int, str, List[List[str]]]]:
    """(line, the line above, rows of cells) of each markdown table in
    ``text``; the delimiter row is dropped and ``**`` bold is unwrapped."""
    lines = text.splitlines()
    tables: List[Tuple[int, str, List[List[str]]]] = []
    at = 0
    while at < len(lines):
        if not lines[at].startswith("|"):
            at += 1
            continue
        start = at
        while at < len(lines) and lines[at].startswith("|"):
            at += 1
        rows = [[cell.strip().replace("**", "")
                 for cell in line.strip().strip("|").split("|")]
                for line in lines[start:at]]
        del rows[1]
        tables.append((start + 1, lines[start - 1] if start else "", rows))
    return tables


def golden_tables(text: str) -> List[List[List[str]]]:
    """Each table :func:`repro.bench.reporting.format_table` printed in a
    golden, as rows of cells; its dashes row gives the columns."""
    lines = text.splitlines()
    tables = []
    for at in range(1, len(lines)):
        if not re.fullmatch(r"-+(  -+)*", lines[at].rstrip()):
            continue
        starts = [match.start() for match in re.finditer(r"-+", lines[at])]
        ends = starts[1:] + [None]
        end = at + 1
        while end < len(lines) and lines[end].strip():
            end += 1
        tables.append([[line[a:b].strip() for a, b in zip(starts, ends)]
                       for line in [lines[at - 1]] + lines[at + 1:end]])
    return tables


def compare_table(where: str, name: str, rows: List[List[str]],
                  golden: List[List[List[str]]]) -> List[str]:
    """One error per cell of the table ``rows`` that differs from the
    golden table with all of its columns."""
    header = rows[0]
    table = next((table for table in golden if set(header) <= set(table[0])),
                 None)
    if table is None:
        return [f"{where}: no table of golden {name} has the columns "
                f"{header}"]
    if len(rows) != len(table):
        return [f"{where}: {len(rows) - 1} rows, golden {name} has "
                f"{len(table) - 1}"]
    columns = [table[0].index(label) for label in header]
    return [f"{where}: row {row[0]!r}, column {label!r} reads {cell!r}; "
            f"golden {name} has {expected[column]!r}"
            for row, expected in zip(rows[1:], table[1:])
            for label, cell, column in zip(header, row, columns)
            if cell != expected[column]]


def check_experiment_tables() -> Tuple[List[str], List[str]]:
    """The errors of :data:`EXPERIMENTS_DOC`'s tables against the goldens
    they restate, and the tables marked unchecked."""
    errors: List[str] = []
    unchecked: List[str] = []
    text = (REPO_ROOT / EXPERIMENTS_DOC).read_text()
    for line, above, rows in markdown_tables(text):
        where = f"{EXPERIMENTS_DOC}:{line}"
        marker = _TABLE_MARKER_RE.match(above)
        if marker is None:
            errors.append(f"{where}: the table has no `<!-- golden: NAME -->`"
                          f" or `<!-- unchecked: reason -->` line above it")
        elif marker.group(1) == "unchecked":
            unchecked.append(f"{where} ({marker.group(2)})")
        else:
            name = marker.group(2)
            path = REPO_ROOT / GOLDEN_DIR / f"{name}.txt"
            if not path.exists():
                errors.append(f"{where}: no golden {name}")
                continue
            errors += compare_table(where, name, rows,
                                    golden_tables(path.read_text()))
    return errors, unchecked


def main() -> int:
    paths = doc_paths()
    if not paths:
        print("check_docs: no documentation files found", file=sys.stderr)
        return 1
    errors = (check_links(paths) + check_doctests(paths) + check_hook_table()
              + check_yield_table() + check_count_table()
              + check_entry_points() + check_knob_table()
              + check_bench_commands(paths))
    table_errors, unchecked = check_experiment_tables()
    errors += table_errors
    snippet_count = sum(len(python_snippets(p)) for p in paths)
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        print(f"check_docs: {len(errors)} problem(s) across {len(paths)} "
              f"file(s)", file=sys.stderr)
        return 1
    print(f"check_docs: {len(paths)} file(s) OK "
          f"({snippet_count} doctest block(s) executed)")
    print(f"check_docs: {len(unchecked)} {EXPERIMENTS_DOC} table(s) restate "
          f"no golden, unchecked: {', '.join(unchecked) or 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
