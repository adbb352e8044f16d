#!/usr/bin/env python
"""Re-pin every behaviour pin in one command, and show what moved.

Run from the repository root::

    PYTHONPATH=src python tools/repin.py --check    # the table; exit 1 if a pin moved
    PYTHONPATH=src python tools/repin.py --write --expect GOLDEN_FINGERPRINTS

The pins (:data:`PINS`):

* dict literals in test modules — ``GOLDEN_FINGERPRINTS`` and
  ``GOLDEN_CACHE_ACCOUNTING`` (``tests/sim/test_differential.py``),
  ``GOLDEN_EVENT_ORDER``, ``GOLDEN_SEEDED_STATE``, ``GOLDEN_CORPUS`` and
  ``GOLDEN_SCOPED_READS``.
  Each module names the function that builds an entry's *named quantities*
  (a replay fingerprint, a seeded state, ...) and the function that turns
  them into the pinned value (a SHA-256, or a tuple);
* the stdout of every ``python -m repro.bench`` command under
  ``tests/bench/golden/``, one file per command of
  ``tests/bench/test_golden_output.py``'s ``GOLDEN``.

**Old and new.**  The working tree's pin-building test code runs twice, in a
fresh process each time: once over ``HEAD``'s ``src/``, extracted with
``git archive`` into a temporary directory, and once over the working
tree's ``src/``.  When the two ``src/`` trees are the same, one run serves
both.  Nothing else is needed at ``HEAD``.

**The table** pairs old and new, one row per moved quantity:

* a text golden shows its changed lines;
* a hashed pin shows the named quantities behind the hash: each leaf that
  appeared, vanished or changed value, with list positions folded into
  ``[*]`` — so ``pages[*][3].cache_multi_sets x5`` is that counter in the
  five pages where it moved, summed (``S``) on each side.

**Modes and exit status.**  Each mode prints the table.

* ``--check``: write nothing; exit 1 when a pin in the tree differs from
  what the working tree computes.
* ``--write --expect NAME,...``: rewrite each moved pin in place — the
  value literal of an in-file pin (its comments and layout stay), the whole
  file of a text golden — when every moved pin matches a NAME; otherwise
  write nothing and exit 1.  A NAME is a pin id
  (``GOLDEN_FINGERPRINTS:Update``, ``golden:exp-batch``), a group
  (``GOLDEN_CACHE_ACCOUNTING``, ``golden``) or an ``fnmatch`` pattern of
  ids.  It refuses (exit 2) without ``--expect``, and when a pin file has
  uncommitted pin edits, so a hand edit cannot hide inside a re-pin.

A pin whose building raised is reported with its traceback and exits 1.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import difflib
import fnmatch
import importlib
import io
import json
import os
import re
import textwrap
import subprocess
import sys
import tarfile
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The group of the stdout goldens' pin ids (``golden:<stem>``).
TEXT_GROUP = "golden"


@dataclasses.dataclass(frozen=True)
class InFilePin:
    """A dict literal of pins in a test module."""

    path: str     # the module, relative to the repository root
    name: str     # the dict: entry name -> pinned value
    build: str    # module function: entry name -> its named quantities
    digest: str   # module function: named quantities -> the pinned value

    @property
    def group(self) -> str:
        return self.name


@dataclasses.dataclass(frozen=True)
class TextGoldens:
    """Files ``<directory>/<stem>.txt``, each one command's stdout."""

    path: str       # the module naming the commands
    directory: str  # the golden files, relative to the repository root
    commands: str   # module dict: stem -> argv
    run: str        # module function: argv -> stdout

    group = TEXT_GROUP


PINS: Tuple[Any, ...] = (
    InFilePin("tests/sim/test_differential.py", "GOLDEN_FINGERPRINTS",
              "golden_fingerprint", "fingerprint_digest"),
    InFilePin("tests/sim/test_differential.py", "GOLDEN_CACHE_ACCOUNTING",
              "cache_accounting", "accounting_pin"),
    InFilePin("tests/sim/test_event_path.py", "GOLDEN_EVENT_ORDER",
              "event_order", "digest"),
    InFilePin("tests/apps/test_seeded_state.py", "GOLDEN_SEEDED_STATE",
              "seeded_state_at", "state_digest"),
    InFilePin("tests/storage/test_corpus_pins.py", "GOLDEN_CORPUS",
              "corpus_traces", "traces_digest"),
    InFilePin("tests/storage/test_prepared_reads.py", "GOLDEN_SCOPED_READS",
              "scoped_reads", "scoped_reads_digest"),
    TextGoldens("tests/bench/test_golden_output.py", "tests/bench/golden",
                "GOLDEN", "run_cli"),
)


def jsonable(value: Any) -> Any:
    """``value`` as JSON gives it back: tuples become lists, anything JSON
    cannot hold its ``repr``."""
    return json.loads(json.dumps(value, default=repr))


# -- collecting: one process per src/ tree -------------------------------------------


def _module_name(path: str) -> str:
    return path[:-len(".py")].replace("/", ".")


def collect(specs: Sequence[Dict[str, str]], label: str) -> Dict[str, Any]:
    """Build every pin of ``specs``: ``{pin id: {"pin", "quantities"}}``, or
    ``{"error": traceback}`` for a pin whose building raised."""
    out: Dict[str, Any] = {}
    for spec in specs:
        group = spec["group"]
        try:
            module = importlib.import_module(_module_name(spec["path"]))
        except Exception:  # e.g. the test code needs a name HEAD's src/ lacks
            out[f"{group}:*"] = {"error": traceback.format_exc()}
            continue
        if "directory" in spec:
            run = getattr(module, spec["run"])
            jobs = [(f"{group}:{stem}", run, argv)
                    for stem, argv in getattr(module, spec["commands"]).items()]
        else:
            build = getattr(module, spec["build"])
            jobs = [(f"{group}:{entry}", build, entry)
                    for entry in getattr(module, spec["name"])]
        for pin_id, call, argument in jobs:
            started = time.perf_counter()
            try:
                with tempfile.TemporaryDirectory() as scratch, \
                        _working_directory(scratch):
                    quantities = call(argument)
                pin = (quantities if "directory" in spec
                       else getattr(module, spec["digest"])(quantities))
                out[pin_id] = {"pin": jsonable(pin),
                               "quantities": jsonable(quantities)}
            except Exception:  # reported, and the run exits 1
                out[pin_id] = {"error": traceback.format_exc()}
            print(f"[{label}] {pin_id} {time.perf_counter() - started:.1f}s",
                  file=sys.stderr, flush=True)
    return out


@contextlib.contextmanager
def _working_directory(path: str):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def _start_collector(root: Path, src: Path, specs: Sequence[Any], label: str,
                     out: Path) -> subprocess.Popen:
    payload = json.dumps([dict(dataclasses.asdict(spec), group=spec.group)
                          for spec in specs])
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{root}",
               PYTHONHASHSEED="0")
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--collect", payload,
         label, str(out)], cwd=str(root), env=env)


def _git(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=str(root), capture_output=True)


def _same_src(root: Path) -> bool:
    diff = _git(root, "diff", "--quiet", "HEAD", "--", "src")
    status = _git(root, "status", "--porcelain", "--", "src")
    return diff.returncode == 0 and not status.stdout.strip()


def build_both(root: Path, specs: Sequence[Any],
               ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """``(old, new)``: every pin built over ``HEAD``'s ``src/`` and over the
    working tree's."""
    with tempfile.TemporaryDirectory() as scratch:
        scratch_path = Path(scratch)
        runs = {"new": root / "src"}
        if not _same_src(root):
            archive = _git(root, "archive", "--format=tar", "HEAD", "src")
            if archive.returncode != 0:
                raise SystemExit("repin: cannot read src/ at HEAD: "
                                 f"{archive.stderr.decode().strip()}")
            with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
                tar.extractall(scratch_path / "base")
            runs["old"] = scratch_path / "base" / "src"
        procs = {label: _start_collector(root, src, specs, label,
                                         scratch_path / f"{label}.json")
                 for label, src in runs.items()}
        for label, proc in procs.items():
            if proc.wait() != 0:
                raise SystemExit(f"repin: building the {label} pins failed "
                                 f"(exit {proc.returncode})")
        built = {label: json.loads((scratch_path / f"{label}.json").read_text())
                 for label in procs}
    return built.get("old", built["new"]), built["new"]


# -- the pins in the tree ------------------------------------------------------------


def _dict_node(source: str, name: str) -> ast.Dict:
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        if any(isinstance(t, ast.Name) and t.id == name for t in targets) \
                and isinstance(node.value, ast.Dict):
            return node.value
    raise SystemExit(f"repin: no dict literal {name} found")


def in_file_values(source: str, name: str) -> Dict[str, Any]:
    """The entries of the dict literal ``name`` in a module's source."""
    node = _dict_node(source, name)
    return {ast.literal_eval(key): ast.literal_eval(value)
            for key, value in zip(node.keys, node.values)}


def tree_pins(root: Path, specs: Sequence[Any],
              ids: Iterable[str]) -> Dict[str, Any]:
    """The value each pin id has in the working tree (None when absent)."""
    values: Dict[str, Any] = {}
    for spec in specs:
        if isinstance(spec, TextGoldens):
            for stem in _entries(spec, ids):
                path = root / spec.directory / f"{stem}.txt"
                values[f"{spec.group}:{stem}"] = (path.read_text()
                                                  if path.exists() else None)
            continue
        entries = in_file_values((root / spec.path).read_text(), spec.name)
        for entry, value in entries.items():
            values[f"{spec.group}:{entry}"] = jsonable(value)
    return values


def _entries(spec: Any, ids: Iterable[str]) -> List[str]:
    """The entry names of ``spec``'s pins among the pin ids ``ids``."""
    return [entry for group, _, entry in (i.partition(":") for i in ids)
            if group == spec.group]


def dirty_pin_files(root: Path, specs: Sequence[Any]) -> List[str]:
    """Pin files whose pins differ from ``HEAD``'s."""
    dirty = []
    for spec in specs:
        if isinstance(spec, TextGoldens):
            status = _git(root, "status", "--porcelain", "--untracked-files=all",
                          "--", spec.directory)
            dirty += [line[3:] for line in status.stdout.decode().splitlines()]
            continue
        committed = _git(root, "show", f"HEAD:{spec.path}")
        if committed.returncode != 0 or (
                in_file_values(committed.stdout.decode(), spec.name)
                != in_file_values((root / spec.path).read_text(), spec.name)):
            dirty.append(f"{spec.path} ({spec.name})")
    return dirty


# -- what moved ----------------------------------------------------------------------

_MISSING = object()


def _kind(value: Any) -> type:
    return float if isinstance(value, int) and not isinstance(value, bool) \
        else type(value)


def flatten(value: Any, path: str = "", shape: str = "",
            ) -> Iterable[Tuple[str, str, Any]]:
    """Every leaf of a JSON value as ``(path, shape, leaf)``.  A list also
    yields its length as ``path[#]``; in the shape, the positions of a list
    whose items are all of one kind are folded into ``[*]`` (a tuple's
    positions, of mixed kinds, stay)."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from flatten(item, f"{path}.{key}" if path else str(key),
                               f"{shape}.{key}" if shape else str(key))
    elif isinstance(value, list):
        yield f"{path}[#]", f"{shape}[#]", len(value)
        fold = len({_kind(item) for item in value}) == 1
        for index, item in enumerate(value):
            yield from flatten(item, f"{path}[{index}]",
                               f"{shape}[*]" if fold else f"{shape}[{index}]")
    else:
        yield path, shape, value


def _number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _shown(value: Any) -> str:
    if value is _MISSING:
        return "—"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _pct(old: Any, new: Any) -> str:
    if old == 0:
        return "+inf" if new else "±0"
    return f"{(new - old) / abs(old) * 100:+.2f}%"


def _cells(pairs: List[Tuple[Any, Any]], kind: str) -> Tuple[str, str, str]:
    """Old, new and diff of a fold: one value shown as it is, several
    numbers as their sums (``S``), anything else as its first value."""
    olds = [was for was, _ in pairs if was is not _MISSING]
    news = [now for _, now in pairs if now is not _MISSING]
    numeric = all(_number(v) for v in olds + news)
    if numeric and len(pairs) > 1:
        cells = [f"S {_shown(sum(side))}" if side else "—"
                 for side in (olds, news)]
    else:
        cells = [(_shown(side[0]) + (" …" if len(pairs) > 1 else ""))
                 if side else "—" for side in (olds, news)]
    diff = _pct(sum(olds), sum(news)) if kind == "changed" and numeric \
        else kind
    return cells[0], cells[1], diff


def quantity_rows(old: Any, new: Any) -> List[Tuple[str, str, str, str]]:
    """``(quantity, old, new, diff)`` per moved quantity: list positions are
    folded (``[*]``, with the fold's size), and the keys of one dict that
    moved alike share a row (``total.{a, b}``)."""
    before = {path: leaf for path, _, leaf in flatten(old)}
    after = {path: leaf for path, _, leaf in flatten(new)}
    shapes = {path: shape for source in (new, old)
              for path, shape, _ in flatten(source)}
    folds: Dict[Tuple[str, str], List[Tuple[Any, Any]]] = {}
    for path in list(after) + [p for p in before if p not in after]:
        was, now = before.get(path, _MISSING), after.get(path, _MISSING)
        if was == now and was is not _MISSING:
            continue
        kind = ("vanished" if now is _MISSING
                else "appeared" if was is _MISSING else "changed")
        folds.setdefault((shapes[path], kind), []).append((was, now))
    merged: Dict[Tuple[str, int, str, str, str], List[str]] = {}
    for (shape, kind), pairs in folds.items():
        parent, dot, key = shape.rpartition(".")
        if not dot or "[" in key:
            parent, key = shape, ""
        merged.setdefault((parent, len(pairs)) + _cells(pairs, kind),
                          []).append(key)
    rows = []
    for (parent, size, old_cell, new_cell, diff), keys in merged.items():
        label = (parent if keys == [""]
                 else f"{parent}.{keys[0]}" if len(keys) == 1
                 else f"{parent}.{{{', '.join(keys)}}}")
        if "[*]" in label:
            label += f" x{size}"
        rows.append((label, old_cell, new_cell, diff))
    return rows


def _squeeze(line: str) -> str:
    return re.sub(r"\s{2,}", "  ", line.strip())


def text_rows(old: str, new: str) -> List[Tuple[str, str, str, str]]:
    """``(line, old, new, diff)`` per changed line of a text golden."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    rows = []
    matcher = difflib.SequenceMatcher(None, old_lines, new_lines,
                                      autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            continue
        for k in range(max(i2 - i1, j2 - j1)):
            was = old_lines[i1 + k] if i1 + k < i2 else None
            now = new_lines[j1 + k] if j1 + k < j2 else None
            line = (f"line {j1 + k + 1}" if now is not None
                    else f"old line {i1 + k + 1}")
            rows.append((line, "—" if was is None else _squeeze(was),
                         "—" if now is None else _squeeze(now),
                         "appeared" if was is None
                         else "vanished" if now is None else "changed"))
    return rows


def _pin_cell(value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, str):
        return (f"{value.count(chr(10))} lines" if "\n" in value
                else value[:12] + "…" if len(value) > 12 else value)
    return _shown(value)


def moved_rows(pin_id: str, committed: Any, old: Dict[str, Any],
               new: Dict[str, Any]) -> List[Tuple[str, str, str, str]]:
    rows = [("pin", _pin_cell(committed), _pin_cell(new["pin"]), "moved")]
    if "error" in old:
        last = old["error"].strip().splitlines()[-1]
        return rows + [("(old quantities unavailable)", last, "", "")]
    moved = (text_rows(old["quantities"], new["quantities"])
             if pin_id.startswith(f"{TEXT_GROUP}:")
             else quantity_rows(old["quantities"], new["quantities"]))
    if not moved:
        moved = [("(no quantity moved since HEAD: the pin-building "
                  "code changed, or the pin is stale at HEAD)", "", "", "")]
    return rows + moved


# -- the table -----------------------------------------------------------------------

#: Width of each column; a longer cell wraps onto the next line.
WIDTHS = (30, 40, 36, 36, 9)
#: Rows shown per moved pin; the rest are counted in one last row.
MAX_ROWS = 16
HEADER = ("Pin", "Quantity", "Old", "New", "Diff")


def render(title: str, blocks: Sequence[Tuple[str, List[Tuple[str, ...]]]],
           summary: Sequence[str]) -> str:
    """The paired old/new table: one block of rows per moved pin."""
    def lines(cells: Sequence[str]) -> List[str]:
        wrapped = [textwrap.wrap(cell, width, break_on_hyphens=False) or [""]
                   for cell, width in zip(cells, WIDTHS)]
        return ["| " + " | ".join(
            f"{(column[i] if i < len(column) else ''):<{width}}"
            for column, width in zip(wrapped, WIDTHS)) + " |"
            for i in range(max(len(column) for column in wrapped))]

    sep = "-" * len(lines(HEADER)[0])
    inner = len(sep) - 4
    out = [sep, f"| {title:^{inner}} |", sep] + lines(HEADER) + [sep]
    for pin, rows in blocks:
        if len(rows) > MAX_ROWS:
            rows = rows[:MAX_ROWS - 1] + [
                (f"({len(rows) - MAX_ROWS + 1} more moved quantities)",
                 "", "", "")]
        shown = pin.replace(":", ": ", 1)      # wraps after the group
        for i, row in enumerate(rows):
            out += lines((shown if i == 0 else "",) + tuple(row))
        out.append(sep)
    out += [f"| {'SUMMARY':^{inner}} |", sep]
    out += [f"| {piece:<{inner}} |" for text in summary
            for piece in textwrap.wrap(text, inner) or [""]]
    out.append(sep)
    return "\n".join(out)


# -- writing -------------------------------------------------------------------------


def _literal(value: Any, like: Any) -> str:
    if isinstance(like, tuple):
        return "(" + ", ".join(repr(item) for item in value) + ")"
    if isinstance(value, str):
        return json.dumps(value)
    return repr(value)


def rewrite_in_file(path: Path, name: str, values: Dict[str, Any]) -> None:
    """Replace the value literals of ``name``'s entries in ``values``."""
    source = path.read_text()
    data = source.encode("utf-8")
    starts = [0]
    for raw in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(raw))
    edits = []
    node = _dict_node(source, name)
    for key, value in zip(node.keys, node.values):
        entry = ast.literal_eval(key)
        if entry in values:
            begin = starts[value.lineno - 1] + value.col_offset
            end = starts[value.end_lineno - 1] + value.end_col_offset
            literal = _literal(values[entry], ast.literal_eval(value))
            edits.append((begin, end, literal.encode("utf-8")))
    for begin, end, literal in sorted(edits, reverse=True):
        data = data[:begin] + literal + data[end:]
    path.write_text(data.decode("utf-8"))


def write_pins(root: Path, specs: Sequence[Any], moved: Dict[str, Any]) -> None:
    for spec in specs:
        values = {entry: moved[f"{spec.group}:{entry}"]
                  for entry in _entries(spec, moved)}
        if isinstance(spec, TextGoldens):
            for stem, text in values.items():
                (root / spec.directory / f"{stem}.txt").write_text(text)
        elif values:
            rewrite_in_file(root / spec.path, spec.name, values)


# -- the command ---------------------------------------------------------------------


def expected(pin_id: str, names: Sequence[str]) -> bool:
    group = pin_id.partition(":")[0]
    return any(name in (pin_id, group) or fnmatch.fnmatchcase(pin_id, name)
               for name in names)


def main(argv: Optional[Sequence[str]] = None, root: Path = REPO_ROOT,
         pins: Sequence[Any] = PINS) -> int:
    parser = argparse.ArgumentParser(
        description="Re-pin every behaviour pin; print old -> new.")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="write nothing; exit 1 when a pin moved")
    mode.add_argument("--write", action="store_true",
                      help="rewrite the moved pins in place (needs --expect)")
    mode.add_argument("--collect", nargs=3, help=argparse.SUPPRESS)
    parser.add_argument("--expect", default="",
                        help="with --write: comma-separated pin ids, groups "
                             "or patterns allowed to move")
    args = parser.parse_args(argv)
    if args.collect:
        specs, label, out = args.collect
        Path(out).write_text(json.dumps(collect(json.loads(specs), label)))
        return 0

    names = [name for name in args.expect.split(",") if name]
    if args.check and names:
        parser.error("--expect goes with --write")
    if args.write:
        if not names:
            print("repin: --write needs --expect naming the pins meant to "
                  "move", file=sys.stderr)
            return 2
        dirty = dirty_pin_files(root, pins)
        if dirty:
            print("repin: refusing to re-pin over uncommitted pin edits in: "
                  + ", ".join(dirty), file=sys.stderr)
            return 2
    old, new = build_both(root, pins)
    committed = tree_pins(root, pins, new)
    errors = {pin_id: built["error"] for pin_id, built in new.items()
              if "error" in built}
    moved = {pin_id: built for pin_id, built in new.items()
             if "error" not in built and built["pin"] != committed.get(pin_id)}
    unexpected = [pin_id for pin_id in moved if not expected(pin_id, names)]

    def old_side(pin_id: str) -> Dict[str, Any]:
        return (old.get(pin_id) or old.get(pin_id.partition(":")[0] + ":*")
                or {"error": "absent at HEAD"})

    blocks = [(pin_id, moved_rows(pin_id, committed.get(pin_id),
                                  old_side(pin_id), built))
              for pin_id, built in moved.items()]
    summary = [f"{len(new)} pins built, {len(moved)} moved, "
               f"{len(errors)} failed to build"]
    if moved:
        summary.append("moved: " + ", ".join(moved))
    if args.write and unexpected:
        summary.append("moved, not named by --expect: " + ", ".join(unexpected))
    title = "RE-PIN: old = src/ at HEAD, new = the working tree's src/"
    print(render(title, blocks, summary))
    for pin_id, error in errors.items():
        print(f"\n{pin_id} failed to build:\n{error}", file=sys.stderr)

    if errors:
        return 1
    if args.check:
        return 1 if moved else 0
    if unexpected:
        print("repin: nothing written; --expect names not every moved pin",
              file=sys.stderr)
        return 1
    if moved:
        write_pins(root, pins, {pin_id: built["pin"]
                                for pin_id, built in moved.items()})
        print(f"repin: rewrote {len(moved)} pin(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
