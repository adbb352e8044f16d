"""Which functions under ``src/repro`` does no command of the system reach?

Runs every golden ``python -m repro.bench`` invocation (the 23 argv lists of
``tests/bench/test_golden_output.py``), ``report run.json`` on the traced
one's run document, and ``benchmarks/e2e/run.py --smoke``, all in this one
process under ``sys.setprofile`` (and ``threading.setprofile``, so replay
worker threads are seen).  Then it lists every ``def`` under ``src/repro``
whose code never ran, by file, with its line span.

Work done in the worker processes of the ``--jobs 2`` golden is not seen: a
function only those processes run is listed as unreached.  An unreached
``CacheClient``/``CacheServer`` method named in the frozen benchmark's
``CLIENT_OPS``/``SERVER_OPS`` (``benchmarks/e2e/e2ebench/spans.py``, read
with :mod:`ast`, not imported) is marked "kept by the frozen benchmark":
its span recorder shadows each by name, so it stays.  Stdlib only; report
only (it exits 0 whatever it finds)::

    PYTHONPATH=src python tools/reach.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import runpy
import sys
import tempfile
import threading
from typing import Dict, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
#: The frozen benchmark's span recorder, which names the cache ops it times.
SPANS = ROOT / "benchmarks" / "e2e" / "e2ebench" / "spans.py"

#: A function as its code object names itself: (file, the line of its
#: ``def`` or of its first decorator, which is ``co_firstlineno``).
Site = Tuple[str, int]


def functions() -> Dict[Site, Tuple[str, int, int, bool]]:
    """Every ``def`` under the package: site -> (qualified name, first line,
    last line, nested inside another def)."""
    found: Dict[Site, Tuple[str, int, int, bool]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))

        def visit(node: ast.AST, prefix: str, nested: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    name = prefix + child.name
                    found[(str(path), first)] = (name, first,
                                                 child.end_lineno, nested)
                    visit(child, name + ".", True)
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".", nested)
                else:
                    visit(child, prefix, nested)
        visit(tree, "", False)
    return found


def frozen_ops() -> Dict[str, Set[str]]:
    """Class -> the method names the frozen ``spans.py`` shadows on its
    instances: ``CLIENT_OPS`` on clients, ``SERVER_OPS`` on servers (tuple
    literals, or sums of them and earlier names)."""
    tuples: Dict[str, Tuple[str, ...]] = {}

    def value(node: ast.expr) -> Tuple[str, ...]:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return value(node.left) + value(node.right)
        if isinstance(node, ast.Name):
            return tuples[node.id]
        return tuple(ast.literal_eval(node))

    for node in ast.parse(SPANS.read_text(), str(SPANS)).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("CLIENT_OPS", "SERVER_OPS")):
            tuples[node.targets[0].id] = value(node.value)
    return {"CacheClient": set(tuples["CLIENT_OPS"]),
            "CacheServer": set(tuples["SERVER_OPS"])}


def golden_commands() -> List[List[str]]:
    sys.path.insert(0, str(ROOT))
    from tests.bench.test_golden_output import GOLDEN
    return [GOLDEN[name] for name in sorted(GOLDEN)]


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
            argv, sys.argv = sys.argv, ["run.py", "--smoke"]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    runpy.run_path(str(ROOT / "benchmarks" / "e2e" / "run.py"),
                                   run_name="__main__")
            except SystemExit:
                pass
            finally:
                sys.argv = argv
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(here)


def main() -> int:
    defined = functions()
    ops = frozen_ops()
    seen: Set[Site] = set()
    run_commands(seen)
    unreached = sorted(site for site in defined if site not in seen)
    by_file: Dict[str, List[Site]] = {}
    for site in unreached:
        by_file.setdefault(site[0], []).append(site)
    lines = kept = 0
    for path, sites in by_file.items():
        print(os.path.relpath(path, ROOT))
        for site in sites:
            name, first, last, nested = defined[site]
            # Count an unreached nested def's lines once, in its parent's.
            if not (nested and any(
                    other[0] == path and defined[other][1] < first
                    and defined[other][2] >= last for other in sites)):
                lines += last - first + 1
            owner, _, method = name.partition(".")
            frozen = method in ops.get(owner, ())
            kept += frozen
            print(f"  {first:5d}-{last:<5d} {name}"
                  + ("  (kept by the frozen benchmark)" if frozen else ""))
    print(f"\n{len(unreached)} of {len(defined)} functions under src/repro "
          f"({lines} lines) are reached by no command: the 23 golden "
          f"commands, report run.json and benchmarks/e2e/run.py --smoke.")
    print(f"{kept} of them are cache ops the frozen benchmark names in "
          f"CLIENT_OPS/SERVER_OPS: kept by the frozen benchmark.")
    print("Not seen: work done in --jobs worker processes (the "
          "exp-contention --quick --jobs 2 golden's cells).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
