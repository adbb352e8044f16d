"""Byte-for-byte pins of ``python -m repro.bench`` output and CLI surface.

The files under ``golden/`` were captured at the commit *before* ``bench/``
became one replay rig plus declarative sweep entries; they are the contract
that refactor (and any later one) must hold.  The only line edited after
capture is the Table 2 header of the ``exp1 --quick`` golden, which used to
claim "15 clients" for a table computed at 6.

Tier-1 compares the quick invocations and the full commands that finish in
under two seconds.  Running this file as a script compares every golden,
including the six slower full sweeps (the CI ``bench-golden`` step)::

    PYTHONPATH=src python tests/bench/test_golden_output.py
"""

import argparse
import contextlib
import io
import os
import pathlib
import sys
import tempfile

import pytest

from repro.bench.cli import build_parser, main

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: Golden file stem -> argv.  The traced invocation writes its two files
#: relative to the working directory, so the paths it prints are stable.
GOLDEN = {
    "exp1": ["exp1"],
    "exp2": ["exp2"],
    "exp3": ["exp3"],
    "exp4": ["exp4"],
    "exp5": ["exp5"],
    "exp-batch": ["exp-batch"],
    "exp-cas-batch": ["exp-cas-batch"],
    "exp-strategies": ["exp-strategies"],
    "exp-adaptive": ["exp-adaptive"],
    "exp-contention": ["exp-contention"],
    "exp-cluster": ["exp-cluster"],
    "micro-lookup": ["micro-lookup"],
    "micro-trigger": ["micro-trigger"],
    "effort": ["effort"],
    "table1": ["table1"],
    "strategies": ["strategies"],
    # The quick smoke invocations, --check included.  CI runs them only
    # through this file, except the traced one (.github/workflows/ci.yml).
    "exp-strategies--quick": ["exp-strategies", "--quick"],
    "exp-contention--quick--check": ["exp-contention", "--quick", "--check"],
    "exp1--workers-2--policy-adversarial--quick--check": [
        "exp1", "--workers", "2", "--policy", "adversarial", "--quick",
        "--check"],
    "exp-cluster--quick--check": ["exp-cluster", "--quick", "--check"],
    "exp-adaptive--quick--check": ["exp-adaptive", "--quick", "--check"],
    "exp-contention--quick--jobs-2--check": [
        "exp-contention", "--quick", "--jobs", "2", "--check"],
    "exp-contention--quick--trace-out--json-out": [
        "exp-contention", "--quick", "--trace-out", "trace.json",
        "--json-out", "run.json"],
}

#: Full commands slow enough (2-9 s each) to stay out of tier-1.
SLOW = {"exp1", "exp2", "exp3", "exp4", "exp-contention", "exp-cluster"}
FAST = sorted(set(GOLDEN) - SLOW)


def run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue()


def golden_text(name):
    return (GOLDEN_DIR / f"{name}.txt").read_text()


def test_every_golden_file_is_listed():
    assert {path.stem for path in GOLDEN_DIR.glob("*.txt")} == set(GOLDEN)


@pytest.mark.parametrize("name", FAST)
def test_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(GOLDEN[name]) == golden_text(name)


def test_traced_run_document_still_renders(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_cli(GOLDEN["exp-contention--quick--trace-out--json-out"])
    report = run_cli(["report", "run.json"])
    assert report.startswith("Traced run document (schema 2)")
    for section in ("Replay result", "Run metrics", "Flame summary"):
        assert section in report


# -- the CLI surface ---------------------------------------------------------------

#: ``(subcommand, option strings, default)`` of every argument, captured from
#: ``build_parser()`` before the subcommands were derived from sweep entries
#: (list defaults as tuples; a bare subcommand is ``(name, (), None)``).
CLI_SURFACE = {
    ("effort", (), None),
    ("exp-adaptive", ("--check",), False),
    ("exp-adaptive", ("--jobs",), 1),
    ("exp-adaptive", ("--quick",), False),
    ("exp-adaptive", ("--strategies",), None),
    ("exp-adaptive", (), None),
    ("exp-batch", ("--batch-ops",), "both"),
    ("exp-batch", ("--scenario",), "Update"),
    ("exp-batch", (), None),
    ("exp-cas-batch", ("--cas-batch",), "both"),
    ("exp-cas-batch", (), None),
    ("exp-cluster", ("--check",), False),
    ("exp-cluster", ("--fault-cases",), None),
    ("exp-cluster", ("--jobs",), 1),
    ("exp-cluster", ("--quick",), False),
    ("exp-cluster", ("--strategies",), None),
    ("exp-cluster", (), None),
    ("exp-contention", ("--check",), False),
    ("exp-contention", ("--jobs",), 1),
    ("exp-contention", ("--json-out",), None),
    ("exp-contention", ("--policies",), None),
    ("exp-contention", ("--quick",), False),
    ("exp-contention", ("--seed",), 0),
    ("exp-contention", ("--strategies",), None),
    ("exp-contention", ("--trace-out",), None),
    ("exp-contention", ("--workers",), None),
    ("exp-contention", (), None),
    ("exp-strategies", ("--quick",), False),
    ("exp-strategies", ("--strategies",), None),
    ("exp-strategies", (), None),
    ("exp1", ("--check",), False),
    ("exp1", ("--clients",), None),
    ("exp1", ("--jobs",), 1),
    ("exp1", ("--policy",), "round-robin"),
    ("exp1", ("--quick",), False),
    ("exp1", ("--seed",), 0),
    ("exp1", ("--workers",), 1),
    ("exp1", (), None),
    ("exp2", ("--read-fractions",), (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)),
    ("exp2", (), None),
    ("exp3", ("--zipf",), (1.2, 1.4, 1.6, 1.8, 2.0)),
    ("exp3", (), None),
    ("exp4", ("--cache-kb",), (16, 32, 64, 128, 256, 512)),
    ("exp4", (), None),
    ("exp5", (), None),
    ("micro-lookup", (), None),
    ("micro-trigger", (), None),
    ("report", ("path",), None),
    ("report", (), None),
    ("strategies", (), None),
    ("table1", (), None),
}


def cli_surface():
    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    surface = set()
    for name, command in subparsers.choices.items():
        surface.add((name, (), None))
        for action in command._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            default = (tuple(action.default)
                       if isinstance(action.default, list) else action.default)
            surface.add((name, tuple(action.option_strings) or (action.dest,),
                         default))
    return surface


def test_cli_surface_is_pinned():
    assert cli_surface() == CLI_SURFACE


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        failed = [name for name in GOLDEN
                  if run_cli(GOLDEN[name]) != golden_text(name)]
    for name in failed:
        print(f"MISMATCH {name}: python -m repro.bench {' '.join(GOLDEN[name])}")
    print(f"{len(GOLDEN) - len(failed)}/{len(GOLDEN)} golden outputs match")
    sys.exit(1 if failed else 0)
