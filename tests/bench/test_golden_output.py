"""Byte-for-byte pins of ``python -m repro.bench`` output and CLI surface.

The files under ``golden/`` were captured at the commit *before* ``bench/``
became one replay rig plus declarative sweep entries; they are the contract
that refactor (and any later one) must hold.  The only line edited after
capture is the Table 2 header of the ``exp1 --quick`` golden, which used to
claim "15 clients" for a table computed at 6.

Tier-1 compares the quick invocations and the full commands that finish in
under two seconds, and renders each of their sweeps' run documents back with
``report``: the text equals the golden's.  ``tools/repin.py`` compares every
golden, including the six slower full sweeps, and re-pins them (``run_cli``
and ``GOLDEN`` are what it runs)::

    PYTHONPATH=src python tools/repin.py --check
"""

import argparse
import contextlib
import io
import pathlib

import pytest

from repro.bench.cli import build_parser, main
from repro.bench.experiments import EXPERIMENTS

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
    # through this file.
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


def sweep_text(text):
    """What a sweep command prints before the lines of the files it wrote:
    what ``report`` renders from its run document."""
    return text.split("\nChrome trace (")[0].split("\nRun document written")[0]


@pytest.mark.parametrize("name", FAST)
def test_output_matches_golden(name, tmp_path, monkeypatch):
    """The golden, and for a sweep the ``report`` of its run document: a
    sweep golden runs with ``--json-out`` added, which adds one line."""
    monkeypatch.chdir(tmp_path)
    argv, golden = GOLDEN[name], golden_text(name)
    if argv[0] not in EXPERIMENTS:
        assert run_cli(argv) == golden
        return
    if "--json-out" not in argv:
        argv = argv + ["--json-out", "run.json"]
        golden = f"{golden[:-1]}\nRun document written to run.json.\n"
    assert run_cli(argv) == golden
    assert run_cli(["report", "run.json"]) == sweep_text(golden) + "\n"


def test_strategies_output_ignores_earlier_runs(tmp_path, monkeypatch):
    """``strategies`` describes the registered strategies, not a run: after
    the registered adaptive strategy has switched bands in this process, the
    output is still its golden (it used to print the run's switch counts)."""
    from repro.apps.social import SeedScale
    from repro.bench.experiments import (HOT_KEY_WORKLOAD,
                                         STRATEGY_PAGE_INTERVAL, run_scenario)
    from repro.bench.scenarios import ADAPTIVE_SCENARIO, ScenarioConfig
    from repro.core.strategies import get_strategy

    config = ScenarioConfig(name=ADAPTIVE_SCENARIO, seed_scale=SeedScale.tiny(),
                            page_interval_seconds=STRATEGY_PAGE_INTERVAL)
    run = run_scenario(config, workload=HOT_KEY_WORKLOAD, warmup=None)
    assert run.replay.total_counters.band_switches > 0
    assert get_strategy("adaptive").switch_log
    monkeypatch.chdir(tmp_path)
    assert run_cli(GOLDEN["strategies"]) == golden_text("strategies")


#: The 16 flame rows of LeasedInvalidate at 2 adversarial workers that the
#: traced golden printed when ``--trace-out`` re-ran that one quick cell on
#: its own: the sweep's own replay of the cell records the same spans.
LEASED_2_ADVERSARIAL_FLAME = [
    ("page:CreateBM", 12, 764, 197, "3.750"),
    ("page:LookupBM", 21, 699, 321, "3.500"),
    ("cache:lease_multi", 249, 635, 635, "4.250"),
    ("app:header", 77, 615, 197, "3.000"),
    ("page:Login", 12, 416, 143, "1.750"),
    ("app:account", 72, 407, 171, "1.750"),
    ("page:AcceptFR", 5, 335, 97, "1.500"),
    ("page:LookupFBM", 10, 307, 136, "2.000"),
    ("refresh:drain", 18, 295, 59, "1.750"),
    ("cache:set_multi", 97, 241, 241, "1.500"),
    ("refresh:recompute", 41, 236, 136, "1.750"),
    ("app:write", 17, 225, 118, "2.000"),
    ("page:Logout", 12, 148, 55, "1.500"),
    ("trigger:flush", 21, 92, 42, "0.500"),
    ("orm:intercept", 71, 71, 71, "0.000"),
    ("cache:lease_delete_multi", 21, 50, 50, "0.500"),
]


def test_traced_golden_flames_are_the_sweeps_own_replays():
    golden = golden_text("exp-contention--quick--trace-out--json-out")
    flame = golden.split("Flame summary of LeasedInvalidate/2/adversarial "
                         "(top spans by total ticks)\n")[1]
    rows = [line.split() for line in flame.splitlines()[2:]]
    assert rows == [[str(cell) for cell in row]
                    for row in LEASED_2_ADVERSARIAL_FLAME]


# -- the CLI surface ---------------------------------------------------------------

#: ``(subcommand, option strings, default)`` of every argument, captured from
#: ``build_parser()`` before the subcommands were derived from sweep entries
#: (list defaults as tuples; a bare subcommand is ``(name, (), None)``); every
#: sweep has since gained ``--json-out`` and ``--trace-out``.
CLI_SURFACE = {
    ("effort", (), None),
    ("exp-adaptive", ("--check",), False),
    ("exp-adaptive", ("--jobs",), 1),
    ("exp-adaptive", ("--json-out",), None),
    ("exp-adaptive", ("--quick",), False),
    ("exp-adaptive", ("--strategies",), None),
    ("exp-adaptive", ("--trace-out",), None),
    ("exp-adaptive", (), None),
    ("exp-batch", ("--batch-ops",), "both"),
    ("exp-batch", ("--json-out",), None),
    ("exp-batch", ("--scenario",), "Update"),
    ("exp-batch", ("--trace-out",), None),
    ("exp-batch", (), None),
    ("exp-cluster", ("--check",), False),
    ("exp-cluster", ("--fault-cases",), None),
    ("exp-cluster", ("--jobs",), 1),
    ("exp-cluster", ("--json-out",), None),
    ("exp-cluster", ("--quick",), False),
    ("exp-cluster", ("--strategies",), None),
    ("exp-cluster", ("--trace-out",), None),
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
    ("exp-strategies", ("--json-out",), None),
    ("exp-strategies", ("--quick",), False),
    ("exp-strategies", ("--strategies",), None),
    ("exp-strategies", ("--trace-out",), None),
    ("exp-strategies", (), None),
    ("exp1", ("--check",), False),
    ("exp1", ("--clients",), None),
    ("exp1", ("--jobs",), 1),
    ("exp1", ("--json-out",), None),
    ("exp1", ("--policy",), "round-robin"),
    ("exp1", ("--quick",), False),
    ("exp1", ("--seed",), 0),
    ("exp1", ("--trace-out",), None),
    ("exp1", ("--workers",), 1),
    ("exp1", (), None),
    ("exp2", ("--json-out",), None),
    ("exp2", ("--read-fractions",), (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)),
    ("exp2", ("--trace-out",), None),
    ("exp2", (), None),
    ("exp3", ("--json-out",), None),
    ("exp3", ("--trace-out",), None),
    ("exp3", ("--zipf",), (1.2, 1.4, 1.6, 1.8, 2.0)),
    ("exp3", (), None),
    ("exp4", ("--cache-kb",), (16, 32, 64, 128, 256, 512)),
    ("exp4", ("--json-out",), None),
    ("exp4", ("--trace-out",), None),
    ("exp4", (), None),
    ("exp5", ("--json-out",), None),
    ("exp5", ("--trace-out",), None),
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
