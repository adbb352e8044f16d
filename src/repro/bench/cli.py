"""Command-line entry point for the evaluation harness.

Lets a user regenerate any of the paper's tables/figures without writing
code::

    python -m repro.bench micro-lookup
    python -m repro.bench micro-trigger
    python -m repro.bench effort
    python -m repro.bench table1
    python -m repro.bench exp1 --clients 1 5 15 30
    python -m repro.bench exp2
    python -m repro.bench exp3
    python -m repro.bench exp4
    python -m repro.bench exp5
    python -m repro.bench exp-batch --batch-ops both
    python -m repro.bench exp-strategies [--quick]
    python -m repro.bench exp-contention [--quick] [--check]
    python -m repro.bench exp-cluster [--quick] [--check]
    python -m repro.bench exp-adaptive [--quick] [--check]
    python -m repro.bench exp-contention --quick \
        --json-out run.json --trace-out trace.json
    python -m repro.bench strategies
    python -m repro.bench report run.json

Every ``exp*`` subcommand is derived from its entry in
:data:`repro.bench.experiments.EXPERIMENTS`: one option per axis that names
a flag, ``--quick`` when the entry has a quick sizing, ``--check`` when it
has a check, ``--jobs`` when its cells fan out over processes.  Every one
takes ``--json-out``, which writes the sweep's versioned run document
(``report`` renders it back as the text the command printed), and
``--trace-out``, which traces the sweep's own replays and writes one
Chrome trace-event file with a process lane per replay (load it at
https://ui.perfetto.dev) and prints each replay's flame summary.  Neither
changes the sweep.
"""

from __future__ import annotations

import argparse
import functools
import json
from typing import Optional, Sequence

from . import experiments, reporting
from .experiments import Experiment


def _add_experiment(sub, experiment: Experiment) -> None:
    """Derive one subcommand and its options from a sweep entry."""
    parser = sub.add_parser(experiment.name, help=experiment.help)
    for axis in experiment.axes:
        if axis.flag is None:
            continue
        options = {"help": axis.help or None}
        if axis.presets:
            options.update(choices=list(axis.presets), default=next(
                name for name, values in axis.presets.items()
                if values == axis.values))
        else:
            options.update(type=axis.type,
                           choices=list(axis.choices) if axis.choices else None)
            if axis.scalar:
                options["default"] = axis.values[0]
            else:
                # A quick mode shrinks the default sweep, so the default is
                # resolved when the command runs.
                options.update(nargs="+", default=(
                    None if experiment.quick else list(axis.values)))
        parser.add_argument(axis.flag, **options)
    if experiment.quick:
        parser.add_argument("--quick", action="store_true",
                            help=experiment.quick_help)
    if experiment.check:
        parser.add_argument("--check", action="store_true",
                            help=experiment.check.help)
    parser.add_argument(
        "--json-out", default=None, metavar="RUN_JSON",
        help="write the sweep's versioned run document, which `python -m "
             "repro.bench report` renders back as this command's text")
    parser.add_argument(
        "--trace-out", default=None, metavar="TRACE_JSON",
        help="trace every replay of the sweep and write one Chrome "
             "trace-event JSON (Perfetto-loadable), a process lane per "
             "replay; tracing is zero-perturbation, so the sweep is the "
             "untraced sweep bit for bit")
    if experiment.parallel:
        parser.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes for the independent sweep cells (default: "
                 "1 = the in-process serial loop; any N merges "
                 "deterministically and is byte-identical to --jobs 1)")
    parser.set_defaults(func=functools.partial(_cmd_experiment, experiment))


def _cmd_experiment(experiment: Experiment, args: argparse.Namespace) -> str:
    chosen = {}
    for axis in experiment.axes:
        if axis.flag is None:
            continue
        value = getattr(args, axis.dest)
        if value is not None:
            chosen[axis.name] = axis.presets[value] if axis.presets else value
    result = experiments.run_sweep(
        experiment, quick=getattr(args, "quick", False),
        jobs=getattr(args, "jobs", 1), check=getattr(args, "check", False),
        traced=args.trace_out is not None, **chosen)
    rendered = reporting.render_sweep(result)
    if args.trace_out:
        from ..obs import write_chrome_trace
        write_chrome_trace([(trace.label, trace.events)
                            for trace in result.traces], args.trace_out)
        spans = sum(row["count"] for trace in result.traces
                    for row in trace.flame)
        rendered += (f"\nChrome trace ({spans} spans, {len(result.traces)} "
                     f"replays) written to {args.trace_out} — load in "
                     f"Perfetto.")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(result.to_json(), handle, indent=1)
            handle.write("\n")
        rendered += f"\nRun document written to {args.json_out}."
    for trace in result.traces:
        rendered += "\n\n" + reporting.render_flame(trace.label, trace.flame)
    # The files are written before a failed check stops the command.
    if result.problems():
        raise SystemExit(rendered)
    return rendered


def _cmd_strategies(_args: argparse.Namespace) -> str:
    from .. import adaptive  # noqa: F401 -- registers the adaptive singleton
    from ..core.strategies import registered_strategies
    return reporting.render_strategies_list(registered_strategies())


def _cmd_report(args: argparse.Namespace) -> str:
    with open(args.path, "r", encoding="utf-8") as handle:
        result = experiments.SweepResult.from_json(json.load(handle))
    return reporting.render_sweep(result)


#: The argument-less §5.2/§5.3 subcommands: name -> (help, command).
COMMANDS = {
    "micro-lookup": ("§5.3 cache vs database lookups", lambda _args:
                     reporting.render_micro_lookup(experiments.micro_lookup())),
    "micro-trigger": ("§5.3 trigger overhead on INSERT", lambda _args:
                      reporting.render_micro_trigger(experiments.micro_trigger())),
    "effort": ("§5.2 programmer effort", lambda _args:
               reporting.render_effort(experiments.programmer_effort())),
    "table1": ("Table 1 system comparison", lambda _args: reporting.table1()),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for ``python -m repro.bench``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the CacheGenie paper's evaluation tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, command) in COMMANDS.items():
        sub.add_parser(name, help=help_text).set_defaults(func=command)
    for experiment in experiments.EXPERIMENTS.values():
        _add_experiment(sub, experiment)
    sub.add_parser(
        "strategies",
        help="List every registered consistency strategy (describe() "
             "summaries, adaptive bands included)") \
        .set_defaults(func=_cmd_strategies)
    report = sub.add_parser(
        "report",
        help="Render a sweep's run document (written by --json-out) as "
             "the text its command printed")
    report.add_argument("path", help="path to the JSON document")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one evaluation command and print its rendered result."""
    parser = build_parser()
    args = parser.parse_args(argv)
    print(args.func(args))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
