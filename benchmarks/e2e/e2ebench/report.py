"""The all-workloads run, its result file, and ``compare`` of two such files.

Host metrics are summarised over the repeats as median, q1, q3 and n.  The
regression bound applies to the median; a metric whose interquartile range is
wider than its bound is **unresolved**, not unchanged — on a shared box quiet
runs agree to a few percent but slow spells of 30 % happen.  Modelled and count
metrics must repeat exactly, and the run fails if they do not: that is how a
hash-order or scheduling dependence surfaces.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

from .catalog import BY_NAME, END_TO_END, HOST, PER_LAYER
from .measure import run_workload
from .workloads import Scale, WORKLOADS

RESULT_SCHEMA = 1
#: Workloads the smoke run also traces (one serial, one threaded).
SMOKE_TRACED = ("read-hit", "contended-w2")

IDENTICAL, CHANGED, BETTER, WITHIN, WORSE, UNRESOLVED = (
    "identical", "changed", "better", "within bound", "worse", "unresolved")


def summarize(values: Sequence[float]) -> Dict[str, Any]:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": list(values)}


# -- running everything ---------------------------------------------------------


def _child(script: pathlib.Path, name: str, args: argparse.Namespace,
           trace: int) -> Dict[str, Any]:
    """One run in a fresh interpreter; returns its result line, parsed."""
    command = [sys.executable, str(script), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{name}: child exited {done.returncode}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    line["metrics"] = {k: v["value"] for k, v in line["metrics"].items()}
    return line


def _smoke(name: str, args: argparse.Namespace,
           out_dir: pathlib.Path) -> List[Dict[str, Any]]:
    """One tiny in-process run: its end-to-end line and, if traced, its
    per-layer line (one traced run yields both metric sets)."""
    traced = name in SMOKE_TRACED
    outcome = run_workload(name, args.seed, Scale.smoke(), traced, out_dir)
    for problem in outcome.problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    common = {"correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed}
    runs = [dict(common, metrics=outcome.end_to_end)]
    if traced:
        runs.append(dict(common, metrics=outcome.per_layer))
    return runs


def collect(args: argparse.Namespace, script: pathlib.Path,
            out_dir: pathlib.Path) -> Dict[str, Any]:
    """Run every workload ``repeats`` times (plus a traced run) and summarise."""
    document: Dict[str, Any] = {
        "schema": RESULT_SCHEMA, "seed": args.seed, "seconds": args.seconds,
        "repeats": 1 if args.smoke else args.repeats,
        "smoke": bool(args.smoke), "workloads": {}}
    for name in WORKLOADS:
        if args.smoke:
            layer_runs = _smoke(name, args, out_dir)
            runs = [layer_runs.pop(0)]
        else:
            runs = [_child(script, name, args, 0) for _ in range(args.repeats)]
            layer_runs = [_child(script, name, args, 1)] if args.trace else []
        entry: Dict[str, Any] = {
            "ops": runs[0]["attempted"],
            "failed_ops": max(r["failed"] for r in runs + layer_runs),
            "correct": all(r["correct"] for r in runs + layer_runs),
            "problems": [], "end_to_end": {},
            "per_layer": layer_runs[0]["metrics"] if layer_runs else {}}
        for metric in END_TO_END:
            values = [r["metrics"][metric.name] for r in runs]
            if metric.exact and len(set(values)) > 1:
                entry["correct"] = False
                entry["problems"].append(
                    f"{metric.name} must repeat exactly but read {values}")
            entry["end_to_end"][metric.name] = summarize(values)
        document["workloads"][name] = entry
    return document


def print_results(document: Dict[str, Any]) -> None:
    for name, entry in document["workloads"].items():
        status = "ok" if entry["correct"] else "FAILED"
        print(f"\n== {name}: ops={entry['ops']} "
              f"failed_ops={entry['failed_ops']} {status}")
        for problem in entry["problems"]:
            print(f"   PROBLEM {problem}")
        for metric in END_TO_END:
            row = entry["end_to_end"][metric.name]
            spread = (row["q3"] - row["q1"]) / row["median"]
            note = ""
            if metric.clock == HOST and spread > metric.bound:
                note = "  UNRESOLVED: spread exceeds bound"
            print(f"   {metric.name:<30} {row['median']:>14.4f} "
                  f"{metric.unit:<8} [{row['q1']:.4f} .. {row['q3']:.4f}] "
                  f"n={row['n']} {metric.clock}{note}")
        for metric in PER_LAYER:
            if metric.name in entry["per_layer"]:
                print(f"   {metric.name:<38} "
                      f"{entry['per_layer'][metric.name]:>14.4f} "
                      f"{metric.unit}")


def run_all(args: argparse.Namespace, script: pathlib.Path,
            out_dir: pathlib.Path) -> int:
    document = collect(args, script, out_dir)
    print_results(document)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nwrote {args.output}")
    bad = [name for name, entry in document["workloads"].items()
           if not entry["correct"] or entry["failed_ops"]]
    if bad:
        print(f"FAILED: {', '.join(bad)}", file=sys.stderr)
    return 1 if bad else 0


# -- comparing two result files ---------------------------------------------------


def verdict(metric_name: str, old: Dict[str, Any], new: Dict[str, Any]) -> str:
    """Verdict on one metric from two ``summarize()`` rows.

    Metrics without a bound (most layer metrics) get no judgement: exact
    ones read *identical* or *changed*, host-time ones nothing.
    """
    metric = BY_NAME[metric_name]
    if metric.exact and old["median"] == new["median"]:
        return IDENTICAL
    if metric.bound is None:
        return CHANGED if metric.exact else ""
    if not metric.exact:
        for side in (old, new):
            if (side["q3"] - side["q1"]) / side["median"] > metric.bound:
                return UNRESOLVED
    change = (new["median"] - old["median"]) / old["median"]
    if metric.better == "lower":
        change = -change             # now positive = improvement
    if change < -metric.bound:
        return WORSE
    if change > metric.bound or (metric.exact and change > 0):
        return BETTER
    return WITHIN


def _point(value: float) -> Dict[str, Any]:
    return {"median": value, "q1": value, "q3": value}


def _percent(old: float, new: float) -> str:
    return f"{(new - old) / old * 100.0:+.2f}%" if old else "n/a"


def compare(old: Dict[str, Any], new: Dict[str, Any],
            old_name: str, new_name: str) -> int:
    """Print the paired table; return 1 if anything got worse."""
    worse: List[str] = []
    header = (f"| {'workload':<17} | {'metric':<27} | {'old median':>13} | "
              f"{'old IQR':>10} | {'new median':>13} | {'new IQR':>10} | "
              f"{'diff':>8} | {'verdict':<12} |")
    rule = "-" * len(header)
    print(f"base: {old_name} (diff = (new - old) / old); new: {new_name}")
    print(rule + "\n" + header + "\n" + rule)
    shared = [w for w in old["workloads"] if w in new["workloads"]]
    for name in shared:
        before, after = old["workloads"][name], new["workloads"][name]
        for metric in END_TO_END:
            a = before["end_to_end"].get(metric.name)
            b = after["end_to_end"].get(metric.name)
            if a is None or b is None:
                continue
            outcome = verdict(metric.name, a, b)
            if outcome == WORSE:
                worse.append(f"{name}/{metric.name}")
            print(f"| {name:<17} | {metric.name:<27} | {a['median']:>13.4f} | "
                  f"{a['q3'] - a['q1']:>10.4f} | {b['median']:>13.4f} | "
                  f"{b['q3'] - b['q1']:>10.4f} | "
                  f"{_percent(a['median'], b['median']):>8} | {outcome:<12} |")
        old_rate = before["failed_ops"] / before["ops"]
        new_rate = after["failed_ops"] / after["ops"]
        if new_rate > old_rate:
            worse.append(f"{name}/failed_ops")
            print(f"| {name:<17} | failed_ops/ops rose from {old_rate:.6f} "
                  f"to {new_rate:.6f}")
        print(rule)

    layered = [w for w in shared if old["workloads"][w]["per_layer"]
               and new["workloads"][w]["per_layer"]]
    if layered:
        layer_header = (f"| {'workload':<17} | {'layer metric':<38} | "
                        f"{'old':>14} | {'new':>14} | {'diff':>8} | "
                        f"{'verdict':<12} |")
        layer_rule = "-" * len(layer_header)
        print("\n" + layer_rule + "\n" + layer_header + "\n" + layer_rule)
        sums: Dict[str, List[float]] = {}
        for name in layered:
            before = old["workloads"][name]["per_layer"]
            after = new["workloads"][name]["per_layer"]
            for metric in PER_LAYER:
                a, b = before.get(metric.name), after.get(metric.name)
                if a is None or b is None or (a == 0 and b == 0):
                    continue
                outcome = verdict(metric.name, _point(a), _point(b)) if a else ""
                if outcome == WORSE:
                    worse.append(f"{name}/{metric.name}")
                totals = sums.setdefault(metric.name, [0.0, 0.0, 0])
                totals[0] += a
                totals[1] += b
                totals[2] += 1
                print(f"| {name:<17} | {metric.name:<38} | {a:>14.4f} | "
                      f"{b:>14.4f} | {_percent(a, b):>8} | {outcome:<12} |")
            print(layer_rule)
        print(f"| {'AVERAGES OVER WORKLOADS':^{len(layer_header) - 4}} |")
        print(layer_rule)
        for metric_name, (a, b, count) in sums.items():
            print(f"| {f'({count} workloads)':<17} | {metric_name:<38} | "
                  f"{a / count:>14.4f} | {b / count:>14.4f} | "
                  f"{_percent(a, b):>8} | {'':<12} |")
        print(layer_rule)
    if worse:
        print(f"WORSE: {', '.join(worse)}", file=sys.stderr)
    return 1 if worse else 0


def compare_main(argv: Optional[Sequence[str]]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Paired table of two result files; exit 1 on any worse.")
    parser.add_argument("old", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    args = parser.parse_args(argv)
    documents = []
    for path in (args.old, args.new):
        document = json.loads(path.read_text())
        if document.get("schema") != RESULT_SCHEMA:
            parser.error(f"{path}: not a schema-{RESULT_SCHEMA} result file")
        documents.append(document)
    return compare(documents[0], documents[1], str(args.old), str(args.new))
