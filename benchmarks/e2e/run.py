#!/usr/bin/env python3
"""End-to-end benchmark of the CacheGenie reproduction.

Three ways to call it, all from the root of a checkout:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload in this process.  The last line of standard
    output is one JSON object: ``correct``, ``attempted``, ``failed`` and
    ``metrics`` — every end-to-end metric with ``--trace 0``, every per-layer
    metric with ``--trace 1``.  This is the form ``BENCHMARK.json`` names.

``run.py [--seed N] [--seconds S] [--repeats 3] [--trace] [--output FILE]``
    All seven workloads, each repeat in a fresh subprocess of the form above,
    a table of every metric by name, and a result file for ``compare``.
    ``--smoke`` runs them in-process at a tiny scale (the tier-1 smoke test).

``run.py compare OLD.json NEW.json``
    Paired table of two result files with a verdict per metric.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from e2ebench import report  # noqa: E402
from e2ebench.catalog import BY_NAME, END_TO_END  # noqa: E402
from e2ebench.measure import Outcome, run_workload  # noqa: E402
from e2ebench.workloads import REFERENCE_SECONDS, Scale, WORKLOADS  # noqa: E402

OUT_DIR = HERE / "out"


def result_line(outcome: Outcome, trace: bool) -> str:
    """The one-line JSON object the driver reads."""
    values = outcome.per_layer if trace else outcome.end_to_end
    metrics = {name: {"value": value, "unit": BY_NAME[name].unit}
               for name, value in values.items()}
    return json.dumps({"correct": outcome.correct,
                       "attempted": int(outcome.attempted),
                       "failed": int(outcome.failed),
                       "metrics": metrics})


def run_one(args: argparse.Namespace) -> int:
    trace = bool(args.trace)
    outcome = run_workload(args.workload, args.seed,
                           Scale.for_seconds(args.seconds), trace, OUT_DIR)
    for problem in outcome.problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    if len(outcome.end_to_end) != len(END_TO_END):
        # The replay raised before anything could be measured: no result.
        return 2
    print(f"{args.workload} seed={args.seed} "
          f"timed_wall_s={outcome.per_layer['bench.timed_wall_s']:.3f} "
          f"machine_slowdown={outcome.per_layer['bench.machine_slowdown']:.3f} "
          f"fingerprint={json.dumps(outcome.fingerprint, sort_keys=True)}")
    print(result_line(outcome, trace))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return report.compare_main(argv[1:])
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run just this workload, in this process")
    parser.add_argument("--seed", type=int, default=1234,
                        help="workload seed (the dataset seed is fixed)")
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS,
                        help="target length of the timed region; scales every "
                             "workload's size by one common factor")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="also run the traced pass")
    parser.add_argument("--repeats", type=int, default=3,
                        help="fresh-subprocess repeats per workload (>= 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny in-process run of all seven workloads")
    parser.add_argument("--output", type=pathlib.Path,
                        default=OUT_DIR / "results.json",
                        help="result file of the all-workloads form")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload:
        return run_one(args)
    if args.repeats < 3 and not args.smoke:
        parser.error("--repeats must be at least 3")
    # Span files of the traced runs land beside the result file.
    return report.run_all(args, pathlib.Path(__file__).resolve(),
                          args.output.parent)


if __name__ == "__main__":
    sys.exit(main())
