#!/usr/bin/env python
"""Reproduce the paper's headline evaluation numbers in one script.

Runs a scaled-down version of Experiment 1 (NoCache vs Invalidate vs Update)
plus the two §5.3 microbenchmarks and the §5.2 programmer-effort accounting,
and prints the paper-style tables.  The full parameter sweeps live in
``benchmarks/`` — this script is the quick, human-readable tour.

Run with::

    python examples/reproduce_evaluation.py
"""

from repro.bench import (micro_lookup, micro_trigger, programmer_effort,
                         render_effort, render_micro_lookup,
                         render_micro_trigger, render_sweep, run_sweep,
                         speedup_over_nocache, table1)


def main() -> None:
    print("=" * 72)
    print("Microbenchmarks (§5.3)")
    print("=" * 72)
    print(render_micro_lookup(micro_lookup()))
    print()
    print(render_micro_trigger(micro_trigger()))

    print()
    print("=" * 72)
    print("Programmer effort (§5.2)")
    print("=" * 72)
    print(render_effort(programmer_effort()))

    print()
    print("=" * 72)
    print("Experiment 1 — throughput and latency vs clients (Fig 2a/2b, Table 2)")
    print("=" * 72)
    result = run_sweep("exp1", clients=(1, 5, 15, 30))
    print(render_sweep(result))
    update_speedup = speedup_over_nocache(result, "Update", clients=15)
    invalidate_speedup = speedup_over_nocache(result, "Invalidate", clients=15)
    print()
    print(f"Speedup over NoCache at 15 clients:  Update {update_speedup:.2f}x, "
          f"Invalidate {invalidate_speedup:.2f}x   (paper: 2-2.5x)")

    print()
    print("=" * 72)
    print("Table 1 — system comparison")
    print("=" * 72)
    print(table1())


if __name__ == "__main__":
    main()
