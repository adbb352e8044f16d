"""Process-parallel execution of independent sweep cells.

The ablation matrices are embarrassingly parallel: every cell of
``exp-contention`` (scenario × workers × policy), ``exp-cluster``
(scenario × fault case), and exp1's client sweep builds its own scenario
fixture, replays its own trace, and shares no state with any other cell.
:func:`run_cells` executes such a cell list either serially (``jobs <= 1``,
the exact historical loop) or on a ``multiprocessing`` pool.

**Deterministic merge contract.**  Results are returned in *submission
order* regardless of worker completion order (``Pool.starmap`` collects by
index), and each cell's arguments — including its seed — are fixed at
submission.  A cell computes the same result in a child process as in the
parent (the simulator takes no wall-clock-dependent decisions), so
``jobs=N`` output is byte-identical to ``jobs=1`` for every N.  The
differential suite (``tests/sim/test_differential.py``) pins this.

Cell functions must be picklable (module top-level) and so must their
arguments and results; ``repro.bench.experiments._run_cell`` is top-level
and looks its experiment up by name for exactly this reason.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, List, Sequence, Tuple


def run_cells(cell_fn: Callable[..., Any],
              argument_sets: Sequence[Tuple[Any, ...]],
              jobs: int = 1) -> List[Any]:
    """Run ``cell_fn(*args)`` for each argument tuple; results in order.

    ``jobs <= 1`` runs the plain in-process loop (no pool, no pickling —
    the historical serial path).  ``jobs > 1`` fans the cells out over a
    process pool, at most one pending cell per task (``chunksize=1``) so
    long cells don't convoy behind each other.
    """
    argument_sets = list(argument_sets)
    if jobs <= 1 or len(argument_sets) <= 1:
        return [cell_fn(*args) for args in argument_sets]
    workers = min(jobs, len(argument_sets))
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.starmap(cell_fn, argument_sets, chunksize=1)
