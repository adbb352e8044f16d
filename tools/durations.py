#!/usr/bin/env python
"""Seconds per test directory, from a pytest run's ``--durations=0`` report.

Run from the repository root::

    set -o pipefail
    PYTHONPATH=src python -m pytest -x -q --durations=0 | python tools/durations.py

Every line of pytest's output passes through except the per-test duration
lines: the slowest :data:`SLOWEST` of them are kept, the rest are summed
into one table, seconds per directory of test files (setup, call and
teardown together), slowest first, with the total.  pytest hides the phases
shorter than 5 ms from ``--durations=0``, so the table leaves those out.
The exit status is always 0: ``pipefail`` gives the step pytest's.
"""

from __future__ import annotations

import posixpath
import re
import sys
from typing import Dict, Iterable, List, TextIO

#: How many of the slowest duration lines pass through, as
#: ``--durations=15`` showed them.
SLOWEST = 15

#: One phase of one test: ``0.52s call     tests/storage/test_x.py::test_y``.
DURATION_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)s (?:setup|call|teardown)\s+(\S.*)$")


def directory_seconds(lines: Iterable[str]) -> Dict[str, float]:
    """Seconds per directory of test files, summed over the duration lines."""
    seconds: Dict[str, float] = {}
    for line in lines:
        match = DURATION_RE.match(line)
        if match:
            directory = posixpath.dirname(match.group(2).split("::", 1)[0]) or "."
            seconds[directory] = seconds.get(directory, 0.0) + float(match.group(1))
    return seconds


def table(seconds: Dict[str, float]) -> List[str]:
    """The per-directory lines, slowest first, then the total."""
    lines = ["seconds per test directory (setup + call + teardown; "
             "phases under 5 ms are not reported):"]
    for directory, spent in sorted(seconds.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"{spent:8.2f}  {directory}")
    lines.append(f"{sum(seconds.values()):8.2f}  total")
    return lines


def main(stdin: TextIO = sys.stdin, stdout: TextIO = sys.stdout) -> int:
    durations: List[str] = []
    for line in stdin:
        if DURATION_RE.match(line):
            durations.append(line)
            if len(durations) > SLOWEST:
                continue
        stdout.write(line)
        stdout.flush()
    stdout.write("\n".join(table(directory_seconds(durations))) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
