"""``tools/durations.py``: seconds per test directory from a pytest report,
with the rest of the output passed through and the slowest lines kept."""

from __future__ import annotations

import io
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import durations  # noqa: E402

REPORT = """\
........................................................................ [ 50%]
......                                                                   [100%]
============================= slowest durations ==============================
5.25s call     tests/bench/test_golden_output.py::test_fast_golden[exp1]
1.50s setup    tests/storage/test_corpus_pins.py::test_corpus_matches_the_pin[statement path]
0.75s call     tests/bench/test_cli.py::TestCli::test_help
0.50s teardown tests/storage/test_heap.py::TestHeapFile::test_scan
0.25s call     benchmarks/e2e/test_bench_smoke.py::test_smoke
0.01s call     test_top_level.py::test_here

(1200 durations < 0.005s hidden.  Use -vv to show these durations.)
78 passed in 8.31s
"""


def test_seconds_per_directory():
    assert durations.directory_seconds(REPORT.splitlines()) == {
        "tests/bench": 6.0, "tests/storage": 2.0, "benchmarks/e2e": 0.25, ".": 0.01}


def test_the_output_passes_through_with_the_slowest_lines(monkeypatch):
    monkeypatch.setattr(durations, "SLOWEST", 2)
    out = io.StringIO()
    assert durations.main(io.StringIO(REPORT), out) == 0
    lines = out.getvalue().splitlines()
    kept = [line for line in lines if durations.DURATION_RE.match(line)]
    assert kept == REPORT.splitlines()[3:5]
    assert "78 passed in 8.31s" in lines
    assert lines[-6:] == [
        "seconds per test directory (setup + call + teardown; phases under "
        "5 ms are not reported):",
        "    6.00  tests/bench",
        "    2.00  tests/storage",
        "    0.25  benchmarks/e2e",
        "    0.01  .",
        "    8.26  total",
    ]


def test_a_failing_suite_still_fails_the_pipe():
    """The tool exits 0; under ``pipefail`` the pipe takes pytest's status."""
    pipe = subprocess.run(
        ["bash", "-c", "set -o pipefail; (echo '1 failed'; exit 1) | "
                       f"{sys.executable} {REPO_ROOT / 'tools' / 'durations.py'}"],
        capture_output=True, text=True)
    assert pipe.returncode == 1
    assert pipe.stdout.startswith("1 failed\n")
    assert pipe.stdout.rstrip().endswith("0.00  total")
