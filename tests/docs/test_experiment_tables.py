"""EXPERIMENTS.md's tables equal the stdout goldens they restate.

Mirrors the experiment-table check of ``tools/check_docs.py``: a table
under ``<!-- golden: NAME -->`` is compared cell by cell with a table of
``tests/bench/golden/NAME.txt``, and a table under ``<!-- unchecked: ... -->``
is listed.  No command is run.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402

GOLDEN = """\
Figure 2a — page-load throughput vs number of clients
clients  NoCache (req/s)  Update (req/s)
-------  ---------------  --------------
1        18.0             23.4
15       52.7             209.0

Table 2 — average latency by page type (15 clients)
Page type  NoCache  Update
---------  -------  -------
AcceptFR   0.297 s  0.071 s
"""


def write_doc(tmp_path, body: str) -> None:
    golden = tmp_path / check_docs.GOLDEN_DIR / "exp1.txt"
    golden.parent.mkdir(parents=True)
    golden.write_text(GOLDEN)
    (tmp_path / check_docs.EXPERIMENTS_DOC).write_text(body)


def test_every_table_matches_its_golden_or_is_listed_unchecked():
    errors, unchecked = check_docs.check_experiment_tables()
    assert errors == []
    assert len(unchecked) == 2
    assert all("exp1 --workers 2" in table for table in unchecked)


def test_golden_tables_split_columns_at_the_dashes():
    (figure, table2) = check_docs.golden_tables(GOLDEN)
    assert figure == [["clients", "NoCache (req/s)", "Update (req/s)"],
                      ["1", "18.0", "23.4"], ["15", "52.7", "209.0"]]
    assert table2[1] == ["AcceptFR", "0.297 s", "0.071 s"]


def test_the_check_flags_a_drifted_cell_and_an_unmarked_table(tmp_path,
                                                             monkeypatch):
    write_doc(tmp_path,
              "# Results\n\n"
              "<!-- golden: exp1 -->\n"
              "| clients | Update (req/s) |\n"
              "|--------:|---------------:|\n"
              "| 1       | 23.4           |\n"
              "| 15      | **209.1**      |\n"
              "\n"
              "<!-- golden: exp1 -->\n"
              "| Page type | NoCache | Update  |\n"
              "|-----------|--------:|--------:|\n"
              "| AcceptFR  | 0.297 s | 0.071 s |\n"
              "\n"
              "| clients | Invalidate (req/s) |\n"
              "|---|---|\n"
              "| 1 | 23.3 |\n"
              "\n"
              "<!-- unchecked: a command no golden runs -->\n"
              "| clients | LeasedInvalidate (req/s) |\n"
              "|---|---|\n"
              "| 1 | 22.9 |\n"
              "\n"
              "<!-- golden: exp1 -->\n"
              "| clients | Expiry (req/s) |\n"
              "|---|---|\n"
              "| 1 | 20.0 |\n")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    errors, unchecked = check_docs.check_experiment_tables()
    assert errors == [
        "EXPERIMENTS.md:4: row '15', column 'Update (req/s)' reads '209.1'; "
        "golden exp1 has '209.0'",
        "EXPERIMENTS.md:14: the table has no `<!-- golden: NAME -->` or "
        "`<!-- unchecked: reason -->` line above it",
        "EXPERIMENTS.md:24: no table of golden exp1 has the columns "
        "['clients', 'Expiry (req/s)']",
    ]
    assert unchecked == ["EXPERIMENTS.md:19 (a command no golden runs)"]
