"""docs/ADAPTIVE.md's tuning-knob table matches ``AdaptiveStrategy()``.

Mirrors the knob check of ``tools/check_docs.py``: a row may name only a
parameter the constructor takes, with its default, and every scalar
parameter has a row.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def test_the_knob_table_matches_the_constructor():
    rows = dict(check_docs.knob_rows(
        (REPO_ROOT / check_docs.KNOB_TABLE_DOC).read_text()))
    assert rows["hot_rate_threshold"] == "4.0"
    assert check_docs.check_knob_table() == []


def test_the_check_flags_a_gone_knob_a_wrong_default_and_a_missing_row(
        tmp_path, monkeypatch):
    doc = tmp_path / check_docs.KNOB_TABLE_DOC
    doc.parent.mkdir()
    doc.write_text(
        "intro\n\n"
        "| knob | default | meaning |\n"
        "|---|---|---|\n"
        "| `hot_rate_threshold` | 4.0 | hot |\n"
        "| `write_share_threshold` | 0.5 | write-heavy |\n"
        "| `min_dwell_seconds` | 1.0 | dwell |\n"
        "| `telemetry_capacity` | 512 | tracked keys |\n"
        "| `contention_threshold` | 1.0 | contended |\n"
        "\nafter the table: `half_life_seconds` is not a row\n")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    errors = check_docs.check_knob_table()
    assert any("lists `contention_threshold`" in e for e in errors)
    assert any("`write_share_threshold` defaults to 0.3, not 0.5" in e
               for e in errors)
    assert any("lacks `half_life_seconds`" in e for e in errors)
    assert len(errors) == 3
