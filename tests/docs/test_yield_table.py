"""docs/CONCURRENCY.md's yield-point table lists exactly the pause labels
the layers declare in ``repro.obs.hooks.PAUSES``.

Mirrors the fourth check of ``tools/check_docs.py``: a pause deleted from
the code cannot linger in the table, and a new one cannot go unlisted.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.obs import hooks

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def test_the_yield_table_matches_the_declared_pauses():
    listed = check_docs.yield_table_labels(
        (REPO_ROOT / check_docs.YIELD_TABLE_DOC).read_text())
    assert sorted(listed) == sorted(hooks.PAUSES)
    assert check_docs.check_yield_table() == []


def test_the_check_flags_a_stale_and_a_missing_label(tmp_path, monkeypatch):
    doc = tmp_path / check_docs.YIELD_TABLE_DOC
    doc.parent.mkdir()
    rows = "".join(f"| seam | `{label}` | `SomeLayer` |\n"
                   for label in hooks.PAUSES if label != "db:commit")
    doc.write_text(
        "intro\n\n"
        f"{check_docs.YIELD_TABLE_HEADER}\n"
        "|---|---|---|\n"
        f"{rows}"
        "| seam | `cache:get` | `CacheClient` |\n"
        "\nafter the table: `db:commit` is not a row\n")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    errors = check_docs.check_yield_table()
    assert len(errors) == 2
    assert "lists `cache:get`" in errors[0]
    assert "lacks `db:commit`" in errors[1]
