"""docs/CONSISTENCY.md's strategy hook table matches ``ConsistencyStrategy``.

Mirrors the third check of ``tools/check_docs.py``: a hook deleted from the
protocol cannot linger in the table, and a hook a built-in strategy
overrides cannot go unlisted.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def test_the_hook_table_matches_the_protocol():
    listed = check_docs.hook_table_names(
        (REPO_ROOT / check_docs.HOOK_TABLE_DOC).read_text())
    assert {"fetch", "fetch_multi", "flush_invalidations"} <= set(listed)
    assert check_docs.check_hook_table() == []


def test_the_check_flags_a_stale_and_a_missing_hook(tmp_path, monkeypatch):
    doc = tmp_path / check_docs.HOOK_TABLE_DOC
    doc.parent.mkdir()
    doc.write_text(
        "intro\n\n"
        "| hook | responsibility |\n"
        "|---|---|\n"
        "| `needs_triggers` | class attr |\n"
        "| `on_write(obj, table, event, new, old)` | propagate |\n"
        "| `invalidate_eager(obj, key)` | drop one key |\n"
        "\nafter the table: `fetch_multi` is not a row\n")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    errors = check_docs.check_hook_table()
    assert any("lists `invalidate_eager`" in e for e in errors)
    assert any("lacks `fetch_multi`" in e for e in errors)
    assert not any("`on_write`" in e or "`needs_triggers`" in e
                   for e in errors)
