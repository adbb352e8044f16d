"""docs/OBSERVABILITY.md's count table names one owner for every count.

Mirrors the fifth check of ``tools/check_docs.py``: each count of a checked
owner is in exactly one of its rows, and a name two owners keep is a
declared homonym, so a second copy of a count cannot be added unnoticed.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def test_the_count_table_names_one_owner_per_count():
    assert check_docs.check_count_table() == []


def test_every_checked_owner_has_rows():
    owners = {owner for owner, _counts in check_docs.count_table_rows(
        (REPO_ROOT / check_docs.COUNT_TABLE_DOC).read_text())}
    assert set(check_docs.count_owners()) <= owners


def rewrite_table(tmp_path, monkeypatch, edit):
    text = (REPO_ROOT / check_docs.COUNT_TABLE_DOC).read_text()
    doc = tmp_path / check_docs.COUNT_TABLE_DOC
    doc.parent.mkdir()
    doc.write_text(edit(text))
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    return check_docs.check_count_table()


def test_a_second_owner_fails(tmp_path, monkeypatch):
    """The twin this table replaced: the op queue counting retry rounds
    beside the recorder."""
    errors = rewrite_table(tmp_path, monkeypatch, lambda text: text.replace(
        "trigger ops: `enqueued`,",
        "trigger ops: `cas_retry_rounds`, `enqueued`,"))
    assert errors == [f"{check_docs.COUNT_TABLE_DOC}: `cas_retry_rounds` is "
                      f"kept by Recorder, TriggerOpQueue: one count, one "
                      f"owner (or declare it in HOMONYMS)"]


def test_a_missing_a_doubled_and_a_foreign_count_fail(tmp_path, monkeypatch):
    def edit(text):
        return (text.replace("`band_switches`, ", "")
                .replace("`gutter_sets`, ", "`gutter_sets`, `gutter_sets`, ")
                .replace("`recomputations`, `cas_retries`",
                         "`recomputations`, `herd_size_max`, `cas_retries`"))
    errors = rewrite_table(tmp_path, monkeypatch, edit)
    doc = check_docs.COUNT_TABLE_DOC
    assert f"{doc}: `band_switches` of Recorder is listed 0 times in its " \
        "rows, not once" in errors
    assert f"{doc}: `gutter_sets` of GutterPool is listed 2 times in its " \
        "rows, not once" in errors
    assert f"{doc}: the CachedObjectStats row lists `herd_size_max`, which " \
        "CachedObjectStats does not keep" in errors
    assert any("`herd_size_max` is kept by" in error for error in errors)
    assert len(errors) == 4
