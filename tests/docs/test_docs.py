"""The docs layer cannot rot: link integrity + runnable snippets.

Mirrors CI's docs job (``PYTHONPATH=src python tools/check_docs.py``) so a
broken link or a drifted snippet fails the tier-1 suite locally too.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def test_repo_has_a_docs_layer():
    assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").exists()
    assert (REPO_ROOT / "docs" / "CONSISTENCY.md").exists()
    paths = [p.name for p in check_docs.doc_paths()]
    assert "README.md" in paths
    assert "ARCHITECTURE.md" in paths and "CONSISTENCY.md" in paths


def test_relative_links_resolve():
    assert check_docs.check_links(check_docs.doc_paths()) == []


def test_doc_snippets_execute():
    paths = check_docs.doc_paths()
    # The quickstart (README) and the consistency page carry doctest blocks.
    documented = {p.name for p in paths if check_docs.python_snippets(p)}
    assert {"README.md", "CONSISTENCY.md"} <= documented
    assert check_docs.check_doctests(paths) == []


def test_checker_detects_broken_links(tmp_path, monkeypatch):
    """The guard itself must not be a no-op: a bad link has to fail."""
    doc = tmp_path / "BAD.md"
    doc.write_text("see [missing](nope.md) and [bad anchor](BAD.md#nothing)\n"
                   "# Real Heading\n")
    # tmp_path is outside the repo, so report paths relative to it.
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    errors = check_docs.check_links([doc])
    assert len(errors) == 2
    assert any("broken link" in e for e in errors)
    assert any("missing anchor" in e for e in errors)


def test_checker_ignores_code_spans(tmp_path, monkeypatch):
    """Code like handlers[name](event) must not read as a markdown link."""
    doc = tmp_path / "CODE.md"
    doc.write_text(
        "Inline `self._servers[server_name](batch)` is not a link.\n"
        "```python\nvalue = handlers[name](event)\n```\n")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    assert check_docs.check_links([doc]) == []


def test_checker_detects_failing_doctests(tmp_path, monkeypatch):
    doc = tmp_path / "WRONG.md"
    doc.write_text("```python\n>>> 1 + 1\n3\n```\n")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    errors = check_docs.check_doctests([doc])
    assert len(errors) == 1
    assert "doctest example(s) failed" in errors[0]


def test_github_slugging_matches_linked_anchors():
    assert check_docs.github_slug("Batching is now the default") == \
        "batching-is-now-the-default"
    assert check_docs.github_slug("## `code` & Symbols!") == "-code--symbols"


def test_module_map_names_only_what_exists():
    assert check_docs.check_entry_points() == []


def test_module_map_check_catches_a_stale_entry_point():
    header = check_docs.ENTRY_TABLE_HEADER
    text = (f"{header}\n|---|---|---|\n"
            "| ring | `src/repro/memcache/hashring.py` | "
            "`HashRing.server_for()`, `snapshot()`/`restore()` |\n"
            "| interception | `src/repro/core/interception.py` | "
            "`CacheGenieInterceptor.try_fetch()/try_intercept()` |\n"
            "| arrivals | `src/repro/workload/arrival.py` | "
            "`FlashCrowdArrival`, `DiurnalArrival` |\n")
    errors = check_docs.check_entry_points(text)
    assert [error.split("`")[1] for error in errors] == [
        "snapshot()", "restore()",
        "CacheGenieInterceptor.try_fetch()/try_intercept()",
        "DiurnalArrival"]


def test_module_map_reads_bare_files_and_packages():
    modules = check_docs.row_modules(
        "`src/repro/memcache/client.py`, `server.py`, `src/repro/workload/`")
    names = [module.__name__ for module in modules]
    assert names[:3] == ["repro.memcache.client", "repro.memcache.server",
                         "repro.workload"]
    assert "repro.workload.zipf" in names[3:]


def test_module_map_resolves_a_bare_method_on_the_class_named_before_it():
    header = check_docs.ENTRY_TABLE_HEADER
    text = (f"{header}\n|---|---|---|\n"
            "| ring | `src/repro/memcache/hashring.py` | "
            "`HashRing`, `server_for()`, `no_such_method()` |\n"
            "| cli | `python -m repro.bench` | `anything()` |\n")
    errors = check_docs.check_entry_points(text)
    assert [error.split("`")[1] for error in errors] == ["no_such_method()"]
