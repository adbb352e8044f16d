"""Every ``python -m repro.bench`` command in a fenced block of the docs
parses with the CLI's ``build_parser()``.

Mirrors the bench-command check of ``tools/check_docs.py``: a deleted
subcommand or option cannot linger in a command the docs tell a reader to
run.  No command is run.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def test_every_documented_bench_command_parses():
    paths = check_docs.doc_paths()
    assert sum(len(check_docs.bench_commands(path)) for path in paths) > 20
    assert check_docs.check_bench_commands(paths) == []


def test_the_check_joins_continuations_and_flags_a_stale_command(tmp_path,
                                                                  monkeypatch):
    doc = tmp_path / "GUIDE.md"
    doc.write_text(
        "Prose mentioning `python -m repro.bench exp-gone` is not checked.\n"
        "\n"
        "```bash\n"
        "PYTHONPATH=src python -m repro.bench exp-batch --batch-ops off  # one\n"
        "python -m repro.bench exp-contention --quick \\\n"
        "    --json-out run.json\n"
        "python -m repro.bench exp-batch --help\n"
        "python -m repro.bench exp-cas-batch --cas-batch off\n"
        "python -m repro.bench exp1 --quick \\\n"
        "    --no-such-flag   # a stale option on a continuation line\n"
        "```\n"
        "\n"
        "```python\n"
        "print(\"an unbalanced ' quote outside any bench command\")\n"
        "```\n")
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    assert check_docs.bench_commands(doc) == [
        (4, ["exp-batch", "--batch-ops", "off"]),
        (5, ["exp-contention", "--quick", "--json-out", "run.json"]),
        (7, ["exp-batch", "--help"]),
        (8, ["exp-cas-batch", "--cas-batch", "off"]),
        (9, ["exp1", "--quick", "--no-such-flag"]),
    ]
    errors = check_docs.check_bench_commands([doc])
    assert len(errors) == 2
    assert errors[0].startswith("GUIDE.md:8: ")
    assert "invalid choice: 'exp-cas-batch'" in errors[0]
    assert errors[1].startswith("GUIDE.md:9: ")
    assert "--no-such-flag" in errors[1]
