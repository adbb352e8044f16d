#!/usr/bin/env python
"""Documentation checks: relative-link integrity and runnable snippets.

Run from the repository root (CI's docs job does)::

    PYTHONPATH=src python tools/check_docs.py

Four checks keep the docs layer from rotting silently:

* **Links** — every relative markdown link in ``README.md`` and ``docs/``
  must point at an existing file, and every ``#anchor`` must match a
  heading (GitHub slug rules) in the target file.
* **Doctests** — every fenced ```python block that contains ``>>>``
  prompts is executed with :mod:`doctest`.  Blocks within one file share a
  namespace, in order, so a setup block can feed the examples below it.
* **The strategy hook table** in ``docs/CONSISTENCY.md`` — every backticked
  hook name in its first column must be an attribute of
  ``ConsistencyStrategy``, and every ``ConsistencyStrategy`` method a
  built-in strategy overrides (``describe`` excepted) must be listed, so a
  deleted hook cannot linger in the docs and a new one cannot go unlisted.
* **The yield-point table** in ``docs/CONCURRENCY.md`` — the backticked
  labels of its second column must be exactly ``repro.obs.hooks.PAUSES``,
  the pause labels the layers declare.

Exit status 0 when everything passes; a non-zero status lists every broken
link / failing example on stderr.  No dependencies beyond the standard
library (plus the ``repro`` package being importable for the snippets).
"""

from __future__ import annotations

import doctest
import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Files whose links and snippets are checked.
DOC_FILES = ("README.md", "EXPERIMENTS.md", "docs")

#: Inline markdown links: [text](target) — images share the syntax.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Fenced code blocks with an info string, non-greedy across lines.
_FENCE_RE = re.compile(r"^```(\w*)[^\n]*\n(.*?)^```\s*$",
                       re.MULTILINE | re.DOTALL)

_HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)

_FENCED_CODE_RE = re.compile(r"^```.*?^```\s*$", re.MULTILINE | re.DOTALL)
_INLINE_CODE_RE = re.compile(r"`[^`\n]*`")

#: The page holding the strategy hook table, and the table's header row.
HOOK_TABLE_DOC = "docs/CONSISTENCY.md"
HOOK_TABLE_HEADER = "| hook | responsibility |"

#: A backticked name, e.g. the ``fetch_multi`` of ``fetch_multi(client, …)``.
_HOOK_NAME_RE = re.compile(r"`(\w+)")

#: The page holding the yield-point table, and the table's header row.
YIELD_TABLE_DOC = "docs/CONCURRENCY.md"
YIELD_TABLE_HEADER = "| Boundary | Labels | Announced by |"

#: A whole backticked span, e.g. ``page:<name>``.
_CODE_SPAN_RE = re.compile(r"`([^`]+)`")


def strip_code(text: str) -> str:
    """Remove fenced blocks and inline code spans before scanning links.

    Ordinary code like ``handlers[name](event)`` matches the markdown-link
    syntax; only prose links should be validated.
    """
    return _INLINE_CODE_RE.sub("", _FENCED_CODE_RE.sub("", text))


def doc_paths() -> List[Path]:
    """The markdown files under check, in a stable order."""
    paths: List[Path] = []
    for entry in DOC_FILES:
        path = REPO_ROOT / entry
        if path.is_dir():
            paths.extend(sorted(path.rglob("*.md")))
        elif path.exists():
            paths.append(path)
    return paths


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading: lowercase, punctuation dropped,
    spaces to hyphens (backticks and markdown emphasis are stripped first)."""
    text = re.sub(r"[`*_]", "", heading.strip()).lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(path: Path) -> List[str]:
    return [github_slug(m.group(1)) for m in _HEADING_RE.finditer(path.read_text())]


def check_links(paths: List[Path]) -> List[str]:
    """Return one error string per broken relative link or anchor."""
    errors: List[str] = []
    for path in paths:
        for match in _LINK_RE.finditer(strip_code(path.read_text())):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            base, _, anchor = target.partition("#")
            resolved = (path.parent / base).resolve() if base else path
            if not resolved.exists():
                errors.append(f"{path.relative_to(REPO_ROOT)}: broken link "
                              f"-> {target}")
                continue
            if anchor and resolved.suffix == ".md":
                if anchor not in heading_slugs(resolved):
                    errors.append(f"{path.relative_to(REPO_ROOT)}: missing "
                                  f"anchor -> {target}")
    return errors


def python_snippets(path: Path) -> List[Tuple[int, str]]:
    """(line, source) of each ```python block containing doctest prompts."""
    text = path.read_text()
    snippets: List[Tuple[int, str]] = []
    for match in _FENCE_RE.finditer(text):
        language, body = match.group(1), match.group(2)
        if language == "python" and ">>>" in body:
            line = text.count("\n", 0, match.start()) + 1
            snippets.append((line, body))
    return snippets


def check_doctests(paths: List[Path]) -> List[str]:
    """Run each file's doctest blocks (shared namespace, in order)."""
    errors: List[str] = []
    parser = doctest.DocTestParser()
    for path in paths:
        snippets = python_snippets(path)
        if not snippets:
            continue
        name = str(path.relative_to(REPO_ROOT))
        source = "\n".join(body for _line, body in snippets)
        globs: Dict[str, object] = {}
        test = parser.get_doctest(source, globs, name, name, 0)
        runner = doctest.DocTestRunner(verbose=False,
                                       optionflags=doctest.ELLIPSIS)
        output: List[str] = []
        runner.run(test, out=output.append)
        if runner.failures:
            errors.append(f"{name}: {runner.failures} of {runner.tries} "
                          f"doctest example(s) failed\n" + "".join(output))
    return errors


def table_column(text: str, header: str, column: int) -> List[str]:
    """The cells of column ``column`` (1-based) of the table under
    ``header``."""
    table = text[text.index(header):].split("\n\n", 1)[0]
    return [row.split("|")[column] for row in table.splitlines()[2:]]


def hook_table_names(text: str) -> List[str]:
    """The backticked names in the first column of the hook table."""
    return [name for cell in table_column(text, HOOK_TABLE_HEADER, 1)
            for name in _HOOK_NAME_RE.findall(cell)]


def check_hook_table() -> List[str]:
    """One error per hook the table lists but ``ConsistencyStrategy`` lacks,
    and per overridden hook the table does not list."""
    from repro.adaptive import AdaptiveStrategy
    from repro.core import strategies

    base = strategies.ConsistencyStrategy
    listed = hook_table_names((REPO_ROOT / HOOK_TABLE_DOC).read_text())
    errors = [f"{HOOK_TABLE_DOC}: the hook table lists `{name}`, which "
              f"ConsistencyStrategy does not have"
              for name in listed if not hasattr(base, name)]
    hooks = {name for name, value in vars(base).items()
             if callable(value) and not name.startswith("_")} - {"describe"}
    builtins = [cls for cls in vars(strategies).values()
                if isinstance(cls, type) and issubclass(cls, base)
                and cls is not base] + [AdaptiveStrategy]
    for cls in builtins:
        for name in sorted((hooks & set(vars(cls))) - set(listed)):
            errors.append(f"{HOOK_TABLE_DOC}: the hook table lacks `{name}`, "
                          f"which {cls.__name__} overrides")
    return errors


def yield_table_labels(text: str) -> List[str]:
    """The backticked labels in the second column of the yield-point
    table."""
    return [label for cell in table_column(text, YIELD_TABLE_HEADER, 2)
            for label in _CODE_SPAN_RE.findall(cell)]


def check_yield_table() -> List[str]:
    """One error per label the table lists but no layer declares, and per
    declared label the table does not list."""
    from repro.obs import hooks

    listed = yield_table_labels((REPO_ROOT / YIELD_TABLE_DOC).read_text())
    return ([f"{YIELD_TABLE_DOC}: the yield-point table lists `{label}`, "
             f"which is not in repro.obs.hooks.PAUSES"
             for label in listed if label not in hooks.PAUSES]
            + [f"{YIELD_TABLE_DOC}: the yield-point table lacks `{label}`, "
               f"which repro.obs.hooks.PAUSES declares"
               for label in hooks.PAUSES if label not in listed])


def main() -> int:
    paths = doc_paths()
    if not paths:
        print("check_docs: no documentation files found", file=sys.stderr)
        return 1
    errors = (check_links(paths) + check_doctests(paths) + check_hook_table()
              + check_yield_table())
    snippet_count = sum(len(python_snippets(p)) for p in paths)
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        print(f"check_docs: {len(errors)} problem(s) across {len(paths)} "
              f"file(s)", file=sys.stderr)
        return 1
    print(f"check_docs: {len(paths)} file(s) OK "
          f"({snippet_count} doctest block(s) executed)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
