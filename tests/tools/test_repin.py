"""``tools/repin.py`` on a toy repository: a seeded moved pin, its table
row, the exit codes of ``--check`` and ``--write --expect``, the in-place
rewrite and the refusals to write without ``--expect`` or over a hand edit.

The toy repository has one package under ``src/``, one in-file pin whose
named quantities are a counter dict, and one stdout golden.  Each case
moves the package in the working tree, so the tool builds the pins twice:
over ``HEAD``'s ``src/`` and over the working tree's.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import repin  # noqa: E402

PIN_MODULE = '''\
import hashlib
import json

import toy

GOLDEN_TOY = {
    # Kept across a re-pin: only the value literal is rewritten.
    "counts": "DIGEST",
}

COMMANDS = {"banner": ["banner"]}


def toy_quantities(name):
    return {"counters": dict(toy.COUNTS)}


def toy_digest(quantities):
    payload = json.dumps(quantities, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run(argv):
    return toy.BANNER + "\\n"
'''

PINS = (repin.InFilePin("tests/pins.py", "GOLDEN_TOY", "toy_quantities",
                        "toy_digest"),
        repin.TextGoldens("tests/pins.py", "tests/golden", "COMMANDS", "run"))

COUNTS = {"gets": 3, "sets": 1}


def digest(counts):
    payload = json.dumps({"counters": counts}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def write_toy(root: Path, counts, banner: str = "hello") -> None:
    (root / "src" / "toy" / "__init__.py").write_text(
        f"COUNTS = {counts!r}\nBANNER = {banner!r}\n")


def git(root: Path, *args: str) -> None:
    subprocess.run(["git", "-c", "user.name=repin", "-c",
                    "user.email=repin@example.com", "-c",
                    "commit.gpgsign=false", *args],
                   cwd=root, check=True, capture_output=True)


@pytest.fixture
def toy(tmp_path):
    (tmp_path / "src" / "toy").mkdir(parents=True)
    (tmp_path / "tests" / "golden").mkdir(parents=True)
    write_toy(tmp_path, COUNTS)
    (tmp_path / "tests" / "pins.py").write_text(
        PIN_MODULE.replace("DIGEST", digest(COUNTS)))
    (tmp_path / "tests" / "golden" / "banner.txt").write_text("hello\n")
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-q", "-m", "toy")
    return tmp_path


def run(root: Path, capsys, *argv: str):
    status = repin.main(list(argv), root=root, pins=PINS)
    return status, capsys.readouterr().out


def rows(out: str):
    """The table's rows as cell tuples, wrapped lines left as they are."""
    return [tuple(cell.strip() for cell in line.strip("|").split("|"))
            for line in out.splitlines() if line.startswith("| ")]


def test_unmoved_pins_pass_the_check(toy, capsys):
    status, out = run(toy, capsys, "--check")
    assert status == 0
    assert "2 pins built, 0 moved" in out


def test_a_moved_pin_shows_its_quantities_and_fails_the_check(toy, capsys):
    write_toy(toy, {"multi_gets": 3, "sets": 1})
    status, out = run(toy, capsys, "--check")
    assert status == 1
    table = rows(out)
    assert ("GOLDEN_TOY:", "pin", digest(COUNTS)[:12] + "…",
            digest({"multi_gets": 3, "sets": 1})[:12] + "…",
            "moved") in [(row[0].split(" ")[0],) + row[1:] for row in table]
    assert ("", "counters.multi_gets", "—", "3", "appeared") in table
    assert ("", "counters.gets", "3", "—", "vanished") in table
    # --check wrote nothing.
    assert digest(COUNTS) in (toy / "tests" / "pins.py").read_text()


def test_expect_fails_on_a_pin_it_does_not_name(toy, capsys):
    write_toy(toy, {"gets": 4, "sets": 1})
    pins = toy / "tests" / "pins.py"
    status, out = run(toy, capsys, "--write", "--expect", "golden")
    assert status == 1
    assert "not named by --expect: GOLDEN_TOY:counts" in out
    assert ("", "counters.gets", "3", "4", "+33.33%") in rows(out)
    assert digest(COUNTS) in pins.read_text()        # nothing written
    for name in ("GOLDEN_TOY:counts", "GOLDEN_T*"):
        assert run(toy, capsys, "--write", "--expect", name)[0] == 0
        assert digest({"gets": 4, "sets": 1}) in pins.read_text()
        git(toy, "checkout", "--", "tests/pins.py")


def test_write_without_expect_writes_nothing(toy, capsys):
    write_toy(toy, {"gets": 4, "sets": 1})
    status, out = run(toy, capsys, "--write")
    assert status == 2
    assert out == ""                                 # nothing built
    assert digest(COUNTS) in (toy / "tests" / "pins.py").read_text()


def test_write_rewrites_the_value_in_place(toy, capsys):
    write_toy(toy, {"gets": 4, "sets": 1}, banner="hello, world")
    status, out = run(toy, capsys, "--write", "--expect", "golden:banner")
    assert status == 1                 # GOLDEN_TOY moved too: nothing written
    assert (toy / "tests" / "golden" / "banner.txt").read_text() == "hello\n"
    assert ("", "line 1", "hello", "hello, world", "changed") in rows(out)

    status, out = run(toy, capsys, "--write", "--expect", "GOLDEN_TOY,golden")
    assert status == 0
    source = (toy / "tests" / "pins.py").read_text()
    assert source == PIN_MODULE.replace(
        "DIGEST", digest({"gets": 4, "sets": 1}))
    assert (toy / "tests" / "golden" / "banner.txt").read_text() == \
        "hello, world\n"
    assert run(toy, capsys, "--check")[0] == 0


def test_write_refuses_a_hand_edited_pin(toy, capsys):
    pins = toy / "tests" / "pins.py"
    pins.write_text(pins.read_text().replace(digest(COUNTS), "0" * 64))
    status, out = run(toy, capsys, "--write", "--expect", "GOLDEN_TOY,golden")
    assert (status, out) == (2, "")
    assert "0" * 64 in pins.read_text()
    (toy / "tests" / "golden" / "banner.txt").write_text("edited\n")
    git(toy, "checkout", "--", "tests/pins.py")
    assert run(toy, capsys, "--write", "--expect", "GOLDEN_TOY,golden")[0] == 2


def test_quantity_rows_fold_positions_and_merge_keys():
    old = {"pages": [[1, "Login", {"a": 0, "b": 0, "c": 2}],
                     [2, "Logout", {"a": 0, "b": 0, "c": 5}]]}
    new = {"pages": [[1, "Login", {"c": 2}], [2, "Logout", {"c": 6}]]}
    assert repin.quantity_rows(old, new) == [
        ("pages[*][2].c x1", "5", "6", "+20.00%"),
        ("pages[*][2].{a, b} x2", "S 0", "—", "vanished"),
    ]
