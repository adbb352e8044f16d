"""Every ``examples/*.py`` is a command of the system: it must exit 0.

Each example runs in its own interpreter, as a reader would run it
(``PYTHONPATH=src python examples/<name>.py``), so a module-level side effect
of one cannot leak into another or into the rest of the suite.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_there_are_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("example", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(example, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(example)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip(), "an example shows its reader something"
