"""Every script under ``examples/`` runs to completion in a fresh
interpreter, the way a reader starts it, so an example that reaches for a
renamed or removed surface fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()
