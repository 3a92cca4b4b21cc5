"""The narrative scripts in ``demos/`` run to completion without complaint."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
