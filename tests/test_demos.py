"""Every walkthrough under demos/ runs as a script against the source tree."""

import os
import pathlib
import subprocess
import sys

import pytest

import tametransfer

SRC = pathlib.Path(tametransfer.__file__).resolve().parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_the_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    done = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
