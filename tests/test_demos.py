"""Every walkthrough under demos/ runs as a script against the source tree and prints what the
ledger of answers records."""

import pytest
from make_answers import DEMOS, recorded, run_demo


def test_the_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    done = run_demo(demo)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert done.stdout == recorded("demo", demo.stem)["stdout"]
