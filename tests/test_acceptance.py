"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest -v tests/test_acceptance.py`` for one line per criterion,
or ``tametransfer selftest`` for the same checks as a JSON report.  The
scale defaults to small; set TAMETRANSFER_ACCEPTANCE_SCALE=full for the
extended sweeps.
"""

import os
import time

import pytest

import tametransfer.selftest as selftest_module
import tametransfer.tame as tame_module
from tametransfer import char
from tametransfer.selftest import CRITERIA, CheckFailure

SCALE = os.environ.get("TAMETRANSFER_ACCEPTANCE_SCALE", "small")


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.name)
def test_criterion(criterion):
    start = time.perf_counter()
    try:
        detail = criterion.run(SCALE)
        failure = None
    except (CheckFailure, AssertionError) as exc:
        detail = str(exc)
        failure = exc
    elapsed = time.perf_counter() - start
    verdict = "PASS" if failure is None and elapsed < criterion.budget_seconds else "FAIL"
    print(f"{verdict} {criterion.name} [{elapsed:.2f}s / budget {criterion.budget_seconds:.0f}s] {detail}")
    if failure is not None:
        raise failure
    if SCALE == "small":
        assert elapsed < criterion.budget_seconds, (
            f"{criterion.name} took {elapsed:.2f}s, budget {criterion.budget_seconds}s"
        )


def test_injected_rectifier_bug_fails_the_descent_criterion(monkeypatch):
    """Mutation sanity check: corrupting the twist must break criterion 6."""
    true_rectifier = tame_module.rectifier

    def flipped(params):
        spec = true_rectifier(params)
        mu = char(spec.mu.level, spec.mu.a + spec.mu.level.M // 2)
        return tame_module.RectifierSpec(
            params=spec.params, w=spec.w, v=spec.v, u=spec.u, y=spec.y, mu=mu
        )

    monkeypatch.setattr(tame_module, "rectifier", flipped)
    with pytest.raises((CheckFailure, AssertionError)):
        selftest_module.check_descent_replay("small")
