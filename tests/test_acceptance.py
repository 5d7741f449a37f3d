"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest -v tests/test_acceptance.py`` for one line per criterion,
or ``tametransfer selftest`` for the same checks as a JSON report.  Both run
each criterion through ``selftest.run_criterion``.
"""

import pytest

import tametransfer.selftest as selftest_module
import tametransfer.tame as tame_module
from tametransfer import char, orbit_of
from tametransfer.selftest import CRITERIA, CheckFailure, run_criterion


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.name)
def test_criterion(criterion):
    result = run_criterion(criterion)
    verdict = "PASS" if result["passed"] else "FAIL"
    print(f"{verdict} {criterion.name} [{result['seconds']:.2f}s / budget {criterion.budget_seconds:.0f}s] {result['detail']}")
    assert result["passed"], result["detail"]


def test_injected_rectifier_bug_fails_the_descent_criterion(monkeypatch):
    """Mutation sanity check: corrupting the twist must break criterion 6."""
    true_rectifier = tame_module.rectifier

    def flipped(params):
        # the constructor derives mu from the shape: the fault is filled into a bare instance
        spec = true_rectifier(params)
        bad = object.__new__(tame_module.RectifierSpec)
        bad._fill(spec.params, spec.w, spec.v, spec.u, spec.y, char(spec.mu.level, spec.mu.a + spec.mu.level.M // 2))
        return bad

    monkeypatch.setattr(tame_module, "rectifier", flipped)
    with pytest.raises(CheckFailure):
        selftest_module.check_descent_replay()


def test_injected_descent_bug_off_q3_fails_the_descent_criterion(monkeypatch):
    """Mutation sanity check: a descent that goes wrong on every base but Q = 3 must break
    criterion 6, which replays one shape per class of the sweep besides its three over Q = 3."""
    true_descend = tame_module.descend_transfer

    def shifted(alpha, lift, beta_image):
        result = true_descend(alpha, lift, beta_image)
        if alpha.level.Q == 3:
            return result
        return orbit_of(char(result.level, result.rep + result.level.M // 2))

    monkeypatch.setattr(tame_module, "descend_transfer", shifted)
    (criterion,) = [c for c in CRITERIA if c.name == "6_descent_replay"]
    result = run_criterion(criterion)
    assert not result["passed"]
    assert "descent gave" in result["detail"]
