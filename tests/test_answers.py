"""The ledger of answers: every command line of perfbench/cli_cases.py still prints what
tests/answers.json records.  After a change that moves an answer on purpose, regenerate
the ledger with ``python tests/make_answers.py`` and read its diff."""

from make_answers import LEDGER, command_lines, ledger_text


def test_every_command_line_prints_the_answer_the_ledger_records():
    assert len(command_lines()) == 28
    assert ledger_text().splitlines() == LEDGER.read_text().splitlines()
