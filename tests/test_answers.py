"""The ledger of answers: every command line of perfbench/cli_cases.py still prints, and every
pair of the certify box still certifies, what tests/answers.json records.  After a change that
moves an answer on purpose, regenerate the ledger with ``python tests/make_answers.py`` and read
its diff."""

import json

from make_answers import CERTIFY_BOX, ROOT, certify_entries, cli_entries, command_lines, ledger_entries


def test_every_command_line_prints_the_answer_the_ledger_records():
    assert len(command_lines()) == 28
    assert cli_entries() == ledger_entries()[:28]


def test_every_certify_pair_certifies_the_prime_the_ledger_records():
    entries = certify_entries()
    assert entries == ledger_entries()[28:]
    # the independent key: perfbench/make_certify_oracle.py finds each prime with sympy alone
    oracle = json.loads((ROOT / "perfbench" / "certify_oracle.json").read_text())
    assert len(entries) == len(CERTIFY_BOX) == len(oracle) == 1131
    for entry in map(json.loads, entries):
        b, r = entry["certify"]
        certificate = entry["certificate"]
        assert oracle[f"{b},{r}"] == (certificate and certificate["ell"]), (b, r)
