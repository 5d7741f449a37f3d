"""The ledger of answers: every command line of ``make_answers.command_lines`` still prints, the
anchor table still prints the bytes, every pair of the certify box still certifies, every level
of selftest criterion 3 still builds the chains, and every small sweep shape still descends, that
tests/answers.json records; the demos and the selftest criteria compare their own output with it
where they run.  These tests are also where tier-1 judges those answers: each of the 28
``cli_cases`` lines by its golden, and each certificate of the box by ``certify_oracle.json``, an
exact round trip through ``jsonio`` and ``verify_certificate``.  After a change that moves an
answer on purpose, regenerate the ledger with ``python tests/make_answers.py`` and read its diff."""

import json

from make_answers import (
    CERTIFY_BOX,
    ROOT,
    certify_entries,
    chain_entries,
    cli_cases,
    cli_entries,
    command_lines,
    descent_entries,
    key_of,
    ledger_entries,
    ledger_keys,
    table_entries,
)

from tametransfer import verify_certificate
from tametransfer.jsonio import certificate_from_json, certificate_to_json


def test_the_ledger_holds_a_line_for_each_key_in_order():
    # the keys come without any answer, so no stale line can hide after the last slice
    assert [key_of(entry) for entry in ledger_entries()] == ledger_keys()


def test_every_command_line_prints_the_answer_the_ledger_records():
    assert len(command_lines()) == 28 + 48
    entries = cli_entries()
    assert entries == ledger_entries("argv")
    # the independent key: the hand-checked goldens of perfbench/cli_cases.py
    documents = {tuple(entry["argv"]): entry for entry in map(json.loads, entries)}
    cases = cli_cases()
    for case in cases.README + cases.PROBES + cases.ITEM1:
        entry = documents[tuple(case["argv"])]
        assert cases.check_output(case, entry["exit"], json.dumps(entry["document"])) is None, case["argv"]


def test_the_anchor_table_prints_the_bytes_the_ledger_records():
    assert table_entries() == ledger_entries("table")


def test_every_certify_pair_certifies_the_prime_the_ledger_records():
    entries = certify_entries()
    assert entries == ledger_entries("certify")
    # the independent key: perfbench/make_certify_oracle.py finds each prime with sympy alone
    oracle = json.loads((ROOT / "perfbench" / "certify_oracle.json").read_text())
    assert len(entries) == len(CERTIFY_BOX) == len(oracle) == 1131
    for entry in map(json.loads, entries):
        b, r = entry["certify"]
        certificate = entry["certificate"]
        assert oracle[f"{b},{r}"] == (certificate and certificate["ell"]), (b, r)
        if certificate is not None:
            record = certificate_from_json(certificate)
            assert certificate_to_json(record) == certificate, (b, r)
            assert verify_certificate(record), (b, r)


def test_every_criterion_3_level_builds_the_chains_the_ledger_records():
    entries = chain_entries()
    assert entries == ledger_entries("chains")
    assert sum(json.loads(entry)["count"] for entry in entries) == 2824


def test_every_small_sweep_shape_descends_as_the_ledger_records():
    # criterion 6 replays one shape per class with M <= 3000; this covers every shape up to M = 20000
    entries = descent_entries()
    assert entries == ledger_entries("descent")
    documents = [json.loads(entry) for entry in entries]
    assert len(documents) == 147
    assert sum(document["orbits"] for document in documents) == 68733
    assert sum(document["errors"] for document in documents) == 0
