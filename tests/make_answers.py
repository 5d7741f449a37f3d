"""Write ``tests/answers.json``, the ledger of answers that ``tests/test_answers.py`` recomputes.

Run from anywhere, after a change that moves an answer on purpose:

    python tests/make_answers.py

The ledger holds, one line each, so that a diff of the ledger reads as a diff
of answers:

- for every command line of ``perfbench/cli_cases.py`` (README, PROBES and
  ITEM1, in that order), its exit code and the JSON document the CLI prints;
- for every pair of the certify box (``CERTIFY_BOX``: b <= 40, r <= 30, b
  before r), the certificate of its least primitive prime as
  ``jsonio.certificate_to_json`` writes it (``b``, ``r``, ``ell`` and
  ``order_checks``), or null when the pair has none;
- for every level of selftest criterion 3 (``selftest._LINKING_LEVELS``),
  the number of ordered chains between its orbit representatives and a
  SHA-256 over each chain, in criterion 3's order: its source and target
  exponents and, for each step, ell and the members of the orbits before and
  after it.

The search memo is cleared before every CLI and certify line, and the memo of
level splits before every chain line, so each computes its answer afresh.
A usage error's message is argparse's text: its usage line wraps at the
terminal width (``COLUMNS``) and its wording belongs to the Python release, so
for exit code 1 the ledger keeps the document without its message.

The ledger is a regression lock, not an oracle: it records what the program
answers, and the goldens of ``cli_cases.py`` and the other independent checks
stay the judges of what is right.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "answers.json"
CERTIFY_BOX = [(b, r) for b in range(2, 41) for r in range(2, 31)]


def command_lines() -> list[list[str]]:
    spec = importlib.util.spec_from_file_location("cli_cases", ROOT / "perfbench" / "cli_cases.py")
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    return [case["argv"] for case in cases.README + cases.PROBES + cases.ITEM1]


def cli_entries() -> list[str]:
    """One ledger line for each command line of ``cli_cases.py``."""
    from tametransfer.cli import run
    from tametransfer.regularize import _smallest_primitive_prime

    entries = []
    for argv in command_lines():
        _smallest_primitive_prime.cache_clear()
        result = run(argv)
        document = result.document()
        if result.exit_code == 1:
            del document["message"]
        entries.append(json.dumps({"argv": argv, "exit": result.exit_code, "document": document}, sort_keys=True))
    return entries


def certify_entries() -> list[str]:
    """One ledger line for each pair of ``CERTIFY_BOX``."""
    from tametransfer.jsonio import certificate_to_json
    from tametransfer.regularize import _smallest_primitive_prime, zsigmondy_prime

    entries = []
    for b, r in CERTIFY_BOX:
        _smallest_primitive_prime.cache_clear()
        hit = zsigmondy_prime(b, r)
        certificate = None if hit is None else certificate_to_json(hit[1])
        entries.append(json.dumps({"certify": [b, r], "certificate": certificate}, sort_keys=True))
    return entries


def chain_entries() -> list[str]:
    """One ledger line for each level of selftest criterion 3."""
    from tametransfer import build_link_chain, enumerate_orbits, field_level
    from tametransfer.linking import _level_split
    from tametransfer.selftest import _LINKING_LEVELS

    entries = []
    for Q, deg in _LINKING_LEVELS:
        _level_split.cache_clear()
        orbits = enumerate_orbits(field_level(Q, deg))
        digest, count = hashlib.sha256(), 0
        for o1 in orbits:
            for o2 in orbits:
                chain = build_link_chain(o1.rep_char(), o2.rep_char())
                steps = [[s.ell, list(s.before.members), list(s.after.members)] for s in chain.steps]
                digest.update(json.dumps([chain.source.a, chain.target.a, steps]).encode() + b"\n")
                count += 1
        entries.append(json.dumps({"chains": [Q, deg], "count": count, "sha256": digest.hexdigest()}, sort_keys=True))
    return entries


def ledger_text() -> str:
    """The ledger as it reads today: a JSON list with one entry a line."""
    return "[\n" + ",\n".join(cli_entries() + certify_entries() + chain_entries()) + "\n]\n"


def ledger_entries() -> list[str]:
    """The lines of the ledger as written, each without its trailing comma."""
    return [line.rstrip(",") for line in LEDGER.read_text().splitlines()[1:-1]]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    LEDGER.write_text(ledger_text())
    print(f"wrote {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
