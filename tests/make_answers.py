"""Write ``tests/answers.json``, the ledger of answers that tier-1 recomputes.

Run from anywhere, after a change that moves an answer on purpose:

    python tests/make_answers.py

The ledger holds, one line each, so that a diff of the ledger reads as a diff
of answers:

- for every command line of ``perfbench/cli_cases.py`` (README, PROBES and
  ITEM1, in that order), then ``transfer-descent`` and ``regularize`` on each
  shape of ``DESCENT_COMMAND_SHAPES`` with ``--alpha`` 0 to 5, its exit code
  and the JSON document the CLI prints;
- for ``table`` at the anchor shape ``ANCHOR_TABLE`` (M = 531440), its exit
  code and the length and SHA-256 of the exact bytes ``cli.main`` prints;
- for every pair of the certify box (``CERTIFY_BOX``: b <= 40, r <= 30, b
  before r), the certificate of its least primitive prime as
  ``jsonio.certificate_to_json`` writes it (``b``, ``r``, ``ell`` and
  ``order_checks``), or null when the pair has none;
- for every level of selftest criterion 3 (``selftest._LINKING_LEVELS``),
  the number of ordered chains between its orbit representatives and a
  SHA-256 over each chain, in criterion 3's order: its source and target
  exponents and, for each step, ell and the members of the orbits before and
  after it;
- for every shape of ``selftest.tame_shape_sweep()`` whose base level has
  M = Q**n' - 1 at most ``DESCENT_MAX_M``, the number of its Frobenius orbits,
  the number of them whose ``transfer_via_descent`` raises a domain error, and
  a SHA-256 over each orbit's representative and the members of its descended
  orbit (the error's kind for a domain error), in ``enumerate_orbits`` order;
- for every selftest criterion, the ``detail`` that ``run_criterion`` reports;
- for every demo under ``demos/``, the text it prints.

The search memo is cleared before every CLI, certify and descent line, and the
memo of level splits before every chain line, so each computes its answer
afresh.  A usage error's message is argparse's text, whose wording belongs to
the Python release, so for exit code 1 the ledger keeps the document without
its message.

Each line is known by its key: the one of ``KINDS`` that it holds, with that
field's value.  ``ledger_keys`` lists the keys without computing any answer,
and the tests select each slice of the ledger by its kind.

The ledger is a regression lock, not an oracle: it records what the program
answers, and the independent checks stay the judges of what is right.  The
ledger tests apply two of them to the answers they recompute: the goldens of
``cli_cases.py`` (``cli_cases()``) to its 28 command lines, and, to every
certificate of the certify box, the ell of ``perfbench/certify_oracle.json``,
an exact round trip through ``jsonio`` and ``verify_certificate``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "answers.json"
CERTIFY_BOX = [(b, r) for b in range(2, 41) for r in range(2, 31)]
DESCENT_COMMAND_SHAPES = ("3,3,2,1,1,4", "3,3,1,1,2,1", "2,2,1,1,3,1", "5,5,1,1,3,1")
DESCENT_MAX_M = 20_000
ANCHOR_TABLE = "3,3,1,1,12,1"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
KINDS = ("argv", "table", "certify", "chains", "descent", "criterion", "demo")  # in ledger order


def cli_cases():
    """The module ``perfbench/cli_cases.py``, with its command lines and their goldens."""
    spec = importlib.util.spec_from_file_location("cli_cases", ROOT / "perfbench" / "cli_cases.py")
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    return cases


def command_lines() -> list[list[str]]:
    cases = cli_cases()
    descents = [[command, "--shape", shape, "--alpha", str(alpha)]
                for shape in DESCENT_COMMAND_SHAPES for command in ("transfer-descent", "regularize")
                for alpha in range(6)]
    return [case["argv"] for case in cases.README + cases.PROBES + cases.ITEM1] + descents


def descent_shapes() -> list:
    """The sweep shapes whose base level has M at most ``DESCENT_MAX_M``, in sweep order."""
    from tametransfer import level
    from tametransfer.selftest import tame_shape_sweep

    return [params for params in tame_shape_sweep() if level(params, params.n_prime).M <= DESCENT_MAX_M]


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    """Run one demo as a script against the source tree."""
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60)


def cli_entries() -> list[str]:
    """One ledger line for each of ``command_lines``."""
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


def table_entries() -> list[str]:
    """The one ledger line of the anchor ``table``."""
    from tametransfer.cli import main

    with contextlib.redirect_stdout(io.StringIO()) as out:
        exit_code = main(["table", "--shape", ANCHOR_TABLE])
    printed = out.getvalue().encode()
    return [json.dumps({"table": ANCHOR_TABLE, "exit": exit_code, "bytes": len(printed),
                        "sha256": hashlib.sha256(printed).hexdigest()}, sort_keys=True)]


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


def descent_entries() -> list[str]:
    """One ledger line for each of ``descent_shapes``."""
    from tametransfer import enumerate_orbits, level, transfer_via_descent
    from tametransfer.errors import DomainError
    from tametransfer.regularize import _smallest_primitive_prime

    entries = []
    for params in descent_shapes():
        _smallest_primitive_prime.cache_clear()
        digest, orbits, errors = hashlib.sha256(), 0, 0
        for orbit in enumerate_orbits(level(params, params.n_prime)):
            try:
                answer = list(transfer_via_descent(orbit.rep_char(), params).members)
            except DomainError as exc:
                answer, errors = type(exc).__name__, errors + 1
            digest.update(json.dumps([orbit.rep, answer]).encode() + b"\n")
            orbits += 1
        entries.append(json.dumps({"descent": list(params.as_tuple()), "orbits": orbits, "errors": errors,
                                   "sha256": digest.hexdigest()}, sort_keys=True))
    return entries


def criterion_entries() -> list[str]:
    """One ledger line for each selftest criterion."""
    from tametransfer.selftest import CRITERIA, run_criterion

    return [json.dumps({"criterion": c.name, "detail": run_criterion(c)["detail"]}, sort_keys=True) for c in CRITERIA]


def demo_entries() -> list[str]:
    """One ledger line for each demo."""
    return [json.dumps({"demo": demo.stem, "stdout": run_demo(demo).stdout}, sort_keys=True) for demo in DEMOS]


def ledger_text() -> str:
    """The ledger as it reads today: a JSON list with one entry a line."""
    entries = (cli_entries() + table_entries() + certify_entries() + chain_entries() + descent_entries()
               + criterion_entries() + demo_entries())
    return "[\n" + ",\n".join(entries) + "\n]\n"


def ledger_keys() -> list[tuple[str, object]]:
    """The key of every ledger line, in ledger order, computed without computing any answer."""
    from tametransfer.selftest import _LINKING_LEVELS, CRITERIA

    return ([("argv", argv) for argv in command_lines()]
            + [("table", ANCHOR_TABLE)]
            + [("certify", [b, r]) for b, r in CERTIFY_BOX]
            + [("chains", [Q, deg]) for Q, deg in _LINKING_LEVELS]
            + [("descent", list(params.as_tuple())) for params in descent_shapes()]
            + [("criterion", c.name) for c in CRITERIA]
            + [("demo", demo.stem) for demo in DEMOS])


def key_of(entry: str) -> tuple[str, object]:
    """The key of one ledger line."""
    document = json.loads(entry)
    (kind,) = [kind for kind in KINDS if kind in document]
    return kind, document[kind]


def ledger_entries(kind: str | None = None) -> list[str]:
    """The lines of the ledger as written, each without its trailing comma; with a kind, only its lines."""
    lines = [line.rstrip(",") for line in LEDGER.read_text().splitlines()[1:-1]]
    return lines if kind is None else [line for line in lines if key_of(line)[0] == kind]


def recorded(kind: str, key: object) -> dict:
    """The one ledger line with this key, as a document."""
    (entry,) = [entry for entry in ledger_entries(kind) if key_of(entry)[1] == key]
    return json.loads(entry)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    LEDGER.write_text(ledger_text())
    print(f"wrote {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
