"""Write ``tests/answers.json``, the ledger of answers that ``tests/test_answers.py`` recomputes.

Run from anywhere, after a change that moves an answer on purpose:

    python tests/make_answers.py

The ledger holds, for every command line of ``perfbench/cli_cases.py`` (README,
PROBES and ITEM1, in that order), its exit code and the JSON document the CLI
prints, one line each, so that a diff of the ledger reads as a diff of answers.
The search memo is cleared first, so every line computes its answer afresh.
A usage error's message is argparse's text: its usage line wraps at the
terminal width (``COLUMNS``) and its wording belongs to the Python release, so
for exit code 1 the ledger keeps the document without its message.

The ledger is a regression lock, not an oracle: it records what the program
answers, and the goldens of ``cli_cases.py`` and the other independent checks
stay the judges of what is right.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "tests" / "answers.json"


def command_lines() -> list[list[str]]:
    spec = importlib.util.spec_from_file_location("cli_cases", ROOT / "perfbench" / "cli_cases.py")
    cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    return [case["argv"] for case in cases.README + cases.PROBES + cases.ITEM1]


def ledger_text() -> str:
    """The ledger as it reads today: a JSON list with one entry a line."""
    from tametransfer.cli import run
    from tametransfer.regularize import _smallest_primitive_prime

    _smallest_primitive_prime.cache_clear()
    entries = []
    for argv in command_lines():
        result = run(argv)
        document = result.document()
        if result.exit_code == 1:
            del document["message"]
        entries.append(json.dumps({"argv": argv, "exit": result.exit_code, "document": document}, sort_keys=True))
    return "[\n" + ",\n".join(entries) + "\n]\n"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    LEDGER.write_text(ledger_text())
    print(f"wrote {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
