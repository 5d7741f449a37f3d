"""List every line of ``src/`` that the tests never run, and fail on any that is not allowed.

Run from anywhere, with the test dependencies installed:

    python tests/untested_lines.py

The script runs pytest over ``tests/`` in this process under a ``sys.settrace``
line tracer, then prints each line of ``src/tametransfer`` that holds code and
never ran.  It exits 1 when such a line is not in ``ALLOWED``, or when an entry
of ``ALLOWED`` names no unrun line (the line now runs, or is gone: delete the
entry), and 0 otherwise.

The tracer slows the tests about threefold, so a selftest criterion can overrun
its wall-time budget here.  The test verdicts are therefore not judged: only the
lines are.  The plain test run judges every test.  Hypothesis runs with a fixed
seed, so the lines it reaches do not change from run to run.  An entry is keyed
by file, enclosing function and line text, not line number, so an edit elsewhere
in the file does not move it; the line numbers in the report come from the Python that ran it,
and which lines hold code can differ between Python versions.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tametransfer"

# (file under src/tametransfer, enclosing function, stripped line text) -> why no test runs it
ALLOWED = {
    ("__main__.py", "<module>", "import sys"):
        "the module entry point; the CLI tests run `python -m tametransfer` only as a subprocess, unseen here",
    ("__main__.py", "<module>", "from .cli import main"):
        "the module entry point, as above",
    ("__main__.py", "<module>", "sys.exit(main())"):
        "the module entry point, as above",
    ("cli.py", "<module>", "sys.exit(main())"):
        "the script entry point under `if __name__ == \"__main__\"`, run only as a subprocess",
    ("numth.py", "divisors", "ds = [1]"):
        "no library code calls divisors; the benchmark's tracer still wraps it by name",
    ("numth.py", "divisors", "for p, e in factorize(n).items():"):
        "as above",
    ("numth.py", "divisors", "ds = [d * p**i for d in ds for i in range(e + 1)]"):
        "as above",
    ("numth.py", "divisors", "return sorted(ds)"):
        "as above",
}


def code_lines(path: Path) -> dict[int, tuple[str, str]]:
    """Line number -> (outermost enclosing function, stripped text) of each line of ``path``
    that starts an instruction; a line outside every function is in "<module>"."""
    text = path.read_text().splitlines()
    lines: dict[int, tuple[str, str]] = {}
    todo = [compile("\n".join(text) + "\n", str(path), "exec")]
    while todo:  # a code object is taken before the ones nested in it
        code = todo.pop()
        for _, _, n in code.co_lines():
            if n and n not in lines:
                lines[n] = (code.co_name, text[n - 1].strip())
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return dict(sorted(lines.items()))


def run_traced(files: set[str]) -> set[tuple[str, int]]:
    """Run the tests under a tracer and return the (file, line) pairs of ``files`` that ran."""
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    import pytest

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                     "--hypothesis-seed=0", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return ran


def main() -> int:
    if "tametransfer" in sys.modules:
        raise SystemExit("tametransfer was imported before the tracer was installed")
    sys.path.insert(0, str(ROOT / "src"))
    sources = {str(path): code_lines(path) for path in sorted(PACKAGE.glob("*.py"))}
    ran = run_traced(set(sources))
    unrun = [(Path(f).name, n, *key) for f, lines in sources.items() for n, key in lines.items() if (f, n) not in ran]
    print(f"\n{len(unrun)} lines of src/tametransfer never ran:")
    for name, n, function, text in unrun:
        print(f"  {'allowed' if (name, function, text) in ALLOWED else 'NOT ALLOWED'}  {name}:{n}  {function}: {text}")
    stale = sorted(ALLOWED.keys() - {(name, function, text) for name, _, function, text in unrun})
    for key in stale:
        print(f"  STALE  {key}: no unrun line matches it; delete its entry")
    return 1 if stale or any((name, function, text) not in ALLOWED for name, _, function, text in unrun) else 0

if __name__ == "__main__":
    sys.exit(main())
