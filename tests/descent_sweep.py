"""Replay the descent route on every orbit of every small shape of the selftest sweep.

Run from anywhere:

    python tests/descent_sweep.py

For each shape of ``selftest.tame_shape_sweep()`` whose base level has M = Q**n' - 1
at most ``MAX_M``, the script calls ``transfer_via_descent`` on the representative of
every Frobenius orbit of that level.  Each call regularizes, twists at the blow-up and
descends, and raises a domain error when the descent does not land on the rectifier's
twist.  The script prints one line per domain error, then the number of shapes and
descents, and exits 1 when there was an error, 0 otherwise.  The acceptance gate's
criterion 6 replays one shape per (Q, n', parity of y) class with M <= 3000; this
covers every shape up to M = 20000, on Q = 2, 3, 4, 5, 9 and 25.

It also checks the answers, not only the absence of errors: one SHA-256 is taken over
``repr((params.as_tuple(), orbit.rep, descended.members))`` of every descent, in sweep
order, and the script exits 1 unless it equals the pinned ``DIGEST``.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

MAX_M = 20_000
DIGEST = "ff700812b0d7d9492bfd258ff790f2b1240ec076587f0d9814414c04e44b6a10"


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from tametransfer import enumerate_orbits, level, transfer_via_descent
    from tametransfer.errors import DomainError
    from tametransfer.selftest import tame_shape_sweep

    shapes = descents = errors = 0
    bases = set()
    digest = hashlib.sha256()
    for params in tame_shape_sweep():
        lvl = level(params, params.n_prime)
        if lvl.M > MAX_M:
            continue
        shapes += 1
        bases.add(params.Q)
        for orbit in enumerate_orbits(lvl):
            descents += 1
            try:
                descended = transfer_via_descent(orbit.rep_char(), params)
            except DomainError as exc:
                errors += 1
                print(f"{params.as_tuple()}, orbit {orbit.rep}: {type(exc).__name__}: {exc}")
                continue
            digest.update(repr((params.as_tuple(), orbit.rep, descended.members)).encode())
    print(f"{shapes} shapes with M <= {MAX_M} over Q in {sorted(bases)}: {descents} descents, {errors} domain errors")
    mismatch = digest.hexdigest() != DIGEST
    if mismatch:
        print(f"answers differ: digest {digest.hexdigest()}, pinned {DIGEST}")
    return 1 if errors or mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
