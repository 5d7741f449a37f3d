"""Regenerate ``certify_oracle.json``: the smallest primitive prime divisor of
b**r - 1 for every pair of the certify box, found with sympy alone.

The table is the independent answer key of the ``certify`` workload.  It is
built without importing ``tametransfer``: Phi_r(b) comes from
``sympy.cyclotomic_poly``, its prime factors from ``sympy.factorint``, and a
prime p is primitive when the multiplicative order of b mod p is r.

Run from the repository root (takes a few minutes on one core):

    python3 perfbench/make_certify_oracle.py
"""

from __future__ import annotations

import json
import os
import sys

from sympy import cyclotomic_poly, factorint
from sympy.ntheory import n_order

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import CERTIFY_BOX  # noqa: E402

ORACLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "certify_oracle.json")


def smallest_primitive_prime(b: int, r: int) -> int | None:
    phi = int(cyclotomic_poly(r, b))
    primitive = [p for p in factorint(phi) if n_order(b, p) == r]
    return min(primitive) if primitive else None


def main() -> None:
    (b_lo, b_hi), (r_lo, r_hi) = CERTIFY_BOX
    table = {}
    for b in range(b_lo, b_hi + 1):
        for r in range(r_lo, r_hi + 1):
            ell = smallest_primitive_prime(b, r)
            table[f"{b},{r}"] = None if ell is None else str(ell)
        print(f"b={b} done", file=sys.stderr, flush=True)
    with open(ORACLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
