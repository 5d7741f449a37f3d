"""Command lines of the ``cli`` workload and what each must print.

``expect`` maps a dotted path into the JSON document to its value.  The
values were checked by hand against their definitions, not copied from the
program's output:

* ``orbit --Q 2 --nprime 3 --a 1``: 1 -> 2 -> 4 -> 8 = 1 (mod 7).
* ``zsigmondy --b 2 --r 14``: 2**14 - 1 = 3 * 43 * 127, and 43 is the only
  factor that divides no earlier 2**i - 1.
* ``regularize ... --alpha 0``: beta = (2**14 - 1) / 43 = 381.
* ``transfer``: twisting by 4 in Z/8 sends the orbit {1, 3} to {5, 7}.
* ``regular-part --Q 5 --nprime 2 --a 1 --ell 3``: the idempotent that is 0
  mod 3 and 1 mod 8 is 9.
* the 547 lift of the README quick start, and the exceptions ``(2, 6)``.

The three ROADMAP item 1 inputs may either succeed with the smallest
primitive prime (found by a trial search over p = kr + 1 and, for 5**77 - 1,
by ``sympy.factorint``) or fail as a documented domain error; either way
they must print exactly one JSON document within the deadline.
"""

from __future__ import annotations

import json

SHAPE = ["--shape", "3,3,2,1,1,4"]

README = [
    {"argv": ["orbit", "--Q", "2", "--nprime", "3", "--a", "1"], "exit": (0,),
     "expect": {"payload.rep": "1", "payload.size": 3, "payload.members": ["1", "2", "4"], "payload.M": "7"}},
    {"argv": ["rectifier", "--p", "3", "--q", "3", "--eEF", "2", "--fEF", "1", "--m", "1", "--d", "4"], "exit": (0,),
     "expect": {"payload.y": 5, "payload.mu_exp": "4", "payload.nontrivial": True, "payload.M": "8"}},
    {"argv": ["chain", "--M", "24", "--from", "1", "--to", "5"], "exit": (0,),
     "expect": {"payload.from": "1", "payload.to": "5", "payload.primes": ["2", "3"],
                "payload.steps.0.before.members": ["1"], "payload.steps.1.after.members": ["5"]}},
    {"argv": ["partition", "--Q", "2", "--nprime", "3"], "exit": (0,),
     "expect": {"payload.blocks": [["0", "1", "3"]], "payload.block_count": 1}},
    {"argv": ["zsigmondy", "--b", "2", "--r", "14"], "exit": (0,),
     "expect": {"payload.ell": "43", "payload.r": 14}},
    {"argv": ["regularize", "--shape", "2,2,1,1,2,1", "--alpha", "0"], "exit": (0,),
     "expect": {"payload.a": 7, "payload.ell": "43", "payload.f": 1, "payload.beta.a": "381",
                "payload.beta.M": "16383", "payload.beta.level_deg": 14}},
    {"argv": ["transfer", *SHAPE, "--alpha", "1"], "exit": (0,),
     "expect": {"payload.mu_exp": "4", "payload.from.members": ["1", "3"], "payload.to.members": ["5", "7"]}},
    {"argv": ["transfer-descent", *SHAPE, "--alpha", "0"], "exit": (0,),
     "expect": {"payload.from.members": ["0"], "payload.to.members": ["4"], "payload.lift.ell": "547",
                "payload.lift.a": 7, "payload.agrees_with_rectifier": True}},
    {"argv": ["pair", *SHAPE, "--f", "1", "--beta", "1"], "exit": (0,),
     "expect": {"payload.orbit.members": ["4"], "payload.M_l": "2", "payload.round_trip_ok": True}},
    {"argv": ["pair-transfer", *SHAPE, "--f", "1", "--beta", "1"], "exit": (0,),
     "expect": {"payload.to.beta": "0", "payload.to.f": 1, "payload.mu_L": "1", "payload.mu_L_order": "2"}},
    {"argv": ["green", "--d", "2", "--u", "2", "--alpha0", "1", "--g", "1"], "exit": (0,),
     "expect": {"payload.modulus": "3", "payload.terms": [["1", -1], ["2", -1]]}},
    {"argv": ["table", *SHAPE], "exit": (0,),
     "expect": {"payload.mu_exp": "4",
                "payload.pairs.0.to.members": ["4"], "payload.pairs.1.to.members": ["5", "7"],
                "payload.pairs.2.to.members": ["2", "6"], "payload.pairs.3.to.members": ["0"],
                "payload.pairs.4.to.members": ["1", "3"]}},
    {"argv": ["tower", *SHAPE], "exit": (0,),
     "expect": {"payload.g": 2, "payload.n": 4, "payload.dprime": 2, "payload.mprime": 1,
                "payload.nprime": 2, "payload.Q": "3"}},
    {"argv": ["order", "--Q", "5", "--nprime", "2", "--a", "9"], "exit": (0,),
     "expect": {"payload.order": "8", "payload.M": "24"}},
    {"argv": ["regular-part", "--Q", "5", "--nprime", "2", "--a", "1", "--ell", "3"], "exit": (0,),
     "expect": {"payload.regular_part.a": "9", "payload.order": "8"}},
]

# documented error paths: exit 1 for usage errors, 2 for domain errors
PROBES = [
    {"argv": ["orbit", "--Q", "2"], "exit": (1,), "expect": {"error_kind": "UsageError"}},
    {"argv": ["frobnicate"], "exit": (1,), "expect": {"error_kind": "UsageError"}},
    {"argv": ["tower", "--shape", "3,3,2"], "exit": (1,), "expect": {"error_kind": "UsageError"}},
    {"argv": ["orbit", "--Q", "x", "--nprime", "3", "--a", "1"], "exit": (1,), "expect": {"error_kind": "UsageError"}},
    {"argv": ["orbit", "--Q", "1", "--nprime", "3", "--a", "1"], "exit": (2,), "expect": {"error_kind": "OutOfRange"}},
    {"argv": ["tower", "--shape", "4,4,1,1,1,1"], "exit": (2,), "expect": {"error_kind": "NotPrime"}},
    {"argv": ["partition", "--Q", "2", "--nprime", "30"], "exit": (2,), "expect": {"error_kind": "EnumerationTooLarge"}},
    {"argv": ["green", "--d", "6", "--u", "2", "--alpha0", "1", "--g", "1"], "exit": (2,),
     "expect": {"error_kind": "NotPrimePower"}},
    {"argv": ["zsigmondy", "--b", "2", "--r", "6"], "exit": (2,), "expect": {"error_kind": "ZsigmondyException"}},
    {"argv": ["rectifier", "--shape", "2,2,2,1,2,1"], "exit": (2,), "expect": {"error_kind": "NotEssentiallyTame"}},
]

# ROADMAP item 1: each must print one JSON document within the deadline
ITEM1 = [
    {"argv": ["zsigmondy", "--b", "3", "--r", "743"], "exit": (0, 2), "expect": {"payload.ell": "1487"}},
    {"argv": ["zsigmondy", "--b", "10", "--r", "67"], "exit": (0, 2), "expect": {"payload.ell": "493121"}},
    {"argv": ["regularize", "--shape", "5,5,1,1,11,1", "--alpha", "0"], "exit": (0, 2),
     "expect": {"payload.ell": "527093491", "payload.a": 7}},
]


def lookup(doc, path: str):
    """Follow a dotted path; integer parts index lists."""
    node = doc
    for part in path.split("."):
        node = node[int(part)] if isinstance(node, list) else node[part]
    return node


def check_output(case: dict, exit_code: int, stdout: str) -> tuple[str, str] | None:
    """None when the run meets the case; else ("contract", why) when it breaks
    the one-document, documented-exit-code contract, or ("answer", why) when
    the document holds a wrong value."""
    if exit_code not in case["exit"]:
        return "contract", f"exit code {exit_code}, expected one of {case['exit']}"
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) != 1:
        return "contract", f"{len(lines)} lines on stdout, expected one JSON document"
    try:
        doc = json.loads(lines[0])
    except ValueError as exc:
        return "contract", f"stdout is not JSON: {exc}"
    if doc.get("status") != ("ok" if exit_code == 0 else "error"):
        return "contract", f"status {doc.get('status')!r} does not match exit code {exit_code}"
    if exit_code == 0 or case["exit"] == (exit_code,):
        for path, want in case["expect"].items():
            try:
                got = lookup(doc, path)
            except (KeyError, IndexError, TypeError):
                return "answer", f"{path} missing"
            if got != want:
                return "answer", f"{path} = {got!r}, expected {want!r}"
    return None
