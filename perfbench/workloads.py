"""Seeded inputs, operations and independent checks of the four workloads.

Every workload is a closed loop with one caller.  An operation (``Op``) is
timed on its own; its check runs right after it, outside the timed region,
against arithmetic written here from the definitions (or, for ``certify``,
against a table made with sympy), never against the library's own helpers.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import resource
import subprocess
import sys
import types
from array import array
from dataclasses import dataclass
from typing import Callable

from cli_cases import ITEM1, PROBES, README, check_output

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# certify: the selftest box 2..30 x 2..24, extended
CERTIFY_BOX = ((2, 40), (2, 30))
# Nine pairs in ten finish within 3 ms; 12 stall in Brent rho for seconds or
# more.  A pair's deadline is a work budget: CERTIFY_RHO_BATCHES batches of
# 128 rho steps (about 1 s on an Intel Xeon core).  The pairs that pass need
# at most 4924 batches (0.6 s), the 12 that stall at least 8883.  Counted in
# work, not in wall time, the same pairs fail in every run.  The wall-time
# deadline only guards against a hang outside rho.
CERTIFY_RHO_BATCHES = 6500
CERTIFY_DEADLINE_S = 10.0
CERTIFY_TRACED_PAIRS = 150

# lattice: M = Q**n' - 1 in this range, and the two ROADMAP anchors
LATTICE_M_RANGE = (6_000, 300_000)
LATTICE_MAX_ORBITS = 5_000  # the anchor, not the seeded levels, carries most of the orbits
LATTICE_DEGREE_GROUPS = ((2,), (3,), (4, 5, 6), tuple(range(7, 19)))
LATTICE_ANCHOR = (3, 3, 1, 1, 12, 1)  # partition --Q 3 --nprime 12, table --shape 3,3,1,1,12,1
# Level-wide queries (enumerate, table, partition) run on the anchor and one
# seeded level per degree group.  Point queries (a link chain and a trace
# value) run on more levels, twelve per group, and outnumber the level-wide
# queries 25 to 1, so that p50 and p90 fall among point queries, averaged
# over many levels, and not on the boundary between the two kinds.  Being
# cheap, the point queries run again after every level-wide query, so that
# their best times come from many moments of the run.
LATTICE_POINT_LEVELS_PER_GROUP = 12
LATTICE_POINTS_PER_LEVEL = 8
LATTICE_LEVEL_DEADLINE_S = 60.0
LATTICE_POINT_DEADLINE_S = 1.0

# lift: one shape with a trivial and one with a nontrivial rectifier per n'
# (n' = 8 has no nontrivial one with Q <= 30)
LIFT_SHAPES = (
    (2, 2, 1, 1, 3, 1), (3, 3, 1, 2, 3, 2),
    (3, 3, 1, 1, 4, 1), (3, 3, 2, 1, 1, 8),
    (2, 4, 1, 1, 5, 1), (3, 3, 1, 2, 5, 2),
    (5, 5, 1, 1, 6, 1), (3, 3, 2, 1, 3, 4),
    (7, 7, 1, 1, 7, 1), (3, 3, 1, 2, 7, 2),
    (2, 2, 1, 1, 8, 1), (3, 3, 1, 1, 8, 1),
    (2, 2, 1, 1, 9, 1), (3, 3, 1, 2, 9, 2),
)
LIFT_CHARS_PER_SHAPE = 24
LIFT_DEADLINE_S = 1.0

# The README commands take 0.1-0.3 s.  Of the ROADMAP item 1 inputs,
# (10, 67) stalls for minutes and the regularize input reaches its domain
# error only after 2.7-3.1 s, so both miss this deadline in every run.
CLI_DEADLINE_S = 1.0


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the result is right, else why not
    units: int = 1
    deadline_s: float | None = 1.0  # None: the op bounds itself (subprocess timeout)
    label: str = ""  # the inputs, for failure reports
    prepare: Callable[[], None] | None = None  # runs before the timed region
    long: bool = False  # calibrated against the reference work around it, not the run's best


class CommandTimeout(Exception):
    pass


class DeadlineExceeded(BaseException):
    """Raised into an operation that overruns its deadline or work budget.

    A BaseException, so that no ``except Exception`` in the library can
    swallow it.
    """


class OverBudget(DeadlineExceeded):
    """Raised into an operation that has used up its work budget."""


class Broken(Exception):
    """The operation failed without giving an answer to check (for example a
    CLI run that prints no JSON document); it counts as failed, not wrong."""


# ----------------------------------------------------------------------
# arithmetic written from the definitions, independent of tametransfer

def own_orbit(a: int, Q: int, M: int) -> list[int]:
    members = [a]
    x = a * Q % M
    while x != a:
        members.append(x)
        x = x * Q % M
    return sorted(members)


def small_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, math.isqrt(n) + 1))


def probable_prime(n: int) -> bool:
    """Strong probable-prime test to the first 20 prime bases."""
    bases = [p for p in range(2, 72) if small_prime(p)]
    if n < 2:
        return False
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_divisors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + ([n] if n > 1 else [])


def prime_power_base(n: int) -> int | None:
    ps = prime_divisors(n) if n > 1 else []
    return ps[0] if len(ps) == 1 else None


def orbit_count(Q: int, n: int, M: int) -> int:
    """Burnside: the Frobenius power Q**i fixes gcd(Q**i - 1, M) exponents."""
    return sum(math.gcd(Q**i - 1, M) for i in range(n)) // n


def rectifier_exponent(shape: tuple[int, ...], M: int) -> int:
    """The twist exponent from the parity y of the shape's raw integers."""
    p, _q, e, f, m, d = shape
    g, n = e * f, m * d
    dp, mp = d // math.gcd(d, g), m * math.gcd(d, g) // g
    w = n // e
    v = d // math.gcd(d, w)
    u = (n // w) // v
    y = m * (d - 1) + mp * (dp - 1) + u * (v - 1)
    return M // 2 if p != 2 and y % 2 else 0


class LevelTruth:
    """Canonical representatives and orbit sizes by a direct walk, with the
    representative count cross-checked against Burnside's formula."""

    def __init__(self, Q: int, n: int) -> None:
        M = Q**n - 1
        rep_of = array("i", [-1]) * M
        reps, sizes = array("i"), array("i")
        for a in range(M):
            if rep_of[a] >= 0:
                continue
            x, size = a, 0
            while True:
                rep_of[x] = a
                size += 1
                x = x * Q % M
                if x == a:
                    break
            reps.append(a)
            sizes.append(size)
        if len(reps) != orbit_count(Q, n, M):
            raise RuntimeError(f"orbit walk disagrees with Burnside at Q={Q}, n'={n}")
        self.M, self.rep_of, self.reps, self.sizes = M, rep_of, reps, sizes


# ----------------------------------------------------------------------
# workloads

class Workload:
    """A seeded input set and the operations made from it.

    With ``best_of_repeats`` the run repeats the operations of ``pass_ops``
    and counts each with its best time; otherwise it runs whole passes,
    each execution a sample, after the ``prologue`` operations.
    ``traced_ops`` is the fixed list that a traced run replays.
    """

    name = ""
    best_of_repeats = True

    def __init__(self, tt, seed: int) -> None:
        self.tt = tt
        self.rng = random.Random(seed)

    def prologue(self) -> list[Op]:
        return []

    def pass_ops(self) -> list[Op]:
        raise NotImplementedError

    def traced_ops(self) -> list[Op]:
        return self.pass_ops()

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the program while it did this workload."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        """Stop the processes the workload started."""


class Lattice(Workload):
    """Orbit enumeration, linking, transfer tables, chains and traces per level."""

    name = "lattice"

    def __init__(self, tt, seed: int) -> None:
        super().__init__(tt, seed)
        candidates: dict[tuple[int, ...], list[tuple[int, int]]] = {g: [] for g in LATTICE_DEGREE_GROUPS}
        lo, hi = LATTICE_M_RANGE
        for Q in range(2, math.isqrt(hi) + 2):
            if prime_power_base(Q) is None:
                continue
            for group in LATTICE_DEGREE_GROUPS:
                candidates[group] += [(Q, n) for n in group if lo <= Q**n - 1 <= hi]
        shapes = [LATTICE_ANCHOR]
        for c in candidates.values():
            small = [(Q, n) for Q, n in c if orbit_count(Q, n, Q**n - 1) <= LATTICE_MAX_ORBITS]
            shapes.append(self._shape_for(*self.rng.choice(small)))
        self.levels = []
        for shape in shapes:
            params = tt.derive_tower(*shape)
            self.levels.append((shape, params, tt.level(params, params.n_prime)))
        self.points = []
        for c in candidates.values():
            for Q, n in self.rng.sample(sorted(c), LATTICE_POINT_LEVELS_PER_GROUP):
                lvl, M = tt.field_level(Q, n), Q**n - 1
                self.points += [(lvl, self.rng.randrange(M), self.rng.randrange(M),
                                 self._regular(Q, n, M), self._regular(Q, n, M))
                                for _ in range(LATTICE_POINTS_PER_LEVEL)]
        self.rng.shuffle(self.points)
        self._truth: dict[tuple[int, int], LevelTruth] = {}
        self._orbits = {}

    def _shape_for(self, Q: int, n: int) -> tuple[int, ...]:
        """A shape at level (Q, n'), with a nontrivial rectifier where one exists."""
        p = prime_power_base(Q)
        options = [(p, Q, 1, 1, n, 1)]
        for e in (2, 4):
            for d in (2, 4, 8):
                if (n * e) % d or math.gcd(e, p) != 1:
                    continue
                m = n * e // d
                if (m * math.gcd(d, e)) % e:
                    continue
                options.append((p, Q, e, 1, m, d))
        nontrivial = [s for s in options if rectifier_exponent(s, Q**n - 1)]
        return (nontrivial or options)[0]

    def _regular(self, Q: int, n: int, M: int) -> int:
        while True:
            a = self.rng.randrange(1, M)
            if len(own_orbit(a, Q, M)) == n:
                return a

    def truth(self, lvl) -> LevelTruth:
        key = (lvl.Q, lvl.deg)
        if key not in self._truth:
            self._truth[key] = LevelTruth(lvl.Q, lvl.deg)
        return self._truth[key]

    def pass_ops(self) -> list[Op]:
        # A level-wide query allocates hundreds of thousands of objects; it
        # starts after a full collection, so that the collector's work inside
        # it depends on the query alone, not on what ran before it.
        ops = []
        for shape, params, lvl in self.levels:
            units = orbit_count(lvl.Q, lvl.deg, lvl.M)
            ops += [
                Op("enumerate", self._enumerate(lvl), self._check_enumerate(lvl), units,
                   LATTICE_LEVEL_DEADLINE_S, f"Q={lvl.Q} n'={lvl.deg}", gc.collect, long=True),
                Op("table", self._table(params, lvl), self._check_table(shape, lvl), units,
                   LATTICE_LEVEL_DEADLINE_S, f"shape={shape}", gc.collect, long=True),
                Op("partition", lambda lvl=lvl: self.tt.linked_partition(lvl), self._check_partition(lvl), units,
                   LATTICE_LEVEL_DEADLINE_S, f"Q={lvl.Q} n'={lvl.deg}", gc.collect, long=True),
            ]
        points = [Op("point", self._point(lvl, *point), self._check_point(lvl, *point), 0,
                     LATTICE_POINT_DEADLINE_S, f"Q={lvl.Q} n'={lvl.deg} point={point}")
                  for lvl, *point in self.points]
        return [op for level_op in ops for op in [level_op, *points]]

    def traced_ops(self) -> list[Op]:
        return list({id(op): op for op in self.pass_ops()}.values())

    def _enumerate(self, lvl):
        def run():
            orbits = self.tt.enumerate_orbits(lvl)
            self._orbits[lvl] = orbits  # the table operation twists these
            return orbits
        return run

    def _table(self, params, lvl):
        def run():
            spec = self.tt.rectifier(params)
            orbits = self._orbits.pop(lvl)
            return spec, orbits, [self.tt.apply_transfer(o, spec) for o in orbits]
        return run

    def _point(self, lvl, a, b, alpha0, g):
        """A link chain between two characters, its replay, and one trace value."""
        tt = self.tt

        def run():
            chain = tt.build_link_chain(tt.char(lvl, a), tt.char(lvl, b))
            return chain, tt.verify_link_chain(chain), tt.green_trace(tt.char(lvl, alpha0), g, lvl.deg)
        return run

    @classmethod
    def _check_point(cls, lvl, a, b, alpha0, g):
        check_chain, check_trace = cls._check_chain(lvl, a, b), cls._check_trace(lvl, alpha0, g)

        def check(result):
            chain, verified, trace = result
            return check_chain((chain, verified)) or check_trace(trace)
        return check

    def _check_enumerate(self, lvl):
        def check(orbits):
            t = self.truth(lvl)
            if len(orbits) != len(t.reps):
                return f"{len(orbits)} orbits, expected {len(t.reps)}"
            for o, rep, size in zip(orbits, t.reps, t.sizes):
                if o.rep != rep or o.size != size or o.members[0] != rep or len(o.members) != size:
                    return f"orbit of {rep} wrong"
            return None
        return check

    def _check_table(self, shape, lvl):
        def check(result):
            spec, orbits, images = result
            t = self.truth(lvl)
            mu = rectifier_exponent(shape, t.M)
            if spec.mu.a != mu:
                return f"twist exponent {spec.mu.a}, expected {mu}"
            for o, img in zip(orbits, images):
                if img.size != o.size:
                    return f"transfer changed the size of the orbit of {o.rep}"
                if img.rep != t.rep_of[(o.rep + mu) % t.M]:
                    return f"orbit of {o.rep} sent to {img.rep}"
            return None if len(images) == len(t.reps) else "table misses orbits"
        return check

    def _check_partition(self, lvl):
        def check(blocks):
            t = self.truth(lvl)
            if len(blocks) != 1:
                return f"{len(blocks)} blocks, expected one"
            return None if blocks[0] == tuple(t.reps) else "the block does not cover every representative"
        return check

    @staticmethod
    def _check_chain(lvl, a, b):
        M = lvl.M

        def check(result):
            chain, verified = result
            if not verified:
                return "verify_link_chain rejected the chain"
            if chain.source.a != a or chain.target.a != b:
                return "chain endpoints differ from the request"
            # a step for each prime whose component of the quotient b - a is nonzero
            xi, want = (b - a) % M, []
            for ell in prime_divisors(M):
                part = ell
                while M % (part * ell) == 0:
                    part *= ell
                if xi % part:
                    want.append(ell)
            if list(chain.primes) != want:
                return f"chain primes {chain.primes}, expected {want}"
            steps = chain.steps
            if steps and (a not in steps[0].before.members or b not in steps[-1].after.members):
                return "chain does not start at the source or end at the target"
            if any(s.after != t.before for s, t in zip(steps, steps[1:])):
                return "consecutive steps do not meet"
            return None
        return check

    @staticmethod
    def _check_trace(lvl, a, g):
        Q, M, u = lvl.Q, lvl.M, lvl.deg
        sign = 1 if u % 2 else -1

        def check(trace):
            acc: dict[int, int] = {}
            for i in range(u):
                e = a * pow(Q, i, M) * g % M
                acc[e] = acc.get(e, 0) + sign
            want = tuple(sorted((e, c) for e, c in acc.items() if c))
            if trace.modulus != M or tuple(trace.coeffs) != want:
                return "trace sum differs from the direct orbit sum"
            return None
        return check


class Lift(Workload):
    """Regularization, descent and the pair round trip with a warm cache."""

    name = "lift"

    def __init__(self, tt, seed: int) -> None:
        super().__init__(tt, seed)
        self.inputs = []
        for shape in LIFT_SHAPES:
            params = tt.derive_tower(*shape)
            lvl = tt.level(params, params.n_prime)
            for _ in range(LIFT_CHARS_PER_SHAPE):
                self.inputs.append((shape, params, lvl, self.rng.randrange(lvl.M)))
        self.rng.shuffle(self.inputs)
        # warm the cyclotomic cache as a library session would have it
        for _shape, params, lvl, a in self.inputs:
            tt.regularize(tt.char(lvl, a), params)

    def pass_ops(self) -> list[Op]:
        return [Op("lift", self._lift(params, lvl, a), self._check(shape, lvl, a), 1, LIFT_DEADLINE_S,
                   f"shape={shape} alpha={a}") for shape, params, lvl, a in self.inputs]

    def _lift(self, params, lvl, a):
        tt = self.tt

        def run():
            alpha = tt.char(lvl, a)
            lift = tt.regularize(alpha, params)
            certified = tt.verify_certificate(lift.certificate)
            descended = tt.transfer_via_descent(alpha, params)
            pair = tt.orbit_to_pair(tt.orbit_of(alpha), params)
            back = tt.pair_to_orbit(pair, params)
            rebuilt = tt.tame_pair(params, pair.f, pair.beta.a)
            moved = tt.transfer_pair(pair, params)
            return lift, certified, descended, pair, back, rebuilt, moved
        return run

    @staticmethod
    def _check(shape, lvl, a):
        Q, M, n = lvl.Q, lvl.M, lvl.deg

        def check(result):
            lift, certified, descended, pair, back, rebuilt, moved = result
            source = own_orbit(a, Q, M)
            f = len(source)
            mu = rectifier_exponent(shape, M)
            image = own_orbit((a + mu) % M, Q, M)
            if list(descended.members) != image:
                return "descent disagrees with the rectifier twist"
            # the lift: an odd blow-up, a primitive prime of order r, a fully regular beta
            blow, ell = lift.a, lift.ell
            b, r = Q**f, blow * n // f
            if blow % 2 == 0 or blow < 7 or blow * n <= 6 * f:
                return f"blow-up factor {blow} out of contract"
            if not probable_prime(ell) or pow(b, r, ell) != 1:
                return f"{ell} is not a prime divisor of b**r - 1"
            if any(pow(b, r // q, ell) == 1 for q in prime_divisors(r)):
                return f"{ell} is not primitive for ({b}, {r})"
            top_M = Q ** (blow * n) - 1
            if lift.beta.level.M != top_M or len(own_orbit(lift.beta.a, Q, top_M)) != blow * n:
                return "lifted character is not fully regular"
            if lift.alpha_star.a != a * (top_M // M) % top_M:
                return "inflated character is wrong"
            order = top_M // math.gcd((lift.beta.a - lift.alpha_star.a) % top_M, top_M)
            while order % ell == 0:
                order //= ell
            if order != 1:
                return "twist to the lift is not of ell-power order"
            cert = lift.certificate
            if not certified or (cert.b, cert.r, cert.ell) != (b, r, ell):
                return "certificate does not verify"
            # the pair round trip and the transferred pair
            ratio = M // (Q**f - 1)
            if pair.f != f or pair.beta.a * ratio != source[0] or list(back.members) != source:
                return "pair round trip lost the orbit"
            if rebuilt != pair:
                return "tame_pair does not rebuild the pair"
            if moved.pair.f != f or moved.pair.beta.a * ratio != image[0]:
                return "transferred pair is not the twisted orbit"
            if 2 * moved.mu_l.a % (Q**f - 1):
                return "pair correction is not of order dividing two"
            return None
        return check


def reset_caches() -> None:
    """Empty every module-level cache of the library, as in a fresh process."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "tametransfer" or name.startswith("tametransfer."))]
    for module in modules:
        for name, value in vars(module).items():
            if "CACHE" in name.upper() and hasattr(value, "clear"):
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class RhoBudget:
    """A work budget for Brent rho, counted in the batches between its gcds.

    ``numth._brent_rho`` takes one ``math.gcd`` per batch of up to 128 steps.
    While installed, the library's ``_brent_rho`` is replaced by a copy of
    itself whose ``math`` counts those calls and raises OverBudget past the
    budget; ``arm`` starts a fresh budget.  The count depends on the
    numbers factored alone, so the cut falls on the same operations in
    every run.  Without a ``_brent_rho`` there is nothing to count, and only
    the wall-time deadline applies.
    """

    def __init__(self, numth, batches: int) -> None:
        self.numth, self.batches, self.left = numth, batches, None
        self.original = getattr(numth, "_brent_rho", None)
        if self.original is None:
            return
        counting = types.ModuleType("math")
        counting.__dict__.update(vars(math))
        counting.gcd = self._gcd
        rho = self.original
        glob = dict(rho.__globals__, math=counting)
        numth._brent_rho = types.FunctionType(rho.__code__, glob, rho.__name__, rho.__defaults__, rho.__closure__)

    def _gcd(self, *args):
        if self.left is not None:
            self.left -= 1
            if self.left < 0:
                raise OverBudget()
        return math.gcd(*args)

    def arm(self) -> None:
        self.left = self.batches

    def close(self) -> None:
        if self.original is not None:
            self.numth._brent_rho = self.original


class Certify(Workload):
    """Primitive prime search and certificate check on the extended box, each
    pair with empty caches, as in a fresh process."""

    name = "certify"

    def __init__(self, tt, seed: int) -> None:
        super().__init__(tt, seed)
        with open(os.path.join(HERE, "certify_oracle.json"), encoding="utf-8") as fh:
            self.oracle = {tuple(map(int, k.split(","))): (None if v is None else int(v))
                           for k, v in json.load(fh).items()}
        (b_lo, b_hi), (r_lo, r_hi) = CERTIFY_BOX
        self.box = [(b, r) for b in range(b_lo, b_hi + 1) for r in range(r_lo, r_hi + 1)]
        if set(self.box) != set(self.oracle):
            raise RuntimeError("certify_oracle.json does not cover the certify box")
        self.rng.shuffle(self.box)
        self.budget = RhoBudget(sys.modules["tametransfer.numth"], CERTIFY_RHO_BATCHES)

    def close(self) -> None:
        self.budget.close()

    def _prepare(self) -> None:
        reset_caches()
        self.budget.arm()

    def pass_ops(self) -> list[Op]:
        return [Op("certify", self._certify(b, r), self._check(b, r), 1, CERTIFY_DEADLINE_S, f"b={b} r={r}",
                   self._prepare) for b, r in self.box]

    def traced_ops(self) -> list[Op]:
        return self.pass_ops()[:CERTIFY_TRACED_PAIRS]

    def _certify(self, b, r):
        def run():
            hit = self.tt.zsigmondy_prime(b, r)
            return hit, (None if hit is None else self.tt.verify_certificate(hit[1]))
        return run

    def _check(self, b, r):
        want = self.oracle[(b, r)]

        def check(result):
            hit, verified = result
            got = None if hit is None else hit[0]
            if got != want:
                return f"({b}, {r}): smallest primitive prime {got}, oracle says {want}"
            if hit is not None and not verified:
                return f"({b}, {r}): certificate does not verify"
            return None
        return check


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Spawner:
    """``python -m tametransfer`` commands, run one at a time by
    ``spawner.py``, which reports each command's own peak memory."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, "-I", "-S", os.path.join(HERE, "spawner.py")], cwd=ROOT,
                                     env=subprocess_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.peak_kb = 0

    def run(self, argv: list[str], timeout_s: float) -> tuple[int, str]:
        """Exit code and stdout of one command; it is killed and reaped on timeout."""
        self.proc.stdin.write(json.dumps([timeout_s, sys.executable, "-m", "tametransfer", *argv]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawner.py ended with exit code {self.proc.wait()}")
        reply = json.loads(reply)
        self.peak_kb = max(self.peak_kb, reply["maxrss_kb"])
        if reply["exit"] is None:
            raise CommandTimeout(f"no answer within {timeout_s} s")
        return reply["exit"], reply["stdout"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Cli(Workload):
    """Every README command, the error probes and the ROADMAP item 1 inputs,
    each as a fresh ``python -m tametransfer`` process."""

    name = "cli"
    best_of_repeats = False

    def __init__(self, tt, seed: int) -> None:
        super().__init__(tt, seed)
        self.cycle = README + PROBES
        self.spawner: Spawner | None = None  # started with the first command

    def peak_rss_mb(self) -> float:
        """Largest peak resident memory of one command process."""
        return self.spawner.peak_kb / 1024.0

    def close(self) -> None:
        if self.spawner:
            self.spawner.close()

    def _command(self, argv: list[str]) -> tuple[int, str]:
        if self.spawner is None:
            self.spawner = Spawner()
        return self.spawner.run(argv, CLI_DEADLINE_S)

    def prologue(self) -> list[Op]:
        return [self._op(case) for case in ITEM1]

    def pass_ops(self) -> list[Op]:
        cases = self.cycle[:]
        self.rng.shuffle(cases)
        return [self._op(case) for case in cases]

    def traced_ops(self) -> list[Op]:
        """In-process replay of one cycle through ``cli.run``, for the layer
        counters that a subprocess cannot report (jsonio among them)."""
        cli = sys.modules["tametransfer.cli"]

        def replay(argv):
            def run():
                result = cli.run(argv)
                return result.exit_code, json.dumps(result.document(), sort_keys=True) + "\n"
            return run

        return [Op("command", replay(case["argv"]), self._checker(case), 1, CLI_DEADLINE_S, " ".join(case["argv"]),
                   reset_caches) for case in ITEM1 + self.cycle]

    def _op(self, case) -> Op:
        return Op("command", lambda: self._command(case["argv"]), self._checker(case), 1, None,
                  " ".join(case["argv"]))

    @staticmethod
    def _checker(case):
        def check(result):
            verdict = check_output(case, *result)
            if verdict is None:
                return None
            kind, reason = verdict
            if kind == "contract":
                raise Broken(reason)
            return reason
        return check


WORKLOADS = {w.name: w for w in (Lattice, Lift, Certify, Cli)}
