"""Acceptance criteria as executable checks.

Each criterion is a function of no arguments that either returns a
human-readable detail string or raises CheckFailure.  ``run_criterion`` runs
one and holds it to its budget; the CLI selftest command and the acceptance
test suite both run every criterion through it, so there is exactly one
source of truth for what passing means.
"""

from __future__ import annotations

import cmath
import math
import time

from .characters import CharExp, char, ell_regular_part, enumerate_orbits, orbit_of
from .errors import DomainError
from .green import green_trace
from .linking import build_link_chain, linked_partition, verify_link_chain
from .numth import factorize, prime_factors
from .regularize import regularize, verify_certificate, zsigmondy_exception, zsigmondy_prime
from .tame import (
    apply_transfer,
    blowup_parity_check,
    orbit_to_pair,
    pair_to_orbit,
    rectifier,
    tame_pair,
    transfer_pair,
    transfer_via_descent,
)
from .tower import TowerParams, _Record, derive_tower, field_level, level


class CheckFailure(AssertionError):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


# ----------------------------------------------------------------------
# criterion 1: primitive prime search against the brute-force oracle

def _oracle_zsigmondy(b: int, r: int) -> int | None:
    """Factor b**r - 1 outright and filter primes dividing an earlier b**i - 1."""
    primitive = [
        p
        for p in factorize(b**r - 1)
        if all(pow(b, i, p) != 1 for i in range(1, r))
    ]
    return min(primitive) if primitive else None


def check_zsigmondy_oracle() -> str:
    b_max, r_max = 30, 24
    empties = []
    for b in range(2, b_max + 1):
        for r in range(2, r_max + 1):
            expected = _oracle_zsigmondy(b, r)
            hit = zsigmondy_prime(b, r)
            if hit is None:
                _require(expected is None, f"missed primitive prime {expected} for ({b},{r})")
                _require(zsigmondy_exception(b, r), f"({b},{r}) wrongly reported as exception")
                empties.append((b, r))
            else:
                ell, cert = hit
                _require(expected == ell, f"({b},{r}): got {ell}, oracle says {expected}")
                _require(verify_certificate(cert), f"({b},{r}): certificate fails verification")
    expected_empties = [(2, 6)] + [
        (b, 2) for b in range(2, b_max + 1) if (b + 1) & b == 0
    ]
    _require(sorted(empties) == sorted(expected_empties), f"exception set was {empties}")
    return f"box 2..{b_max} x 2..{r_max} matches oracle; exceptions {sorted(empties)}"


# ----------------------------------------------------------------------
# criterion 2: uniqueness of the ell-regular part by exhaustive search

# M = 7, 24, 48, 242, 728, 80, 63, 124
_UNIQUENESS_LEVELS = [(2, 3), (5, 2), (7, 2), (3, 5), (3, 6), (3, 4), (2, 6), (5, 3)]


def check_ell_regular_uniqueness() -> str:
    total = 0
    for Q, deg in _UNIQUENESS_LEVELS:
        lvl = field_level(Q, deg)
        M = lvl.M
        order = [M // math.gcd(x, M) for x in range(M)]
        for ell in prime_factors(M):
            prime_to_ell = [order[x] % ell != 0 for x in range(M)]
            ell_power = []
            for x in range(M):
                o = order[x]
                while o % ell == 0:
                    o //= ell
                ell_power.append(o == 1)
            for a in range(M):
                matches = [
                    x for x in range(M) if prime_to_ell[x] and ell_power[(a - x) % M]
                ]
                _require(
                    len(matches) == 1,
                    f"M={M}, a={a}, ell={ell}: {len(matches)} candidates",
                )
                got = ell_regular_part(CharExp(lvl, a), ell).a
                _require(matches[0] == got, f"M={M}, a={a}, ell={ell}: {got} != {matches[0]}")
                total += 1
    return f"{total} exhaustive uniqueness checks over M in {[Q**d - 1 for Q, d in _UNIQUENESS_LEVELS]}"


# ----------------------------------------------------------------------
# criterion 3: one linking class per level, with explicit verified chains

_LINKING_LEVELS = [(2, 2), (2, 3), (3, 2), (4, 3), (5, 2), (2, 4), (3, 3), (5, 3)]


def check_linking_completeness() -> str:
    chains = 0
    for Q, deg in _LINKING_LEVELS:
        lvl = field_level(Q, deg)
        orbits = enumerate_orbits(lvl)
        blocks = linked_partition(lvl)
        _require(len(blocks) == 1, f"(Q={Q}, n'={deg}): {len(blocks)} blocks, expected 1")
        # own walk: an exponent is a representative when no Frobenius
        # conjugate of it is smaller
        reps = []
        for a in range(lvl.M):
            x = a * Q % lvl.M
            while x > a:
                x = x * Q % lvl.M
            if x == a:
                reps.append(a)
        _require(
            sorted(blocks[0]) == reps,
            f"(Q={Q}, n'={deg}): block does not cover all orbits",
        )
        for o1 in orbits:
            for o2 in orbits:
                chain = build_link_chain(o1.rep_char(), o2.rep_char())
                _require(
                    verify_link_chain(chain),
                    f"(Q={Q}, n'={deg}): chain {o1.rep}->{o2.rep} fails verification",
                )
                _require(
                    all(lvl.M % ell == 0 for ell in chain.primes),
                    f"(Q={Q}, n'={deg}): chain prime outside divisors of M",
                )
                chains += 1
    return f"single block at {len(_LINKING_LEVELS)} levels; {chains} ordered chains verified"


# ----------------------------------------------------------------------
# criterion 4: the regularization lift honours its whole contract

_REG_SHAPES = [(2, 2, 1, 1, 2, 1), (3, 3, 1, 1, 2, 1), (2, 2, 1, 1, 3, 1), (5, 5, 1, 1, 2, 1), (2, 2, 1, 1, 4, 1)]


def _is_ell_power(n: int, ell: int) -> bool:
    while n % ell == 0:
        n //= ell
    return n == 1


def check_regularization_contract() -> str:
    lifts = 0
    for raw in _REG_SHAPES:
        params = derive_tower(*raw)
        lvl = level(params, params.n_prime)
        for orbit in enumerate_orbits(lvl):
            alpha = orbit.rep_char()
            f = orbit.size
            lift = regularize(alpha, params)
            top = lift.beta.level
            # independent enumeration of the lifted character's orbit
            steps, x = 1, lift.beta.a * top.Q % top.M
            while x != lift.beta.a:
                x = x * top.Q % top.M
                steps += 1
            _require(steps == lift.a * params.n_prime, f"{raw}, f={f}: orbit size {steps}")
            # congruence: the twist has ell-power order, the inflated input has
            # order prime to ell
            diff = (lift.beta.a - lift.alpha_star.a) % top.M
            _require(
                _is_ell_power(top.M // math.gcd(diff, top.M), lift.ell),
                f"{raw}, f={f}: twist is not of ell-power order",
            )
            _require(
                (top.M // math.gcd(lift.alpha_star.a, top.M)) % lift.ell != 0,
                f"{raw}, f={f}: inflated input order not prime to ell",
            )
            _require(
                (params.Q**f - 1) % lift.ell != 0,
                f"{raw}, f={f}: ell divides Q^f - 1",
            )
            _require(lift.ell not in (params.p, 2), f"{raw}, f={f}: bad prime {lift.ell}")
            _require(verify_certificate(lift.certificate), f"{raw}, f={f}: bad certificate")
            lifts += 1
            if params.Q == 2 and params.n_prime == 2 and alpha.is_trivial:
                _require(lift.ell == 43, f"worked value: expected ell=43, got {lift.ell}")
                _require(lift.beta.a == 16383 // 43, f"worked value: beta={lift.beta.a}")
            if params.Q == 3 and params.n_prime == 2 and alpha.is_trivial:
                _require(lift.ell == 547, f"worked value: expected ell=547, got {lift.ell}")
    return f"{lifts} lifts verified by independent enumeration (incl. ell=43 and ell=547)"


# ----------------------------------------------------------------------
# criterion 5: rectifier parity formula over a sweep of tame shapes

_SWEEP_MAX_N_PRIME = 7  # the sweep leaves out shapes of larger n'


def tame_shape_sweep() -> list[TowerParams]:
    """Deterministic sweep of valid essentially tame shapes, mixing p = 2 with
    odd p (and hence trivial with possibly nontrivial rectifiers)."""
    out = []
    for f_ef in (1, 2):
        for e_ef in (1, 2, 3, 4, 5):
            for m in (1, 2, 3):
                for d in (1, 2, 3, 4, 6, 8):
                    for p in (2, 3, 5):
                        if math.gcd(e_ef, p) != 1:
                            continue
                        g = e_ef * f_ef
                        if (m * d) % g or (m * d // g) > _SWEEP_MAX_N_PRIME:
                            continue
                        out.append(derive_tower(p, p, e_ef, f_ef, m, d))
    return out


def _independent_y(p: int, e_ef: int, f_ef: int, m: int, d: int) -> int:
    """The parity formula recomputed from the six raw integers only."""
    g = e_ef * f_ef
    n = m * d
    dp = d // math.gcd(d, g)
    mp = m * math.gcd(d, g) // g
    w = n // e_ef
    v = d // math.gcd(d, w)
    u = (n // w) // v
    return m * (d - 1) + mp * (dp - 1) + u * (v - 1)


def check_rectifier_formula() -> str:
    shapes = tame_shape_sweep()
    _require(len(shapes) >= 50, f"sweep produced only {len(shapes)} shapes")
    nontrivial = 0
    for params in shapes:
        spec = rectifier(params)
        y2 = _independent_y(params.p, params.e_ef, params.f_ef, params.m, params.d)
        _require(spec.y == y2, f"{params.as_tuple()}: y={spec.y} but evaluator says {y2}")
        _require(spec.u * spec.v == params.n // spec.w, f"{params.as_tuple()}: u*v != n/w")
        _require(
            2 * spec.mu.a % spec.mu.level.M == 0,
            f"{params.as_tuple()}: rectifier not of order dividing 2",
        )
        _require(
            spec.nontrivial == (params.p != 2 and spec.y % 2 == 1),
            f"{params.as_tuple()}: parity rule violated",
        )
        nontrivial += spec.nontrivial
        for a in range(1, 10):
            _require(
                blowup_parity_check(params, a),
                f"{params.as_tuple()}: blow-up parity fails at a={a}",
            )
    _require(nontrivial > 0, "sweep contains no shape with a nontrivial rectifier")
    return f"{len(shapes)} shapes checked ({nontrivial} with nontrivial rectifier), a <= 9"


# ----------------------------------------------------------------------
# criterion 6: descent route equals rectifier route on every orbit

_DESCENT_SHAPES = [(3, 3, 2, 1, 1, 4), (3, 3, 1, 1, 1, 2), (3, 3, 2, 1, 2, 4)]


def check_descent_replay() -> str:
    transfers = 0
    for raw in _DESCENT_SHAPES:
        params = derive_tower(*raw)
        spec = rectifier(params)
        lvl = level(params, params.n_prime)
        for orbit in enumerate_orbits(lvl):
            alpha = orbit.rep_char()
            via_descent = transfer_via_descent(alpha, params)
            direct = apply_transfer(orbit, spec)
            _require(
                via_descent == direct,
                f"{raw}, orbit {orbit.rep}: descent {via_descent.rep} != direct {direct.rep}",
            )
            if raw == (3, 3, 2, 1, 1, 4):
                _require(
                    regularize(alpha, params).ell == 547,
                    f"{raw}: expected the 547 lift",
                )
            transfers += 1
    return f"{transfers} orbits transferred identically by both routes"


# ----------------------------------------------------------------------
# criterion 7: the pair dictionary is a bijection and its correction squares to 1

def check_pair_dictionary() -> str:
    round_trips = 0
    for Q in (2, 3, 5):
        for n_prime in range(1, 5):
            params = derive_tower(Q, Q, 1, 1, n_prime, 1)
            lvl = level(params, n_prime)
            for orbit in enumerate_orbits(lvl):
                pair = orbit_to_pair(orbit, params)
                _require(pair.f == orbit.size, "pair degree disagrees with orbit size")
                _require(
                    pair_to_orbit(pair, params) == orbit,
                    f"Q={Q}, n'={n_prime}: orbit {orbit.rep} does not round-trip",
                )
                round_trips += 1
            for f in range(1, n_prime + 1):
                if n_prime % f:
                    continue
                sub = field_level(Q, f)
                for b in range(sub.M):
                    if orbit_of(CharExp(sub, b)).size != f:
                        continue
                    pair = tame_pair(params, f, b)
                    back = orbit_to_pair(pair_to_orbit(pair, params), params)
                    _require(back == pair, f"Q={Q}, f={f}, beta={b}: pair does not round-trip")
                    round_trips += 1
    corrections = 0
    for params in tame_shape_sweep():
        for f in range(1, params.n_prime + 1):
            if params.n_prime % f:
                continue
            sub = field_level(params.Q, f)
            # exponent 1 generates, so it is always fully regular at its level
            pair = tame_pair(params, f, 1 % sub.M)
            moved = transfer_pair(pair, params)
            _require(
                2 * moved.mu_l.a % sub.M == 0,
                f"{params.as_tuple()}, f={f}: correction not of order dividing 2",
            )
            corrections += 1
    return f"{round_trips} round trips; {corrections} correction characters square to 1"


# ----------------------------------------------------------------------
# criterion 8: transfer preserves degree and respects regular parts

def _small_invariant_shapes() -> list[TowerParams]:
    shapes = [derive_tower(*raw) for raw in _DESCENT_SHAPES]
    # The transfer action only depends on (Q, n', parity of y), so keep one
    # sweep representative per such class to stay inside the budget.
    seen = set()
    for params in tame_shape_sweep():
        spec = rectifier(params)
        key = (params.Q, params.n_prime, spec.nontrivial)
        if params.Q**params.n_prime - 1 <= 3000 and key not in seen:
            seen.add(key)
            shapes.append(params)
    return shapes


def check_transfer_invariants() -> str:
    checked = 0
    for params in _small_invariant_shapes():
        spec = rectifier(params)
        lvl = level(params, params.n_prime)
        orbits = enumerate_orbits(lvl)
        image = {o.rep: apply_transfer(o, spec) for o in orbits}
        for o in orbits:
            # apply_transfer translates members; the walk of the twisted
            # representative is the independent reference for its image.
            _require(
                image[o.rep] == orbit_of(char(lvl, o.rep + spec.mu.a)),
                f"{params.as_tuple()}: image of orbit {o.rep} is not the walked twist",
            )
            _require(
                image[o.rep].size == o.size,
                f"{params.as_tuple()}: orbit {o.rep} changed parametric degree",
            )
        for ell in prime_factors(lvl.M):
            forward: dict[int, int] = {}
            for o in orbits:
                key = orbit_of(ell_regular_part(o.rep_char(), ell)).rep
                val = orbit_of(ell_regular_part(image[o.rep].rep_char(), ell)).rep
                if key in forward:
                    _require(
                        forward[key] == val,
                        f"{params.as_tuple()}, ell={ell}: regular parts not respected",
                    )
                forward[key] = val
            _require(
                len(set(forward.values())) == len(forward),
                f"{params.as_tuple()}, ell={ell}: induced map on regular parts not injective",
            )
        checked += 1
    return f"degree preservation and regular-part compatibility on {checked} shapes"


# ----------------------------------------------------------------------
# criterion 9: trace sums, their numeric values, and their invariances

def check_green_traces() -> str:
    lvl = field_level(2, 2)
    val = green_trace(CharExp(lvl, 1), 1, 2).evaluate()
    _require(abs(val - 1) < 1e-12, f"-(z3 + z3^2) evaluated to {val}")
    lvl8 = field_level(3, 2)
    val8 = green_trace(CharExp(lvl8, 1), 1, 2).evaluate()
    _require(abs(val8 - complex(0, -math.sqrt(2))) < 1e-12, f"-(z8 + z8^3) evaluated to {val8}")
    checked = 0
    for Q in (2, 3, 4):
        for u in (1, 2, 3):
            lv = field_level(Q, u)
            # characters and elements share the exponents of full orbit size
            regular = [a for a in range(lv.M) if orbit_of(CharExp(lv, a)).size == u]
            for a in regular:
                for g in regular:
                    base = green_trace(CharExp(lv, a), g, u)
                    conj_char = green_trace(CharExp(lv, a * Q % lv.M), g, u)
                    conj_elt = green_trace(CharExp(lv, a), g * Q % lv.M, u)
                    _require(base == conj_char, f"Q={Q}, u={u}: not Galois invariant ({a},{g})")
                    _require(base == conj_elt, f"Q={Q}, u={u}: not conjugacy invariant ({a},{g})")
                    sign = 1 if u % 2 else -1
                    direct = sum(
                        sign * cmath.exp(2j * cmath.pi * (a * pow(Q, i, lv.M) * g % lv.M) / lv.M)
                        for i in range(u)
                    )
                    _require(
                        abs(base.evaluate() - direct) < 1e-12,
                        f"Q={Q}, u={u}: formal and direct sums disagree at ({a},{g})",
                    )
                    checked += 1
    return f"trace identities and invariances over {checked} regular configurations"


# ----------------------------------------------------------------------
# registry and driver

class Criterion(_Record):
    __slots__ = ("name", "budget_seconds", "run")


CRITERIA: tuple[Criterion, ...] = (
    Criterion("1_zsigmondy_oracle", 10.0, check_zsigmondy_oracle),
    Criterion("2_ell_regular_uniqueness", 30.0, check_ell_regular_uniqueness),
    Criterion("3_linking_completeness", 30.0, check_linking_completeness),
    Criterion("4_regularization_contract", 60.0, check_regularization_contract),
    Criterion("5_rectifier_formula", 5.0, check_rectifier_formula),
    Criterion("6_descent_replay", 120.0, check_descent_replay),
    Criterion("7_pair_dictionary", 30.0, check_pair_dictionary),
    Criterion("8_transfer_invariants", 10.0, check_transfer_invariants),
    Criterion("9_green_traces", 5.0, check_green_traces),
)


def run_criterion(crit: Criterion) -> dict:
    """Run one criterion and hold it to its budget; a failure is reported, not raised."""
    start = time.perf_counter()
    try:
        detail = crit.run()
        passed = True
    except (DomainError, AssertionError) as exc:
        detail = str(exc)
        passed = False
    elapsed = time.perf_counter() - start
    if passed and elapsed >= crit.budget_seconds:
        passed = False
        detail = f"passed checks but took {elapsed:.2f}s, over the {crit.budget_seconds}s budget"
    return {
        "name": crit.name,
        "passed": passed,
        "seconds": round(elapsed, 3),
        "budget_seconds": crit.budget_seconds,
        "detail": detail,
    }


def run_selftest() -> dict:
    """Run every criterion in name order: the selftest report, version 2."""
    results = [run_criterion(crit) for crit in sorted(CRITERIA, key=lambda c: c.name)]
    return {"version": 2, "criteria": results, "all_passed": all(r["passed"] for r in results)}
