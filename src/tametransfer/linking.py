"""Linking of parametrizing classes and semi-simple endo-class formal sums.

Two orbits are ell-linked when the orbits of their ell-regular parts agree;
orbits are linked when a chain of such relations over admissible primes
connects them.  At a fixed level every pair of orbits is linked, and the
chain is constructed explicitly from the prime-power decomposition of the
quotient character.
"""

from __future__ import annotations

from .characters import CharExp, GaloisOrbit, _walk_orbits, ell_regular_part, orbit_of
from .errors import DegreeMismatch, FactorizationBudgetExceeded, LevelMismatch
from .numth import _ell_idempotent, is_prime, prime_factors
from .tower import FieldLevel, _Record, field_level


class LinkStep(_Record):
    __slots__ = ("ell", "before", "after")


class LinkChain(_Record):
    __slots__ = ("source", "target", "steps")

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(s.ell for s in self.steps)


class SemiSimpleEndoClass(_Record):
    """Formal sum of endo-class labels with positive integer multiplicities."""

    __slots__ = ("terms",)


def admissible_primes(q: int, n: int) -> tuple[int, ...]:
    """Primes dividing (q**n - 1)(q**(n-1) - 1)...(q - 1), ascending."""
    if q < 2 or n < 1:
        raise DegreeMismatch(f"need q >= 2 and n >= 1, got q={q}, n={n}")
    # q**n - 1, the largest value factored, is the M of the level of degree n
    field_level(q, n)
    primes: set[int] = set()
    for i in range(1, n + 1):
        try:
            primes.update(prime_factors(q**i - 1))
        except FactorizationBudgetExceeded as exc:
            raise FactorizationBudgetExceeded(f"q**i - 1 for q={q}, i={i}: {exc}") from None
    return tuple(sorted(primes))


def ell_linked(o1: GaloisOrbit, o2: GaloisOrbit, ell: int) -> bool:
    """True when the orbits of the ell-regular parts of the two orbits agree."""
    if o1.level != o2.level:
        raise LevelMismatch("orbits live at different levels")
    ell_regular_part(o1.rep_char(), ell)  # refuses an ell past the level guard, then a composite ell
    return _ell_linked(o1, o2, ell)


def _ell_linked(o1: GaloisOrbit, o2: GaloisOrbit, ell: int) -> bool:
    """``ell_linked`` for two orbits at one level and a prime ell, by one idempotent e and one walk:
    as orbits partition the level, the regular parts e * o1.rep and e * o2.rep have one orbit exactly
    when the second lies in the orbit of the first."""
    M = o1.level.M
    e = _ell_idempotent(M, ell)
    return e * o2.rep % M in orbit_of(CharExp(o1.level, e * o1.rep % M)).members


def build_link_chain(alpha: CharExp, alpha_prime: CharExp) -> LinkChain:
    """Connect two characters by steps of prime-power-order twists.

    The quotient character decomposes uniquely over the primes dividing M
    into factors of prime-power order (CRT idempotents); multiplying them in
    one at a time yields consecutive ell-linked characters.  Primes whose
    factor is trivial contribute no step.  Raises FactorizationBudgetExceeded,
    naming the level, when M does not factor within numth.MAX_ECM_CURVES curves.
    """
    if alpha.level != alpha_prime.level:
        raise LevelMismatch("characters live at different levels")
    M, level = alpha.level.M, alpha.level
    try:
        primes = prime_factors(M)
    except FactorizationBudgetExceeded as exc:
        raise FactorizationBudgetExceeded(f"order of the level Q={level.Q}, deg={level.deg}: {exc}") from None
    xi = (alpha_prime.a - alpha.a) % M
    steps = []
    current = alpha
    for ell in primes:
        xi_ell = (1 - _ell_idempotent(M, ell)) * xi % M
        if xi_ell == 0:
            continue
        # each step starts on the orbit the previous step ended on
        before = steps[-1].after if steps else orbit_of(current)
        current = CharExp(alpha.level, (current.a + xi_ell) % M)
        steps.append(LinkStep(ell=ell, before=before, after=orbit_of(current)))
    assert current.a == alpha_prime.a
    return LinkChain(source=alpha, target=alpha_prime, steps=tuple(steps))


def verify_link_chain(chain: LinkChain) -> bool:
    """Replay every step of a chain and the endpoint laws: the steps walk from the source's
    orbit to the target's at one level, each starting on the orbit the previous one ended on,
    by a prime ell | M that links its two orbits.  Any other ell is False before its primality
    test unless it divides M, which the level guard bounds; each step tests ell once and walks
    one orbit."""
    M = chain.source.level.M
    current = orbit_of(chain.source)
    for s in chain.steps:
        if s.before != current or s.after.level != current.level or s.ell < 2 or M % s.ell or not is_prime(s.ell):
            return False
        if not _ell_linked(s.before, s.after, s.ell):
            return False
        current = s.after
    return current == orbit_of(chain.target)


def linked_partition(level: FieldLevel) -> tuple[tuple[int, ...], ...]:
    """Transitive closure of ell-linking over all admissible primes.

    Returns blocks of orbit representatives, each block ascending and blocks
    ordered by their smallest representative.  At a fixed level the closure
    is always one block holding every orbit.  The quotient of any two
    exponents splits by CRT into parts of prime-power order, one for each
    prime ell dividing M; adding the ell-power part leaves the ell-regular
    part unchanged, because the idempotents are orthogonal, so each such
    addition is one ell-linking step.  ``build_link_chain`` constructs
    exactly these chains.  The block is therefore the list of orbit
    representatives, which the necklace walk of the level lists without
    visiting any other exponent; it raises ``EnumerationTooLarge`` first
    when M exceeds the fixed ``characters.MAX_ENUMERATION``.
    """
    return (tuple(_walk_orbits(level)),)


def semisimple_endoclass(components: list[tuple[str, int, int, int]]) -> SemiSimpleEndoClass:
    """Formal sum over components (theta_id, g_i, m_i, d) with weight m_i*d/g_i."""
    mults: dict[str, int] = {}
    for theta_id, g_i, m_i, d in components:
        if g_i < 1 or m_i < 1 or d < 1:
            raise DegreeMismatch("component degrees must be positive")
        if (m_i * d) % g_i:
            raise DegreeMismatch(f"degree {g_i} does not divide {m_i}*{d}")
        mults[theta_id] = mults.get(theta_id, 0) + m_i * d // g_i
    return SemiSimpleEndoClass(terms=tuple(sorted(mults.items())))
