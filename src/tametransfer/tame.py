"""Rectifier character, transfer permutation on orbits, and the pair dictionary.

For an essentially tame shape the transfer of orbit classes is twisting by a
canonical character of order at most two, the rectifier.  Whether it is the
quadratic character or trivial is decided by the parity of

    y = m(d-1) + m'(d'-1) + u(v-1),

with u, v cut out of the shape by w = n / e(E/F), v = d / gcd(d, w),
u*v = n/w.  The same answer is reproduced, without using the formula at the
target level, by lifting through a regularization blow-up and descending the
twisted image; the two routes agreeing on every orbit is the executable
content of this module.

Inertial classes of admissible pairs are modeled residually by a subfield
level of degree f together with a fully regular character there; norm
inflation and its inverse translate between pairs and orbit classes.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .characters import (
    CharExp,
    GaloisOrbit,
    char,
    is_norm_inflated,
    norm_inflate,
    orbit_of,
)
from .errors import (
    DegreeMismatch,
    LevelMismatch,
    MismatchAgainstRectifier,
    NotAdmissiblePair,
    NotEssentiallyTame,
    NotInNormImage,
    OrderViolation,
)
from .regularize import descend_transfer, regularize
from .tower import TowerParams, _Record, blow_up, field_level, level


class RectifierSpec(_Record):
    """The rectifier of an essentially tame shape: the parity data w, v, u, y and the twist mu, which is M/2
    when p and y are odd, else 0.  M/2 is taken only at odd Q, where Q * M/2 = M/2 + M * (Q-1)/2 = M/2 (mod M):
    mu is Frobenius-fixed, so twisting by it is well defined on orbits."""

    __slots__ = ("params", "w", "v", "u", "y", "mu")

    def __init__(self, params: TowerParams) -> None:
        if math.gcd(params.e_ef, params.p) != 1:
            raise NotEssentiallyTame(f"ramification e(E/F)={params.e_ef} is divisible by p={params.p}")
        w = params.n // params.e_ef
        v = params.d // math.gcd(params.d, w)
        # v divides n/w = e(E/F): d | n gives v_l(v) = max(0, v_l(d) - v_l(n) + v_l(e(E/F))) <= v_l(e(E/F))
        u = (params.n // w) // v
        y = params.m * (params.d - 1) + params.m_prime * (params.d_prime - 1) + u * (v - 1)
        lvl = level(params, params.n_prime)
        nontrivial = params.p != 2 and y % 2 == 1
        self._fill(params, w, v, u, y, CharExp(lvl, lvl.M // 2 if nontrivial else 0))

    @property
    def nontrivial(self) -> bool:
        return not self.mu.is_trivial


rectifier = RectifierSpec  # the rectifier of a shape; callers in this module call it by this name


def _translate(orbit: GaloisOrbit, t: int) -> GaloisOrbit:
    """The orbit of every member shifted by a Frobenius-fixed exponent t.

    Since Q*t = t (mod M), the Frobenius commutes with x -> x + t, so the
    shifted members are again one orbit, of the same size; it is the input
    itself when t is 0.  The members are sorted, so the shift only moves
    those at or above M - t to the front.
    """
    if t == 0:
        return orbit
    M = orbit.level.M
    members = orbit.members
    cut = bisect_left(members, M - t)
    return GaloisOrbit(orbit.level, tuple([x + t - M for x in members[cut:]] + [x + t for x in members[:cut]]))


def apply_transfer(orbit: GaloisOrbit, spec: RectifierSpec) -> GaloisOrbit:
    """Twist an orbit by the rectifier.

    The rectifier's mu is Frobenius-fixed, so the image is the orbit
    translated by mu, computed from the members without walking; when
    mu is trivial it is the given object itself.  ``orbit`` must be a true
    orbit, as built by ``orbit_of`` or ``enumerate_orbits``.
    """
    if orbit.level != spec.mu.level:
        raise LevelMismatch("orbit does not live at the rectifier's level")
    return _translate(orbit, spec.mu.a)


def kappa_twist(orbit: GaloisOrbit, chi_base: CharExp) -> GaloisOrbit:
    """Reparametrize an orbit for an alternative normalization choice.

    Switching the normalization multiplies every parametrizing class by a
    fixed character pulled back from the degree-one base level through the
    norm; such a character is Frobenius-fixed, so the twisted orbit is the
    orbit translated by its exponent, computed without walking.  ``orbit``
    must be a true orbit, as built by ``orbit_of`` or ``enumerate_orbits``.
    The transfer permutation commutes with the twist.
    """
    if chi_base.level.deg != 1:
        raise LevelMismatch("normalization twists come from the degree-one base level")
    if chi_base.level.Q != orbit.level.Q:
        raise LevelMismatch("twist lives over a different base field")
    return _translate(orbit, norm_inflate(chi_base, orbit.level.deg).a)


def blowup_parity_check(params: TowerParams, a: int) -> bool:
    """Whether y recomputed at the blown-up shape agrees with a*y modulo 2.

    Only the parity of y is ever consumed (it decides the rectifier), and for
    odd a the congruence always holds; the exact equality does not.
    """
    base = rectifier(params)
    blown = rectifier(blow_up(params, a))
    return (blown.y - a * base.y) % 2 == 0


def transfer_via_descent(alpha: CharExp, params: TowerParams) -> GaloisOrbit:
    """Transfer an orbit by regularizing, twisting upstairs, and descending.

    The image of the regularized character at the blown-up level is its twist
    by the inflated rectifier (the blow-up factor is odd, so the rectifier
    inflates to the blown-up rectifier).  Descending that image must land on
    the directly twisted orbit; disagreement is an internal error.
    """
    spec = rectifier(params)
    lift = regularize(alpha, params)
    mu_star = norm_inflate(spec.mu, lift.a)
    beta_image = orbit_of(lift.beta * mu_star)
    descended = descend_transfer(alpha, lift, beta_image)
    direct = apply_transfer(orbit_of(alpha), spec)
    if descended != direct:
        raise MismatchAgainstRectifier(
            f"descent gave {descended.rep}, rectifier twist gave {direct.rep}"
        )
    return descended


class TamePairClass(_Record):
    """Residual model of an inertial pair class: a fully regular character
    of the subfield level of degree f over e.

    The class only depends on the Frobenius orbit of the character, so the
    stored exponent is normalized to the canonical orbit representative.
    """

    __slots__ = ("beta",)

    def __init__(self, beta: CharExp) -> None:
        orbit = orbit_of(beta)
        if orbit.size != beta.level.deg:
            raise NotAdmissiblePair(f"exponent {beta.a} is not fully regular at degree {beta.level.deg}")
        self._fill(beta if orbit.rep == beta.a else CharExp(beta.level, orbit.rep))

    @property
    def f(self) -> int:
        return self.beta.level.deg


def tame_pair(params: TowerParams, f: int, beta_exp: int) -> TamePairClass:
    """Build a pair class from its degree and character exponent."""
    if f < 1 or params.n_prime % f:
        raise DegreeMismatch(f"pair degree f={f} must divide n'={params.n_prime}")
    return TamePairClass(beta=char(field_level(params.Q, f), beta_exp))


def pair_to_orbit(pair: TamePairClass, params: TowerParams) -> GaloisOrbit:
    """Inflate a pair class to an orbit at the full level; degree is preserved."""
    if pair.beta.level.Q != params.Q:
        raise LevelMismatch("pair lives over a different base field")
    if params.n_prime % pair.f:
        raise DegreeMismatch(f"pair degree f={pair.f} must divide n'={params.n_prime}")
    inflated = norm_inflate(pair.beta, params.n_prime // pair.f)
    orbit = orbit_of(inflated)
    if orbit.size != pair.f:
        raise OrderViolation("norm inflation changed the parametric degree")
    return orbit


def orbit_to_pair(orbit: GaloisOrbit, params: TowerParams) -> TamePairClass:
    """Recover the pair class of an orbit from its canonical representative.

    Every representative of parametric degree f is norm-inflated from the
    degree-f subfield level, so the inversion below always succeeds.
    """
    if orbit.level != level(params, params.n_prime):
        raise LevelMismatch("orbit does not live at the shape's full level")
    nu = is_norm_inflated(orbit.rep_char(), field_level(params.Q, orbit.size))
    if nu is None:
        raise NotInNormImage(f"representative {orbit.rep} of degree {orbit.size} is not norm-inflated")
    pair = object.__new__(TamePairClass)  # no walk: inflation keeps order and Frobenius, so nu is its orbit's rep
    pair._fill(nu)
    if pair_to_orbit(pair, params) != orbit:
        raise OrderViolation("pair recovery does not invert inflation")
    return pair


class PairTransfer(_Record):
    """A transferred pair class together with the correction character."""

    __slots__ = ("pair", "mu_l")


def transfer_pair(pair: TamePairClass, params: TowerParams) -> PairTransfer:
    """Transfer a pair class and expose the order-two correction character.

    The correction is the rectifier pushed down to the pair's subfield level,
    checked to have order dividing two before the transfer runs; the
    transferred class is then checked against it rather than trusted.
    """
    spec = rectifier(params)
    orbit = pair_to_orbit(pair, params)
    mu_l = is_norm_inflated(spec.mu, pair.beta.level)
    if mu_l is None:
        raise OrderViolation("rectifier does not restrict to the pair level")
    if 2 * mu_l.a % mu_l.level.M:
        raise OrderViolation("restricted rectifier is not of order dividing two")
    out = orbit_to_pair(apply_transfer(orbit, spec), params)
    if out.beta.level != pair.beta.level or out.beta.a not in orbit_of(pair.beta * mu_l).members:
        raise OrderViolation("transferred pair is not the quadratic shift of the input")
    return PairTransfer(pair=out, mu_l=mu_l)


class DiscreteSeriesShape(_Record):
    """Numeric shape (f, t, s, r) of the class attached to an orbit: n = r*s*t."""

    __slots__ = ("f", "t", "s", "r")


def discrete_series_shape(orbit: GaloisOrbit, params: TowerParams) -> DiscreteSeriesShape:
    """Degrees attached to an orbit: parametric degrees f and t = f*g, the
    step s = d'/gcd(f, d'), and the segment length r with n = r*s*t."""
    if orbit.level != level(params, params.n_prime):
        raise LevelMismatch("orbit does not live at the shape's full level")
    f = orbit.size
    t = f * params.g
    s = params.d_prime // math.gcd(f, params.d_prime)
    if params.n % (s * t):
        raise OrderViolation(f"s*t={s * t} does not divide n={params.n}")
    r = params.n // (s * t)
    return DiscreteSeriesShape(f=f, t=t, s=s, r=r)
