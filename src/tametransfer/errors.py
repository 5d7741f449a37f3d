"""Exception hierarchy shared by all modules.

Every error carries a ``kind`` string equal to the class name; the CLI
reports it verbatim and maps any :class:`DomainError` to exit code 2.
``short_int`` writes an integer into a message in bounded size.
"""

from __future__ import annotations


def short_int(n: int) -> str:
    """``n`` in decimal; past 60 digits, its leading 20 digits and its digit count."""
    digits = str(n)
    return digits if len(digits) <= 60 else f"{digits[:20]}...({len(digits.lstrip('-'))} digits)"


class DomainError(Exception):
    """Base class for all domain-level failures."""

    @property
    def kind(self) -> str:
        return type(self).__name__


class NotPrime(DomainError):
    pass


class NotPrimePower(DomainError):
    pass


class DegreeMismatch(DomainError):
    pass


class LevelMismatch(DomainError):
    pass


class LevelGuardExceeded(DomainError):
    pass


class EnumerationTooLarge(DomainError):
    pass


class OutOfRange(DomainError):
    pass


class ZsigmondyException(DomainError):
    pass


class FactorizationBudgetExceeded(DomainError):
    """A factorization or prime factor search ran numth.MAX_ECM_CURVES curves without finishing."""


class OrderViolation(DomainError):
    """Post-verification of a computed object failed; signals an internal bug."""


class NotNormInflated(DomainError):
    pass


class AmbiguousTwist(DomainError):
    pass


class NotEssentiallyTame(DomainError):
    pass


class ShapeError(DomainError):
    pass


class MismatchAgainstRectifier(DomainError):
    """The descent route and the rectifier route disagree; signals an internal bug."""


class NotRegularCharacter(DomainError):
    pass


class NotRegularElement(DomainError):
    pass


class NotInNormImage(DomainError):
    pass


class NotAdmissiblePair(DomainError):
    pass
