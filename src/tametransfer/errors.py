"""Exception hierarchy shared by all modules.

Every error carries a ``kind`` string equal to the class name; the CLI
reports it verbatim and maps any :class:`DomainError` to exit code 2.
A domain message stays small however large its inputs: ``DomainError`` writes
each integer of more than 60 digits as its leading 20 digits and its digit count.
"""

from __future__ import annotations

import json
import re


def short_text(text: str, limit: int = 300, unit: str = "characters") -> str:
    """``text``; past ``limit`` characters as JSON escapes them (an emoji takes 12), its longest prefix
    of at most ``limit // 3`` such characters and its length in ``unit``, less a leading "-"."""
    if len(json.dumps(text)) - 2 <= limit:
        return text
    end = size = 0
    while (size := size + len(json.dumps(text[end])) - 2) <= limit // 3:
        end += 1
    return f"{text[:end]}...({len(text) - text.startswith('-')} {unit})"


class DomainError(Exception):
    """Base class for all domain-level failures."""

    def __init__(self, message: str) -> None:
        super().__init__(re.sub(r"-?[0-9]{60,}", lambda m: short_text(m[0], 60, "digits"), message))

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
