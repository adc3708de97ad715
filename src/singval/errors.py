"""Exception hierarchy for singval.

Every failure mode that callers are expected to handle gets its own class;
everything inherits from SingvalError so the CLI can map any domain failure
to a single exit code.
"""

from __future__ import annotations


class SingvalError(Exception):
    """Base class for all domain errors raised by this package."""


class NotDivisible(SingvalError):
    """Exact division in Z[L, 1/L] left a remainder or a fractional quotient."""


class ZeroDivisor(SingvalError):
    """An element has an identically zero branch component, so it has no
    finite order vector there."""


class NotContained(SingvalError):
    """A quotient length was requested for a pair of modules without the
    required containment."""


class BoundSearchExceeded(SingvalError):
    """An upward search for a certified bound hit its safety ceiling."""


class BadReduction(SingvalError):
    """Reduction of the input data mod p is not defined (a denominator or a
    leading coefficient vanishes)."""


class EnumerationTooLarge(SingvalError):
    """A computation would enumerate more than its ceiling allows: the jets
    of a finite-field point count, or the points of a value module's box
    [0, gamma], which the module tabulates in full."""


class ClipRuleViolation(SingvalError):
    """A computed value set fails the saturation law on its verification
    collar, so the chosen box cannot represent it."""


class SchemaError(SingvalError):
    """An input file does not match the expected JSON layout."""


RESOURCE_ERRORS = (EnumerationTooLarge, BoundSearchExceeded)  # exit 3, never a table row
