"""Exception types shared across the library.

Every error raised on purpose derives from LinserError, so callers can
catch the whole family at once.  The CLI maps subfamilies onto exit codes.
"""


class LinserError(Exception):
    """Base class for all library errors."""


class InvalidInput(LinserError):
    """An argument violates a documented precondition."""


class ParseError(InvalidInput):
    """An expression or document could not be parsed."""


class InvalidExtension(LinserError):
    """A proposed minimal polynomial is not monic irreducible of degree >= 2."""


class DivisionByZero(LinserError, ZeroDivisionError):
    """Division by the zero element of a field."""


class FieldMismatch(LinserError):
    """Operands belong to incompatible field towers."""


class ConjugationUnavailable(LinserError):
    """The tower admits no involutive conjugation with the required roots."""


class NotDivisible(LinserError):
    """An exact division was requested but the divisor does not divide."""


class NonConstantGcd(LinserError):
    """The generators share a common curve, so the zero set is not finite."""


class NotABasepoint(LinserError):
    """A blowup step names a point where the series has multiplicity zero."""


class RecursionLimitExceeded(LinserError):
    """A blowup or tree recursion went deeper than the configured bound."""


class SizeLimitExceeded(LinserError):
    """An exponent or basis degree in the input passes a fixed bound."""


class BasisMismatch(LinserError):
    """Lattice classes expressed in different bases cannot be combined."""


class NoAdjoint(LinserError):
    """Adjoint series are undefined for degree below three."""
