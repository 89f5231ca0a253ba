"""Exception types shared across the package, and the quoting of values in
their messages."""

import reprlib

# Most characters of a value, token or polynomial that an error message quotes.
MAX_SHOWN = 60

_SHORT_REPR = reprlib.Repr()
_SHORT_REPR.maxlevel = 2


def shorten(text: str) -> str:
    """text for an error message: as it is up to MAX_SHOWN characters, else
    its first MAX_SHOWN - 3 characters and '...'."""
    return text if len(text) <= MAX_SHOWN else text[: MAX_SHOWN - 3] + "..."


def describe(value) -> str:
    """A rejected value for an error message: a prefix of its repr of at
    most MAX_SHOWN characters, then its type."""
    return f"{shorten(_SHORT_REPR.repr(value))} ({type(value).__name__})"


class ReflconnError(Exception):
    """Base class for all package errors."""


class ConductorMismatch(ReflconnError):
    """Arithmetic attempted between values living in different cyclotomic fields."""


class ExprSyntaxError(ReflconnError):
    """Raised by the expression parser; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(ExprSyntaxError):
    pass


class NotDivisible(ReflconnError):
    """Exact polynomial division left a nonzero remainder."""


class SingularMatrix(ReflconnError):
    pass


class InvalidSpec(ReflconnError, ValueError):
    """A group specification is malformed (bad conductor, rank or generators)."""


class CapExceeded(ReflconnError):
    """Group closure exceeded the configured element cap."""


class NotAMember(ReflconnError):
    pass


class NotAReflectionGroup(ReflconnError):
    pass


class DegreeSearchFailed(ReflconnError):
    pass


class IndependenceSearchFailed(ReflconnError):
    pass


class UnknownGroup(ReflconnError):
    pass


class SingularJacobian(ReflconnError):
    pass


class NonInvariantEntry(ReflconnError):
    pass


class NotInvariant(ReflconnError):
    pass


class NonHomogeneousInput(ReflconnError):
    pass


class DenominatorMismatch(ReflconnError):
    pass
