"""Exception types shared across the package."""


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
