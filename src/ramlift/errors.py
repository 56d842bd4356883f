"""Exception hierarchy shared by all ramlift modules."""


class RamliftError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(RamliftError):
    pass


class Reducible(RamliftError):
    pass


class DivisionByZero(RamliftError):
    pass


class FieldMismatch(RamliftError):
    pass


class CharMismatch(RamliftError):
    pass


class RingMismatch(RamliftError):
    pass


class NotAUnit(RamliftError):
    pass


class NotEisenstein(RamliftError):
    pass


class InsufficientPrecision(RamliftError):
    pass


class InvalidArgument(RamliftError):
    """An argument outside an operation's domain: a coordinate or digit vector
    of the wrong length, a precision below 1, a negative exponent, or a
    number too large for the exact primality test."""


class NotDivisible(RamliftError):
    """Exact division by p of an element that p does not divide."""


class PrecisionTooLow(RamliftError):
    pass


class TooLarge(RamliftError):
    pass


class PreconditionBound(RamliftError):
    """Lifting requested below the precision threshold that guarantees uniqueness."""


class NoRoot(RamliftError):
    """Internal inconsistency: a guaranteed root was not found."""


class MultipleRoots(RamliftError):
    """Internal inconsistency: the selection rule matched more than one root."""


class InconsistentResult(RamliftError):
    """Internal inconsistency: a correctness check on a computed result failed."""


class NotMonic(RamliftError):
    """A polynomial that must be monic is not."""


class InvalidSetting(RamliftError):
    """An environment setting (RAMLIFT_ENUM_CAP) has an unusable value."""


class NotComposable(RamliftError):
    pass


class IncompatibleLengths(RamliftError):
    pass
