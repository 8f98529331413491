"""Exception types shared across the package."""


class ExpzerosError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(ExpzerosError):
    """A value that must be prime is not."""


class FieldTooLarge(ExpzerosError):
    """Requested field cardinality exceeds the supported range."""


class FieldMismatch(ExpzerosError):
    """Elements of different fields were combined."""


class DivisionByZero(ExpzerosError, ZeroDivisionError):
    """Inversion or division by the zero element."""


class ZeroElement(ExpzerosError):
    """A unit was required but the zero element was given."""


class CapExceeded(ExpzerosError):
    """An enumeration or simulation cap was exceeded."""


class MemoryCap(ExpzerosError):
    """A lookup table would exceed its memory budget."""


class Overflow(ExpzerosError):
    """An integer quantity left its required range (e.g. 64-bit box size)."""


class BadDelta(ExpzerosError):
    """Census parameter delta outside (0, sqrt(q)]."""


class BadCounts(ExpzerosError):
    """Invalid (t, m, k) combination for a query-model routine."""


class HypothesisFailed(ExpzerosError):
    """An instance fails the size hypothesis required by a cost model."""


class OrderMismatch(ExpzerosError):
    """An element does not have the multiplicative order it was claimed to."""


class IndexOutOfRange(ExpzerosError, IndexError):
    """An exponent vector lies outside its search box."""


class InvariantViolated(ExpzerosError):
    """An internal consistency check failed: a bug, not a bad input.

    Raised in place of `assert`, so the check still runs under python -O.
    """
