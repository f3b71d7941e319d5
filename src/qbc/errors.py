"""Exception taxonomy.

Every failure mode of the exact pipeline has its own class so that tests can
assert on the precise reason a computation refused to proceed.  All of them
derive from QbcError; nothing in this package raises a bare Exception for a
mathematical problem.  CacheError, a fault of the on-disk oracle store, is
kept outside that hierarchy so no handler can take it for a degenerate point.
"""


class QbcError(Exception):
    """Base class for all mathematical errors raised by this package."""


class DimensionMismatch(QbcError):
    """Two Laurent polynomials live on different variable counts or lattices."""


class InexactDivision(QbcError):
    """A polynomial division that was expected to be exact left a remainder.

    This is a correctness assertion: operator applications clear explicit
    denominators and divide back out, so a remainder means the input was not
    in the operator's polynomial domain (or a formula is wrong).
    """


class LengthError(QbcError):
    """A partition has more parts than the ambient variable count allows."""


class DivergentSpec(QbcError):
    """A basic hypergeometric sum was asked to terminate but no upper
    parameter is base^-M for an M up to the caller's bound."""


class PoleInLower(QbcError):
    """A lower Pochhammer factor vanished before the series terminated."""


class NonTerminating(QbcError):
    """A series that should truncate was still producing nonzero terms at the
    configured scan bound."""


class ParameterDegeneracy(QbcError):
    """The supplied parameter point makes a required denominator vanish or a
    required field is missing."""


class DegenerateEigenvalues(QbcError):
    """Two distinct dominant weights share an operator eigenvalue, so the
    triangular eigenproblem cannot be solved at this parameter point."""


class MissingSquareRoot(QbcError):
    """An exact rational square root was required but does not exist."""


class CacheError(Exception):
    """The oracle cache could not be read or written: its directory is a
    regular file, say, or is not writable.  Not a QbcError: the store is at
    fault, not the mathematics."""

    @classmethod
    def from_os_error(cls, exc: OSError, path) -> "CacheError":
        """'<path>: <reason>', naming the file the system call failed on."""
        return cls(f"{exc.filename or path}: {exc.strerror or exc}")
