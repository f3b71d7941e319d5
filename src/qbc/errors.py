"""Exception taxonomy.

Every failure mode of the exact pipeline has its own class so that tests can
assert on the precise reason a computation refused to proceed.  All of them
derive from QbcError; nothing in this package raises a bare Exception for a
mathematical problem.
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
