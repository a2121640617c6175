"""Exception hierarchy for bftorus.

Every error raised deliberately by this package derives from
:class:`BFTorusError`, so callers (and the CLI) can catch precondition
failures in one place without swallowing genuine bugs.
"""


class BFTorusError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(BFTorusError):
    """A matrix inverse was requested but the determinant is zero."""


class NonIntegralResult(BFTorusError):
    """Evaluating g(A) produced a non-integer entry."""


class NotMonic(BFTorusError):
    """The operation requires a monic polynomial."""


class FactorizationIncomplete(BFTorusError):
    """An integer could not be fully factored within the configured budget."""


class BudgetExceeded(BFTorusError):
    """An exhaustive search ran out of its candidate budget undecided."""


class ZeroInverse(BFTorusError):
    """Attempted to invert the zero field element."""


class NotFullRank(BFTorusError):
    """Generators span a proper subspace instead of a full-rank lattice."""


class NotASublattice(BFTorusError):
    """Expected one lattice to be contained in another, but it is not."""


class ReduciblePolynomial(BFTorusError):
    """The operation requires an irreducible characteristic polynomial."""


class CharPolyMismatch(BFTorusError):
    """The two matrices do not share a characteristic polynomial."""


class DegeneratePeriod(BFTorusError):
    """det(A^k - I) = 0: the k-periodic points do not form a finite group."""
