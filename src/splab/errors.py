"""Exception taxonomy.

Every failure mode that callers are expected to branch on gets a named class
so library users (and the CLI exit-code mapping) can distinguish degenerate
input from numerical breakdown.
"""


class SplabError(Exception):
    """Base class for all library errors."""


class InvalidMatrix(SplabError):
    """Matrix construction input is malformed (non-finite entries, bad shape)."""


class ShapeMismatch(SplabError):
    """Operands have incompatible shapes."""


class RankDeficient(SplabError):
    """A factorization precondition on full column rank failed."""


class Singular(SplabError):
    """A square system is singular to working precision."""


class ConvergenceFailure(SplabError):
    """An iterative kernel failed to converge or a residual check failed."""


class NotDiagonalizable(SplabError):
    """Eigenvector basis condition number exceeds the cap (Jordan-like input)."""


class NotOrthonormal(SplabError):
    """An input expected to have orthonormal columns does not."""


class CrossCheckFailure(SplabError):
    """Two mathematically equivalent formulas disagree beyond tolerance."""


class EmptySide(SplabError):
    """A spectral selector captured all or none of the eigenvalues."""


class BoundaryAmbiguity(SplabError):
    """An eigenvalue sits within tolerance of a disk-selector boundary."""


class AssignmentAmbiguous(SplabError):
    """Two eigenvalue assignments have nearly equal cost across the split."""


class GapViolated(SplabError):
    """A required eigengap is zero; downstream quantities are undefined."""


class EnclosureViolated(SplabError):
    """A contour does not cleanly separate the two spectral sets."""


class ResolventSingular(SplabError):
    """A quadrature node is too close to an eigenvalue."""


class SpecViolation(SplabError):
    """Example-family parameters violate their validity guards."""


class IndexOutOfRange(SplabError):
    """A matrix index is outside the valid 1..n range."""
