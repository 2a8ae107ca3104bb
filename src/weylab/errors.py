"""Exception types shared across the package."""


class WeylabError(Exception):
    """Base class for all package errors."""


class NonConvergence(WeylabError):
    """Newton refinement failed from a seed that should have converged."""


class ZeroOnContour(WeylabError):
    """|q_z| fell below tolerance on a winding-number contour sample."""


class NonPositiveLambda(WeylabError):
    """Dilation factor must be strictly positive."""


class LambdaBelowOne(WeylabError):
    """Dyadic decomposition requires lambda >= 1."""


class NoConvergence(WeylabError):
    """Iteration budget exhausted without meeting the tolerance."""


class BandwidthExceeded(WeylabError):
    """Fourier truncation too small for the coefficient bandwidth."""


class MultipleEigenvalue(WeylabError):
    """Eigenvalue gap test failed; branch tracking is ill-defined."""


class BranchLoss(WeylabError):
    """Newton continuation left the basin of the tracked branch."""


class CutoffTooWide(WeylabError):
    """Requested cutoff support reaches a region where Im(phase) <= 0."""


class EmptyWindow(WeylabError):
    """The admissible coupling window (lower, upper) is empty."""


class HypothesisViolation(WeylabError):
    """An experiment precondition on the symbol/law/domain failed."""


class WindowViolation(WeylabError):
    """Order/decay exponents violate the high-energy admissibility condition."""


class DegenerateFit(WeylabError):
    """Power-law fit is degenerate (all abscissae equal)."""
