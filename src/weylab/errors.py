"""Exception types shared across the package.

The types hold the CLI's exit-code policy: an error that is also a
ValueError is a bad config or a violated hypothesis (exit 2), any other
WeylabError is a numerical failure (exit 3).  Bad input with no type of its
own, such as a dilation factor below 1, raises a plain ValueError.
"""


class WeylabError(Exception):
    """Base class for all package errors."""


class NonConvergence(WeylabError):
    """An iteration did not converge: Newton refinement from a seed that
    should have converged, the Weyl quadtree, or the QR eigensolver."""


class ZeroOnContour(WeylabError):
    """|q_z| fell below tolerance on a winding-number contour sample."""


class MultipleEigenvalue(WeylabError):
    """Eigenvalue gap test failed; branch tracking is ill-defined."""


class BranchLoss(WeylabError):
    """Newton continuation left the basin of the tracked branch."""


class CutoffTooWide(WeylabError):
    """Requested cutoff support reaches a region where Im(phase) <= 0."""


class BandwidthExceeded(WeylabError, ValueError):
    """Fourier truncation too small for the coefficient bandwidth."""


class EmptyWindow(WeylabError, ValueError):
    """The admissible coupling window (lower, upper) is empty."""


class HypothesisViolation(WeylabError, ValueError):
    """An experiment precondition on the symbol/law/domain failed."""


class WindowViolation(WeylabError, ValueError):
    """Order/decay exponents violate the high-energy admissibility condition."""
