"""Exception hierarchy for edgewatch.

Every numerical failure mode raises a subclass of SpectralError so the CLI
can map them uniformly to exit code 3.
"""


class SpectralError(Exception):
    """Base class for all edgewatch numerical errors."""


class RootFindingFailure(SpectralError):
    """The band table is refused: its bands overlap, or a transfer product
    at a band edge could overflow."""


class OutsideSpectrum(SpectralError):
    """Energy does not lie in (or near enough to) any spectral band."""


class EdgeSingularity(SpectralError):
    """Density of states requested too close to a band edge."""


class DegenerateS(SpectralError):
    """Phase numerator vanished; boundary phase is undefined there."""


class NotAnEdge(SpectralError):
    """Energy does not match any recorded band edge."""


class ConvergenceFailure(SpectralError):
    """An eigenvector failed its residual check."""

    def __init__(self, index, residual, message=None):
        self.index = index
        self.residual = residual
        super().__init__(message or f"eigenvector residual check failed at "
                                    f"index {index} (residual {residual:.3e})")


class AmbiguousAssignment(SpectralError):
    """An eigenvalue matched more than one band within tolerance."""


class TooFewPoints(SpectralError):
    """Not enough data points for the requested table or fit."""


class PoleHit(SpectralError):
    """Evaluation point coincides with an eigenvalue pole."""


class OnBranchCut(SpectralError):
    """Energy lies on a branch cut of the square-root phase."""


class NoConvergence(SpectralError):
    """Newton refinement did not reach the residual tolerance."""

    def __init__(self, last_iterate, residual, iterations, message=None):
        self.last_iterate = last_iterate
        self.residual = residual
        self.iterations = iterations
        super().__init__(message or f"no convergence after {iterations} iterations "
                                    f"(residual {residual:.3e} at {last_iterate})")


class AdaptiveDepthExceeded(SpectralError):
    """Contour phase could not be tracked to the subdivision depth cap."""


class EdgeTooCloseToEigenvalue(SpectralError):
    """A vertical contour edge passes too close to an eigenvalue pole."""


class NonGenericEdge(SpectralError):
    """Band edge fails the genericity condition required by the sweep."""


class UniquenessFailed(SpectralError):
    """A resonance box did not contain exactly one resonance."""

    def __init__(self, n, count, message=None):
        self.n = n
        self.count = count
        super().__init__(message or f"box n={n} contains {count} resonances, expected 1")


class EigenvalueInInterval(SpectralError):
    """The supposedly eigenvalue-free real interval contains an eigenvalue."""

    def __init__(self, eigenvalue, message=None):
        self.eigenvalue = eigenvalue
        super().__init__(message or f"eigenvalue {eigenvalue} inside the interval")


class EmptyRegion(SpectralError):
    """The requested sampling region has empty interior."""


class DegenerateData(SpectralError):
    """Fit input is degenerate (e.g. all abscissae equal)."""
