"""Exception hierarchy shared by all fakemu modules."""


class FakeMuError(Exception):
    """Base class for all package-specific errors."""


class ParseError(FakeMuError):
    """Malformed epsilon-sequence text."""


class DomainError(FakeMuError):
    """Input violates a mathematical domain requirement."""


class RangeError(FakeMuError):
    """Argument outside the supported evaluation region."""


class PoleError(FakeMuError):
    """Evaluation requested exactly at a pole."""


class CutError(FakeMuError):
    """Target point lies on (within 1e-9 of) a branch cut."""


class StepError(FakeMuError):
    """Analytic continuation step control underflowed its floor."""


class CapacityError(FakeMuError):
    """Request exceeds the configured memory/size cap."""


class ConsistencyError(FakeMuError):
    """Two independent internal estimates disagree beyond tolerance."""


class QuadratureError(FakeMuError):
    """G's Chebyshev interpolant on a cut did not converge by its degree cap."""


class GridError(FakeMuError):
    """Sample grid violates spacing/ordering requirements."""


class WindowError(FakeMuError):
    """Parameters (z, w) fall outside the treated window."""


class PlatformError(FakeMuError):
    """The platform's floating point is too narrow to keep the stated accuracy."""
