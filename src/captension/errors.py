"""Exception types shared across the package.

The split matters to the command line driver: ConfigError exits with
status 3, everything deriving from SolverError exits with status 2.
"""


class CaptensionError(Exception):
    """Base class for all package errors."""


class ConfigError(CaptensionError):
    """Bad or inconsistent configuration input."""


class SolverError(CaptensionError):
    """Base class for numerical failures."""


class NoConvergenceError(SolverError):
    """An iterative solve stopped making progress before reaching tolerance."""


class NonFiniteError(SolverError):
    """A computed value is NaN or infinite: checked once per time step,
    on the increment of its RK4 step (dynamics.states.rk4), and on each
    value an output time records (harness.run)."""


class VolumeDefectError(SolverError):
    """A map handed to a volume-preserving solve is too far from det = 1."""


class PointOutsideDomainError(SolverError):
    """Interpolation was requested outside the closed unit disk."""


class DegenerateTangentError(SolverError):
    """The mapped boundary tangent became too short for curvature formulas."""


class RemainderBlowupError(SolverError):
    """A Taylor-remainder denominator crossed zero in the curvature expansion."""


class UnsupportedOrderError(CaptensionError):
    """A Sobolev order outside the implemented range was requested."""


class InversionFailureError(SolverError):
    """Pointwise Newton inversion of a disk map failed to converge."""


class InsufficientPointsError(CaptensionError):
    """Rate fitting needs at least three data points."""


class NonpositiveValueError(CaptensionError):
    """Rate fitting requires strictly positive values and k's."""
