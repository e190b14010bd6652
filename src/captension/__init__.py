"""Free-boundary incompressible Euler flow with surface tension on the disk.

The embedding of the moving domain is factored as eta = (id + grad f) o beta
with beta a volume-preserving map of the disk and f a scalar potential; the
subpackages provide the spectral disk calculus, the Leray-Hodge projections,
the shape/curvature machinery, the coupled time steppers, and the experiment
harness that measures the large-surface-tension limit.
"""

from . import diskfield, projections, shape, dynamics, harness  # noqa: F401
from .errors import (CaptensionError, ConfigError, SolverError,
                     NoConvergenceError, PointOutsideDomainError,
                     DegenerateTangentError, RemainderBlowupError,
                     UnsupportedOrderError, InversionFailureError,
                     InsufficientPointsError, NonpositiveValueError,
                     NonFiniteError, VolumeDefectError)

__version__ = "0.1.0"
