"""Field containers: scalar and vector samples, boundary Fourier series, maps.

A field stores one read-only numpy array values[..., i_r, j_theta] in
radius-major layout.  A ScalarField has no leading axis; a VectorField
has one of length 2 holding its Cartesian components, values[0] = x and
values[1] = y, so derivative passes and evaluations take every component
in one call.  Instances are immutable; every operation returns a new
object.
"""

import numpy as np

from ..errors import NonFiniteError

__all__ = ["ScalarField", "VectorField", "BoundaryFunction", "DiskMap",
           "identity_map", "rotation_map"]


class _Field:
    """Samples of one field on a grid; _lead is the shape of the axes
    in front of (n_r, n_theta)."""

    __slots__ = ("grid", "values")
    _lead = ()

    def __init__(self, grid, values):
        values = np.ascontiguousarray(values, dtype=float)
        shape = self._lead + (grid.n_r, grid.n_theta)
        if values.shape != shape:
            raise ValueError(
                f"{type(self).__name__} sample shape {values.shape} does not "
                f"match {shape}")
        if not np.isfinite(values).all():
            raise NonFiniteError(f"non-finite {type(self).__name__} samples")
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(cls._lead + (grid.n_r, grid.n_theta)))

    def __add__(self, other):
        return type(self)(self.grid, self.values + _samples(other))

    def __sub__(self, other):
        return type(self)(self.grid, self.values - _samples(other))

    def __mul__(self, other):
        return type(self)(self.grid, self.values * _samples(other))

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(self.grid, -self.values)


def _samples(operand):
    return operand.values if isinstance(operand, _Field) else operand


class ScalarField(_Field):
    __slots__ = ()

    @classmethod
    def from_function(cls, grid, fn):
        """Sample fn(x, y) at the nodes."""
        vals = np.asarray(fn(grid.xx, grid.yy), dtype=float)
        return cls(grid, np.broadcast_to(vals, grid.xx.shape))

    @classmethod
    def from_polar(cls, grid, fn):
        """Sample fn(r, theta) at the nodes."""
        vals = np.asarray(fn(grid.rr, grid.tt), dtype=float)
        return cls(grid, np.broadcast_to(vals, grid.rr.shape))


class VectorField(_Field):
    """Cartesian components on a shared grid: values[0] is x, values[1] is y."""

    __slots__ = ()
    _lead = (2,)

    @classmethod
    def from_arrays(cls, grid, vx, vy):
        return cls(grid, [vx, vy])


class BoundaryFunction:
    """Real function on the unit circle as a truncated Fourier series.

    coeffs[m] for m = 0 .. n_theta/2 are the two-sided series coefficients
    (c_{-m} = conj(c_m) implied): f(theta) = sum_{|m|<=n/2} c_m e^{i m theta}.
    The Nyquist entry stores the already-halved two-sided value, so the
    reconstruction rule has no special case.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (grid.n_modes,):
            raise ValueError(f"expected {grid.n_modes} boundary coefficients")
        if abs(coeffs[0].imag) > 1e-12 * (1 + abs(coeffs[0])) or \
           abs(coeffs[-1].imag) > 1e-12 * (1 + abs(coeffs[-1])):
            raise ValueError("m=0 and Nyquist coefficients of a real series must be real")
        coeffs = coeffs.copy()
        coeffs[0] = coeffs[0].real
        coeffs[-1] = coeffs[-1].real
        coeffs.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("BoundaryFunction is immutable")

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.n_modes, dtype=complex))

    @classmethod
    def from_samples(cls, grid, ring):
        ring = np.asarray(ring, dtype=float)
        if ring.shape != (grid.n_theta,):
            raise ValueError("boundary sample count must equal n_theta")
        C = grid.to_modes(ring) / grid.n_theta
        C[-1] *= 0.5
        return cls(grid, C)

    @classmethod
    def single_mode(cls, grid, m, amplitude):
        """amplitude*cos(m theta)."""
        c = np.zeros(grid.n_modes, dtype=complex)
        c[m] = amplitude if m == 0 else 0.5 * amplitude
        return cls(grid, c)

    def samples(self):
        C = self.coeffs.copy()
        C[-1] *= 2.0
        return self.grid.from_modes(C * self.grid.n_theta)

    def rfft_coeffs(self):
        """Coefficients in numpy rfft convention (for the modal solvers)."""
        C = self.coeffs * self.grid.n_theta
        C[-1] *= 2.0
        return C

    def max_abs(self):
        return float(np.abs(self.samples()).max())


class DiskMap:
    """Map of the disk written as identity plus a displacement field.

    kind is "diffeo" for volume-preserving maps of the disk to itself
    (beta, zeta) and "embedding" for maps whose image may leave the disk
    (eta, id + grad f).  The _cache slot memoizes expensive derived data
    on the immutable instance, all of it read-only: "inverse" holds the
    preimages of the nodes and their evaluation plan (invert_disk_map),
    "inverse_jacobian" the entries of D(map)^-1 (inverse_jacobian), and
    ("image_plan", clamp_tol) the plan of the node images under that
    clamp tolerance (compose).  A map derived from this one (w added,
    boundary renormalised) starts with an empty cache and holds no
    reference to this one, so no chain of maps is kept alive.
    """

    __slots__ = ("grid", "displacement", "kind", "_cache")

    def __init__(self, displacement, kind="diffeo"):
        if kind not in ("diffeo", "embedding"):
            raise ValueError(f"unknown DiskMap kind {kind!r}")
        object.__setattr__(self, "grid", displacement.grid)
        object.__setattr__(self, "displacement", displacement)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("DiskMap is immutable")

    def __add__(self, w):
        """The map with the vector field w added to its displacement."""
        return DiskMap(self.displacement + w, kind=self.kind)

    def image(self):
        """Node images as one (2, n_r, n_theta) array, x then y."""
        return self.grid.xy + self.displacement.values

    def image_points(self):
        """(n_r*n_theta, 2) array of node images."""
        return self.image().reshape(2, -1).T

    def renormalize_boundary(self):
        """Project the boundary ring radially back onto the unit circle."""
        m = self.image()
        m[:, -1, :] *= 1.0 / np.hypot(m[0, -1, :], m[1, -1, :])
        return DiskMap(VectorField(self.grid, m - self.grid.xy), kind=self.kind)


def identity_map(grid, kind="diffeo"):
    return DiskMap(VectorField.zeros(grid), kind=kind)


def rotation_map(grid, alpha):
    ca, sa = np.cos(alpha), np.sin(alpha)
    dx = ca * grid.xx - sa * grid.yy - grid.xx
    dy = sa * grid.xx + ca * grid.yy - grid.yy
    return DiskMap(VectorField.from_arrays(grid, dx, dy))
