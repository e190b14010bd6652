"""Field containers: scalar and vector samples, boundary Fourier series, maps.

A field stores one read-only numpy array values[..., i_r, j_theta] in
radius-major layout.  A ScalarField has no leading axis; a VectorField
has one of length 2 holding its Cartesian components, values[0] = x and
values[1] = y, so derivative passes and evaluations take every component
in one call.  Instances are immutable; every operation returns a new
object.

A field on a grid with M members (grid.with_members(M)) carries a
member axis of length M just before (n_r, n_theta): M fields of one
kind stepped together, such as the k of a sweep.  A BoundaryFunction
carries it before its modes.  Member i of every operation has the bits
of that operation on member i alone.
"""

import numpy as np

from ..errors import NoConvergenceError, NonFiniteError

__all__ = ["ScalarField", "VectorField", "BoundaryFunction", "DiskMap",
           "identity_map", "rotation_map", "MemberSolve"]


class _Field:
    """Samples of one field on a grid; _lead is the shape of the axes
    in front of the member axis, if any, and (n_r, n_theta)."""

    __slots__ = ("grid", "values")
    _lead = ()

    def __init__(self, grid, values):
        values = np.ascontiguousarray(values, dtype=float)
        shape = self._lead + grid.sample_shape
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

    @property
    def members(self):
        """The length of the member axis, None without one."""
        return self.grid.members

    def take(self, index):
        """Member index alone (an int) or the members listed (an array)."""
        members = None if np.ndim(index) == 0 else len(index)
        return type(self)(self.grid.with_members(members),
                          self.values[..., index, :, :])

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(cls._lead + grid.sample_shape))

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


def _ring_product(transform, rings):
    """transform of every ring as a one-row product of its own: as rows
    of one product the members would take other bits than a ring alone,
    and a lone ring takes the bits of its plain transform."""
    return transform(rings[..., None, :])[..., 0, :]


class ScalarField(_Field):
    __slots__ = ()

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

    coeffs holds the grid's own layout, grid.to_modes of the samples:
    the numpy rfft coefficients C_m for m = 0 .. n_theta/2, so that
    f(theta_j) = (1/n) sum_{|m|<=n/2} C_m e^{i m theta_j} with
    C_{-m} = conj(C_m) and the Nyquist term counted once.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        shape = grid.member_shape + (grid.n_modes,)
        if coeffs.shape != shape:
            raise ValueError(f"BoundaryFunction coefficient shape "
                             f"{coeffs.shape} does not match {shape}")
        ends = coeffs[..., ::grid.n_modes - 1]  # modes 0 and Nyquist
        if (np.abs(ends.imag) > 1e-12 * (1 + np.abs(ends))).any():
            raise ValueError("m=0 and Nyquist coefficients of a real series must be real")
        coeffs = coeffs.copy()
        coeffs[..., ::grid.n_modes - 1] = ends.real
        coeffs.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("BoundaryFunction is immutable")

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.member_shape + (grid.n_modes,),
                                  dtype=complex))

    @classmethod
    def from_samples(cls, grid, ring):
        """From samples on the n_theta angles, one row per member."""
        ring = np.asarray(ring, dtype=float)
        if ring.shape[-1] != grid.n_theta:
            raise ValueError("boundary sample count must equal n_theta")
        return cls(grid, _ring_product(grid.to_modes, ring))

    def samples(self):
        return _ring_product(self.grid.from_modes, self.coeffs)


class DiskMap:
    """Map of the disk written as identity plus a displacement field.

    kind is "diffeo" for volume-preserving maps of the disk to itself
    (gamma, zeta) and "embedding" for maps whose image may leave the
    disk (eta, id + grad f).  The _cache slot memoizes expensive derived
    data on the immutable instance, all of it read-only, each entry
    written and read by one function: "inverse" holds the preimages of
    the nodes and their evaluation plan (invert_disk_map), and
    "inverse_jacobian" det D(map) and the entries of D(map)^-1
    (inverse_jacobian).  No plan of the node images is kept: compose
    builds one per call.  A map derived from this one (w added, boundary
    renormalised) starts with an empty cache and holds no reference to
    this one, so no chain of maps is kept alive.
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

    def take(self, index):
        """The map of member index alone, or of the members listed."""
        return DiskMap(self.displacement.take(index), kind=self.kind)

    def _nodes(self):
        """grid.xy, broadcastable against the displacement's samples."""
        xy = self.grid.xy
        return xy if self.grid.members is None else xy[:, None]

    def image(self):
        """Node images as one (2, [M,] n_r, n_theta) array, x then y."""
        return self._nodes() + self.displacement.values

    def image_points(self):
        """(n_r*n_theta, 2) array of node images."""
        return self.image().reshape(2, -1).T

    def renormalize_boundary(self):
        """Project the boundary ring radially back onto the unit circle."""
        m = self.image()
        m[..., -1, :] *= 1.0 / np.hypot(m[0, ..., -1, :], m[1, ..., -1, :])
        return DiskMap(VectorField(self.grid, m - self._nodes()), kind=self.kind)


def identity_map(grid, kind="diffeo"):
    return DiskMap(VectorField.zeros(grid), kind=kind)


def rotation_map(grid, alpha):
    ca, sa = np.cos(alpha), np.sin(alpha)
    dx = ca * grid.xx - sa * grid.yy - grid.xx
    dy = sa * grid.xx + ca * grid.yy - grid.yy
    return DiskMap(VectorField.from_arrays(grid, dx, dy))


class MemberSolve:
    """Convergence of a fixed-point iteration whose members iterate in
    lockstep.

    check(x, res) takes the iterate x, a field or a tuple of fields with
    or without a member axis, and its residual res, a float or one per
    member, once per iteration, and returns True once every member has
    passed: its residual below tol.  Every member iterates until then;
    result is x as each member first passed, its part of that iterate
    kept bit for bit.  A member yet to pass whose residual is not below
    factor times its residual `window` checks earlier raises
    NoConvergenceError, `stalled` formatted with that residual.
    """

    def __init__(self, tol, window, factor, stalled):
        self.tol, self.window, self.factor = tol, window, factor
        self.stalled = stalled
        self.result = None
        self._open = np.True_  # the members yet to pass
        self._history = []

    def check(self, x, res):
        new = np.less(res, self.tol) & self._open
        if new.any():
            self.result = x if self.result is None else _select(new, x, self.result)
            self._open = self._open ^ new
            if not self._open.any():
                return True
        h, window = self._history, self.window
        if len(h) >= window:
            # a member that passed sits at roundoff and is not checked;
            # np.less keeps ~ boolean (on a Python bool it gives -1 or -2)
            stuck = self._open & ~np.less(res, self.factor * h[-window])
            if stuck.any():
                raise NoConvergenceError(
                    self.stalled.format(np.extract(stuck, res)[0]))
        h.append(res)
        return False


def _select(mask, x, y):
    """The fields of x on the members of mask and of y elsewhere."""
    if isinstance(x, tuple):
        return tuple(_select(mask, a, b) for a, b in zip(x, y))
    return type(x)(x.grid, np.where(mask[:, None, None], x.values, y.values))
