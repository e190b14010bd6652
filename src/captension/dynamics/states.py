"""State containers for the two flows, their shared initial data, and
the RK4 step of every integrator.

The states and the energy report are NamedTuple records: immutable,
new copies by `_replace`, and no methods generated at import.
"""

from typing import NamedTuple

import numpy as np

from ..errors import NonFiniteError
from ..diskfield import (
    DiskMap,
    ScalarField,
    VectorField,
    gradient,
    identity_map,
    laplacian,
)
from ..projections import hodge_P


class FreeBoundaryState(NamedTuple):
    """Decomposed free-surface flow: eta = (id + grad f) o beta.

    f and fdot are the boundary-oscillation potential and its rate, v is
    the interior velocity (divergence free, boundary tangent) that
    transports gamma = beta^-1 on the fixed disk, and k the surface
    tension coefficient.  With a member axis on every field, k is a
    tuple of one k per member; time is shared.
    """

    f: ScalarField
    fdot: ScalarField
    v: VectorField
    gamma: DiskMap
    time: float
    k: float

    @classmethod
    def from_velocity(cls, grid, u0, k):
        """Undeformed start at t = 0: f = fdot = 0, gamma = id, v = P u0;
        one member per k when k is a sequence."""
        v = hodge_P(u0)
        if np.ndim(k) == 0:
            return cls(f=ScalarField.zeros(grid), fdot=ScalarField.zeros(grid),
                       v=v, gamma=identity_map(grid), time=0.0, k=float(k))
        ks = tuple(float(x) for x in k)
        grid = grid.with_members(len(ks))
        f = ScalarField.zeros(grid)
        return cls(f=f, fdot=f, v=VectorField(grid, np.repeat(
            v.values[:, None], len(ks), axis=1)), gamma=identity_map(grid),
                   time=0.0, k=ks)

    @property
    def k_factor(self):
        """k as a factor of samples shaped (..., [M,] n): a float, or a
        column of one k per member."""
        return self.k if np.ndim(self.k) == 0 else np.array(self.k)[:, None]

    def take(self, index):
        """The state of member index alone (an int), or of the members
        listed (an array)."""
        return FreeBoundaryState(
            f=self.f.take(index), fdot=self.fdot.take(index),
            v=self.v.take(index), gamma=self.gamma.take(index), time=self.time,
            k=self.k[index] if np.ndim(index) == 0
            else tuple(self.k[i] for i in index))


class FixedEulerState(NamedTuple):
    """Fixed-disk incompressible flow: the Lagrangian map zeta, its rate
    zetadot, and the Eulerian velocity u with zetadot = u o zeta, which
    the step keeps to time-stepping accuracy and does not impose."""

    zeta: DiskMap
    zetadot: VectorField
    u: VectorField
    time: float

    @classmethod
    def from_velocity(cls, grid, u0):
        """Undeformed start at t = 0: zeta = id, zetadot = u = P u0."""
        u = hodge_P(u0)
        return cls(zeta=identity_map(grid), zetadot=u, u=u, time=0.0)


class EnergyReport(NamedTuple):
    kinetic: float
    potential: float
    E: float


def stream_function_field(grid, m, amplitude):
    """psi = amplitude (1 - r^2)^2 r^m cos(m theta); vanishes on the circle."""
    def psi(r, t):
        return amplitude * (1.0 - r ** 2) ** 2 * r ** m * np.cos(m * t)

    return ScalarField.from_polar(grid, psi)


def stream_initial_velocity(grid, m, amplitude):
    """Divergence-free, boundary-tangent velocity from the stream function."""
    return rotated_gradient(stream_function_field(grid, m, amplitude))


def rotated_gradient(psi):
    """The velocity (-d_y psi, d_x psi) of a stream function psi."""
    gx, gy = gradient(psi).values
    return VectorField(psi.grid, [-gy, gx])


def stream_initial_vorticity(grid, m, amplitude):
    """Vorticity of the same initial velocity (for the transport oracle)."""
    return laplacian(stream_function_field(grid, m, amplitude))


def solid_rotation_velocity(grid):
    return VectorField.from_arrays(grid, -grid.yy, grid.xx)


def rk4(rhs, y, dt):
    """One classical RK4 step of y' = rhs(y) for a tuple state y.

    rhs returns a tuple of rates matching y; each element of y needs
    only `element + rate` and each rate `float * rate` (a DiskMap adds a
    displacement rate).  Stages are y + h*k and the step is
    y + (dt/6)*(k1 + 2*k2 + 2*k3 + k4), element by element; stage one
    sees y itself, so data cached on its elements is reused.  Every
    stage's rate enters the increment (dt/6)*(...), which is checked
    once: a NaN or inf met at any stage raises NonFiniteError here.
    """
    def stage(k, h):
        return tuple(yi + h * ki for yi, ki in zip(y, k))

    k1 = rhs(y)
    k2 = rhs(stage(k1, 0.5 * dt))
    k3 = rhs(stage(k2, 0.5 * dt))
    k4 = rhs(stage(k3, dt))
    s = dt / 6.0
    steps = [s * (a + 2.0 * b + 2.0 * c + d) for a, b, c, d in zip(k1, k2, k3, k4)]
    if not all(np.isfinite(getattr(r, "values", r)).all() for r in steps):
        raise NonFiniteError("non-finite increment in an RK4 step")
    return tuple(yi + r for yi, r in zip(y, steps))
