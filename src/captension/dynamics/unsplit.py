"""Arbitration integrator: the free-surface flow without the splitting.

Advances (eta, etadot) directly under the Lagrangian law
eta_ddot = -(grad p) o eta, with the full pressure solved in one
Dirichlet problem on the reference disk: lap_eta q = -tr(G^2) with
boundary data k * curvature.  No decomposition, no per-step projection,
no operator algebra: a structurally different discretization of the
same equations, used to arbitrate sign and term choices in the split
system.  Run it coarse and short; without projection it has no
constraint repair.
"""

import numpy as np

from ..errors import DegenerateTangentError
from ..diskfield import (
    BoundaryFunction,
    ScalarField,
    VectorField,
    grad_values,
    gradient,
    map_jacobian,
)
from ..projections import solve_pulled_back_laplacian
from .states import rk4

__all__ = ["ring_curvature", "unsplit_acceleration", "step_unsplit"]


def ring_curvature(grid, cx, cy):
    """Signed curvature of a closed curve sampled at the theta nodes."""
    bx = BoundaryFunction.from_samples(grid, cx)
    by = BoundaryFunction.from_samples(grid, cy)
    d1x, d1y = bx.derivative(), by.derivative()
    tx, ty = d1x.samples(), d1y.samples()
    nx, ny = d1x.derivative().samples(), d1y.derivative().samples()
    speed = np.hypot(tx, ty)
    if speed.min() <= 0.5:
        raise DegenerateTangentError("boundary curve tangent degenerates")
    return (tx * ny - ty * nx) / speed ** 3


def unsplit_acceleration(eta, etadot, k):
    """-(grad p) o eta from one combined pressure solve."""
    grid = eta.grid
    j11, j12, j21, j22 = map_jacobian(eta)
    det = j11 * j22 - j12 * j21
    b11, b12 = j22 / det, -j12 / det
    b21, b22 = -j21 / det, j11 / det

    (m11, m21), (m12, m22) = grad_values(grid, etadot.values)
    g11 = m11 * b11 + m12 * b21
    g12 = m11 * b12 + m12 * b22
    g21 = m21 * b11 + m22 * b21
    g22 = m21 * b12 + m22 * b22
    rhs = -(g11 * g11 + 2.0 * g12 * g21 + g22 * g22)

    kappa = ring_curvature(grid, *eta.image()[:, -1, :])
    # a constant added to Dirichlet data shifts q by that constant and
    # leaves grad q alone; dropping the mean keeps the solve well scaled
    bdata = BoundaryFunction.from_samples(grid, k * (kappa - kappa.mean()))

    # stage states sit slightly off det = 1; the coefficients use the
    # exact pointwise inverse, so only the divergence-form identity
    # carries the O(det - 1) slack
    q = solve_pulled_back_laplacian(eta, ScalarField(grid, rhs), bdata,
                                    det_tol=1e-5)
    qx, qy = gradient(q).values
    return VectorField(grid, [-(b11 * qx + b21 * qy), -(b12 * qx + b22 * qy)])


def step_unsplit(eta, etadot, dt, k):
    """One RK4 step of the unprojected Lagrangian system."""
    return rk4(lambda y: (y[1], unsplit_acceleration(*y, k)),
               (eta, etadot), dt)
