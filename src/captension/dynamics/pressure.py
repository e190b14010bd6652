"""The capillary pressure of the free-surface flow, on the reference disk.

Both integrators take their pressure from pressure_gradient.  Seen
through an embedding eta of the reference disk, the pressure q = p o eta
solves one Dirichlet problem

    lap_eta q = -tr(G^2),   q = k (kappa - mean kappa) on the circle,

with G the velocity gradient transported through eta and kappa the
curvature of the moving boundary.  The analysis splits p = p0 + k A_H
into a velocity part and a harmonic curvature part; both parts share
the operator, so their sum is one linear solve.  The solve happens on
the fixed disk, so no inverse map is ever formed.

What pins this routine is analytic: the rigid-rotation pressure
grad p = (x, y), criterion 04 (rotation tracked), criterion 05 (energy)
and criterion 07 (omega^2 = k m (m^2 - 1)).  The split-vs-unsplit
oracle of criterion 09 arbitrates only what the two integrators do
differently around it.
"""

import numpy as np

from ..diskfield import (
    ScalarField,
    VectorField,
    grad_values,
    inverse_jacobian,
)
from ..projections import apply_L, solve_pulled_back_laplacian
from ..shape import boundary_curvature

__all__ = ["pressure_gradient", "pullback_velocity"]


def pullback_velocity(state, grad_fdot, hess_f):
    """w = grad fdot + L v, the fluid velocity seen at reference points,
    from grad fdot and D^2 f."""
    return grad_fdot + apply_L(state.v, hess_f)


def pressure_gradient(eta, w, k, det_tol=1e-6, jacobian=None):
    """(Deta)^-T grad q: the pressure gradient at eta, pulled back.

    w is the velocity seen at reference points.  The source uses
    G = (Dw)(Deta)^-1; the identity tr(G^2) = -lap p keeps it first
    order in derivatives.  A constant in the boundary data shifts q and
    leaves grad q alone, so dropping the mean of kappa keeps the solve
    well scaled.  det_tol bounds |det Deta - 1| for the solve.  jacobian,
    the entries of Deta when the caller has them, spares their pass;
    without it, Deta shares Dw's pass.  With a member axis, k is a
    column of one k per member (see FreeBoundaryState.k_factor).
    """
    grid = eta.grid
    dx, dy = grad_values(grid, w.values if jacobian else np.concatenate(
        [eta.displacement.values, w.values]))
    _, (b11, b12, b21, b22) = inverse_jacobian(
        eta, jacobian or (1.0 + dx[0], dy[0], dx[1], 1.0 + dy[1]))
    (m11, m21), (m12, m22) = dx[-2:], dy[-2:]
    g11 = m11 * b11 + m12 * b21
    g12 = m11 * b12 + m12 * b22
    g21 = m21 * b11 + m22 * b21
    g22 = m21 * b12 + m22 * b22
    tr_g2 = g11 * g11 + 2.0 * g12 * g21 + g22 * g22

    kappa = boundary_curvature(eta.displacement)
    bdata = k * (kappa - kappa.mean(axis=-1, keepdims=True))
    qx, qy = solve_pulled_back_laplacian(
        eta, ScalarField(grid, -tr_g2), bdata, det_tol=det_tol)[1].values
    return VectorField(grid, [b11 * qx + b21 * qy, b12 * qx + b22 * qy])
