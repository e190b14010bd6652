"""The split pressure of the free-surface flow, on the reference disk.

The pressure is a sum p = p0 + k*A_H: an interior part driven by the
velocity and a boundary part that harmonically extends the curvature.
Both solves happen on the fixed disk through the graph map
eta = id + grad f, so no inverse map is ever formed.
"""

import numpy as np

from ..diskfield import (
    BoundaryFunction,
    DiskMap,
    ScalarField,
    VectorField,
    grad_values,
    gradient,
    inverse_jacobian,
)
from ..projections import apply_L, solve_pulled_back_laplacian
from ..shape import curvature_exact
from .states import PressureSolution

__all__ = ["pressure_solve", "pullback_velocity"]


def pullback_velocity(state):
    """w = grad fdot + L v, the fluid velocity seen at reference points."""
    return gradient(state.fdot) + apply_L(state.f, state.v)


def pressure_solve(state):
    """Solve both pressure parts and assemble the pulled-back gradient.

    The interior part obeys lap_eta q0 = -tr(G^2) with zero boundary
    data, where G is the velocity gradient transported through eta; the
    identity keeps the source first order in derivatives.  The boundary
    part is harmonic with trace curvature - 1.  The assembled gradient
    is (Deta)^-T (grad q0 + k grad AH_hat).
    """
    grid = state.f.grid
    eta = DiskMap(gradient(state.f), kind="embedding")
    _, (b11, b12, b21, b22) = inverse_jacobian(eta)

    w = pullback_velocity(state)
    (m11, m21), (m12, m22) = grad_values(grid, w.values)
    g11 = m11 * b11 + m12 * b21
    g12 = m11 * b12 + m12 * b22
    g21 = m21 * b11 + m22 * b21
    g22 = m21 * b12 + m22 * b22
    tr_g2 = g11 * g11 + 2.0 * g12 * g21 + g22 * g22

    q0 = solve_pulled_back_laplacian(eta, ScalarField(grid, -tr_g2))

    kappa = curvature_exact(state.f)
    shifted = np.array(kappa.coeffs)
    shifted[0] -= 1.0
    ah = solve_pulled_back_laplacian(eta, ScalarField.zeros(grid),
                                     BoundaryFunction(grid, shifted))

    sx, sy = (gradient(q0) + state.k * gradient(ah)).values
    grad_p = VectorField(grid, [b11 * sx + b21 * sy, b12 * sx + b22 * sy])
    return PressureSolution(q0=q0, AH_hat=ah, grad_p_pullback=grad_p)
