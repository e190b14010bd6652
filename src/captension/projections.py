"""Leray-Hodge projections and the operators built on top of them.

The L2 decomposition w = Qw + Pw splits a vector field on the disk into
a full gradient and a divergence-free part tangent to the boundary:
Qw = grad g where g, the Hodge potential of w, solves the Neumann problem

    lap g = div w,   d_r g = <w, nu>  on the unit circle,

with zero mean, and P = I - Q.  It is one solve per angular mode of the
polar components of w, so no Cartesian component passes through the
Nyquist mode.  Q is the gradient of g, one derivative pass on its
samples like any other.  On the split sit the operators
L = id + D^2 f and the perturbative inverse of L1 = P L on the image of
P, both of which take a precomputed D^2 f, plus the pulled-back
Laplacian lap_xi used by the pressure solve on a deformed domain.
"""

import numpy as np

from .errors import NoConvergenceError, VolumeDefectError
from .diskfield import (
    BoundaryFunction,
    MemberSolve,
    ScalarField,
    VectorField,
    dirichlet_values,
    grad_values,
    gradient,
    hessian,
    inverse_jacobian,
    l2_norm_disk,
    solve_dirichlet,
)

__all__ = [
    "hodge_potential",
    "hodge_Q",
    "hodge_P",
    "apply_L",
    "solve_L1_inverse",
    "solve_pulled_back_laplacian",
    "TOL_L1",
    "TOL_ELL",
]

TOL_L1 = 1e-9
TOL_ELL = 1e-9


def hodge_potential(w):
    """The zero-mean g with Qw = grad g: one transform of the polar
    components (u_r, i u_theta), hodge_inv per angular mode (the member
    axis a batch axis of its products), one transform back."""
    g = w.grid
    wx, wy = w.values
    C = g.to_modes(np.stack([g.cos_t * wx + g.sin_t * wy,
                             g.cos_t * wy - g.sin_t * wx]))
    C[1] *= 1j
    # (..., n_modes, 2, n_r) in one copy: per mode (u_r, i u_theta)
    members = C.shape[1:-2]
    C = np.ascontiguousarray(C.transpose(
        tuple(range(1, C.ndim - 2)) + (C.ndim - 1, 0, C.ndim - 2))).view(float)
    sol = g.hodge_inv @ C.reshape(members + (g.n_modes, 2 * g.n_r, 2))
    return ScalarField(g, g.from_modes(sol.view(complex)[..., 0].swapaxes(-1, -2)))


def hodge_Q(w):
    """Gradient part of w: the gradient of its Hodge potential."""
    return gradient(hodge_potential(w))


def hodge_P(w):
    """Divergence-free tangent part of w (complement of hodge_Q)."""
    return w - hodge_Q(w)


def _hessian_apply(hess, w):
    """Pointwise matrix action (D^2 f) w from precomputed Hessian arrays."""
    fxx, fxy, fyx, fyy = hess
    wx, wy = w.values
    return VectorField(w.grid, [fxx * wx + fxy * wy, fyx * wx + fyy * wy])


def apply_L(w, hess):
    """L w = w + (D^2 f) w; hess is D^2 f as hessian(f) returns it."""
    return w + _hessian_apply(hess, w)


def solve_L1_inverse(f, target, hess=None):
    """Invert L1 = P L on the image of P by fixed-point iteration.

    Iterates w <- P(target - (D^2 f) w); the map contracts when the
    Hessian of f is small, which is the only regime in which L1 is known
    to be invertible.  The target is pre-projected because time stepping
    feeds in fields with harmless ~1e-12 gradient components.  hess is
    D^2 f, as for apply_L; without it, hessian(f) is taken.

    Raises NoConvergenceError when the residual fails to halve over a
    50-iteration window, the practical signal that f is too large.
    Members iterate in lockstep until every residual has passed, and
    each member returns its first passing iterate.
    """
    hess = hess or hessian(f)
    tgt = hodge_P(target)
    w = tgt
    solve = MemberSolve(TOL_L1, 50, 0.5,
                        "L1 inverse stalled at residual {:.3e} (Hessian too large)")
    for _ in range(5000):
        phw = hodge_P(_hessian_apply(hess, w))
        if solve.check(w.values, l2_norm_disk(w + phw - tgt)):
            return VectorField(w.grid, solve.result)
        w = tgt - phw
    raise NoConvergenceError(
        "L1 inverse: no convergence in 5000 iterations")


def solve_pulled_back_laplacian(xi, rhs, bdata=None, det_tol=1e-6):
    """Solve lap_xi g = rhs, g = bdata on the boundary circle, bdata the
    samples on the n_theta angles (one row per member), None for zero;
    returns (g, grad g), grad g as its accepting check took it:
    gradient(g)'s bits.

    lap_xi g = (lap(g o xi^-1)) o xi for a volume-preserving map xi.  In
    divergence form this is d_i(a_ij d_j g) with a = (Dxi)^-1 (Dxi)^-T,
    discretised directly on the reference disk and inverted by the
    preconditioned iteration g <- g + lap0^-1 (rhs - lap_xi g).

    The residual is measured in L2 over the interior rings only; on the
    r = 1 ring the Dirichlet condition, not the PDE, is enforced.  The
    tolerance is relative to the data scale, so large sources or large
    boundary values do not demand residuals below the roundoff floor.
    Members iterate in lockstep until every residual has passed, and
    each member returns its first passing iterate.  It iterates on
    (g, grad g) stacked in one array and builds fields for the accepted
    pair alone; finiteness is the calling step's check (states.rk4).
    """
    grid = rhs.grid
    if xi.grid is not grid:
        raise ValueError("map and source live on different grids")
    det, (b11, b12, b21, b22) = inverse_jacobian(xi)
    defect = np.abs(det - 1.0).max()
    if not defect <= det_tol:  # NaN fails it too
        raise VolumeDefectError(
            "pulled-back Laplacian needs a volume-preserving map "
            f"(max |det - 1| = {defect:.3e})")
    a12 = b11 * b21 + b12 * b22
    a = np.array([[b11 * b11 + b12 * b12, a12], [a12, b21 * b21 + b22 * b22]])

    def op(vals):  # lap_xi vals, and grad vals on the way
        grad = grad_values(grid, vals)
        dx, dy = grad_values(grid, (a * grad).sum(axis=1))
        return dx[0] + dy[1], grad

    def norm(vals):  # l2_norm_disk's bits
        return np.sqrt(grid.integrate(vals * vals))

    scale = np.maximum(1.0, norm(rhs.values))
    if bdata is not None:
        scale = np.maximum(scale, np.abs(bdata).max(axis=-1))
        bdata = BoundaryFunction.from_samples(grid, bdata)
    g = solve_dirichlet(rhs, bdata).values
    rhs = rhs.values
    # the top angular mode (n_theta is even) has no sine partner, so the
    # composed-derivative operator and the assembled preconditioner
    # disagree on it; the iteration corrects the resolved modes and
    # leaves that aliasing slack alone: each residual ring loses its
    # projection on the Nyquist samples s = (-1)^j (s . s = n_theta)
    s = (-1.0) ** np.arange(grid.n_theta)
    s_unit = s / grid.n_theta
    solve = MemberSolve(TOL_ELL, 20, 0.9,
                        "pulled-back Laplacian stalled at residual {:.3e}")
    for _ in range(400):
        lap, grad = op(g)
        resid = rhs - lap
        resid[..., -1, :] = 0.0
        resid -= (resid @ s)[..., None] * s_unit
        if solve.check(np.concatenate([g[None], grad]), norm(resid) / scale):
            g = solve.result
            return ScalarField(grid, g[0]), VectorField(grid, g[1:])
        g = g + dirichlet_values(grid, resid)
    raise NoConvergenceError(
        "pulled-back Laplacian: no convergence in 400 iterations")
