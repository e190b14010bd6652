"""Spectral calculus on disk fields: derivatives, interpolation, composition.

Cartesian derivatives are assembled pointwise from the polar ones,

    d_x = cos(theta) d_r - (sin(theta)/r) d_theta,
    d_y = sin(theta) d_r + (cos(theta)/r) d_theta,

which is safe because the grid has no node at r = 0 and smooth fields keep
(1/r) d_theta bounded.  The Laplacian is NOT built from these (it uses the
per-mode polar form cached on the grid), so divergence(gradient(f)) vs
laplacian(f) is a genuine two-route consistency check.
"""

import numpy as np

from ..errors import ConfigError, PointOutsideDomainError
from .fields import BoundaryFunction, DiskMap, ScalarField, VectorField

__all__ = ["gradient", "divergence", "laplacian", "hessian", "evaluate_at",
           "evaluate_vector_at", "compose", "jacobian_det", "map_jacobian",
           "inverse_jacobian", "restrict_boundary",
           "normal_derivative_boundary", "dx_values", "dy_values"]


def dx_values(grid, values):
    A = grid.dr(values)
    B = grid.dtheta(values) * grid.inv_r
    return grid.cos_t * A - grid.sin_t * B


def dy_values(grid, values):
    A = grid.dr(values)
    B = grid.dtheta(values) * grid.inv_r
    return grid.sin_t * A + grid.cos_t * B


def gradient(f):
    g = f.grid
    A = g.dr(f.values)
    B = g.dtheta(f.values) * g.inv_r
    return VectorField.from_arrays(g, g.cos_t * A - g.sin_t * B,
                                   g.sin_t * A + g.cos_t * B)


def divergence(w):
    g = w.grid
    return ScalarField(g, dx_values(g, w.x.values) + dy_values(g, w.y.values))


def laplacian(f):
    g = f.grid
    return ScalarField(g, g.apply_modal(g.lap_stack, f.values))


def hessian(f):
    """Second Cartesian derivatives as raw arrays (fxx, fxy, fyx, fyy).

    The two mixed entries are computed independently; they agree to
    spectral roundoff and both are kept so determinant formulas stay
    algebraically consistent with the factored first derivatives.
    """
    g = f.grid
    fx = dx_values(g, f.values)
    fy = dy_values(g, f.values)
    return dx_values(g, fx), dy_values(g, fx), dx_values(g, fy), dy_values(g, fy)


def _interp_rings(grid, coeff_rings, r0, theta0):
    """Barycentric radial interpolation of per-ring Fourier data.

    coeff_rings: (n_r, n_modes) rfft coefficients of each ring.
    Returns values at (r0[i], theta0[i]).
    """
    n = grid.n_theta
    phases = np.exp(1j * np.outer(theta0, grid.modes))  # (P, M)
    scale = np.full(grid.n_modes, 2.0 / n)
    scale[0] = 1.0 / n
    if n % 2 == 0:
        scale[-1] = 1.0 / n
    E = phases * scale
    vals_pos = (E @ coeff_rings.T).real            # (P, n_r) rings at theta0
    signs = np.where(grid.modes % 2 == 0, 1.0, -1.0)
    vals_neg = ((E * signs) @ coeff_rings.T).real  # rings at theta0 + pi

    # assemble the doubled radial profile per point, full-grid node order
    nfull = grid.x_full.size
    prof = np.empty((r0.size, nfull))
    prof[:, grid.pos_full] = vals_pos
    prof[:, grid.neg_full] = vals_neg

    diff = r0[:, None] - grid.x_full[None, :]
    exact = np.abs(diff) < 1e-14
    diff_safe = np.where(exact, 1.0, diff)
    c = grid.bary_weights[None, :] / diff_safe
    numer = (c * prof).sum(axis=1)
    denom = c.sum(axis=1)
    out = numer / denom
    hit = exact.any(axis=1)
    if np.any(hit):
        idx = exact[hit].argmax(axis=1)
        out[hit] = prof[hit, idx]
    return out


def _clamp_points(grid, points, tol):
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[None, :]
    x, y = points[:, 0], points[:, 1]
    r0 = np.hypot(x, y)
    over = r0 > 1.0 + tol
    if np.any(over):
        worst = float(r0.max())
        raise PointOutsideDomainError(
            f"evaluation point outside the closed disk (|p| = {worst:.6g})")
    theta0 = np.arctan2(y, x)
    return r0, theta0


def _node_snap(grid, r0, theta0):
    """Detect queries that coincide with grid nodes (up to roundoff).

    Returns (mask, i_idx, j_idx); snapped queries return stored samples
    bit-exactly rather than going through the interpolation arithmetic.
    """
    dtheta = 2.0 * np.pi / grid.n_theta
    j = np.round(theta0 / dtheta).astype(int) % grid.n_theta
    ang_err = np.abs(theta0 - 2.0 * np.pi * np.round(theta0 / dtheta) / grid.n_theta)
    i = np.clip(np.searchsorted(grid.r, r0), 0, grid.n_r - 1)
    i_lo = np.clip(i - 1, 0, grid.n_r - 1)
    rad_err = np.abs(grid.r[i] - r0)
    rad_err_lo = np.abs(grid.r[i_lo] - r0)
    use_lo = rad_err_lo < rad_err
    i = np.where(use_lo, i_lo, i)
    rad_err = np.minimum(rad_err, rad_err_lo)
    mask = (rad_err < 1e-13) & (ang_err < 1e-13)
    return mask, i, j


def evaluate_at(f, points, *, clamp_tol=1e-12):
    """Interpolate a ScalarField at plane points (array-like (P, 2)).

    Exact trigonometric evaluation in theta, barycentric polynomial
    evaluation in r over the doubled node set.  Points whose radius
    overshoots 1 by at most clamp_tol are evaluated by the radial
    polynomial's natural extension (time-stepper stages land there);
    anything further outside raises.  Grid-node queries reproduce the
    stored samples bit-exactly.
    """
    r0, theta0 = _clamp_points(f.grid, points, clamp_tol)
    C = f.grid.to_modes(f.values)
    out = _interp_rings(f.grid, C, r0, theta0)
    mask, i, j = _node_snap(f.grid, r0, theta0)
    if np.any(mask):
        out[mask] = f.values[i[mask], j[mask]]
    return out


def evaluate_vector_at(w, points, *, clamp_tol=1e-12):
    r0, theta0 = _clamp_points(w.grid, points, clamp_tol)
    Cx = w.grid.to_modes(w.x.values)
    Cy = w.grid.to_modes(w.y.values)
    out = np.column_stack([_interp_rings(w.grid, Cx, r0, theta0),
                           _interp_rings(w.grid, Cy, r0, theta0)])
    mask, i, j = _node_snap(w.grid, r0, theta0)
    if np.any(mask):
        out[mask, 0] = w.x.values[i[mask], j[mask]]
        out[mask, 1] = w.y.values[i[mask], j[mask]]
    return out


# Diffeomorphisms of the disk are only required to hold the boundary circle
# to tol_bdry = 1e-9, so composition clamps with a matching slack rather
# than the raw interpolation default.
_COMPOSE_CLAMP = 1e-8


def compose(f, g, *, clamp_tol=None):
    """f after g: sample f at the image points of the disk map g.

    clamp_tol widens the boundary-overshoot allowance; time-step stage
    maps drift outside the circle by O(dt^2) and need more slack than
    a converged diffeomorphism.
    """
    if not isinstance(g, DiskMap):
        raise ConfigError("compose expects a DiskMap on the right")
    if g.kind != "diffeo":
        raise ConfigError("compose requires a diffeomorphism of the disk")
    if clamp_tol is None:
        clamp_tol = _COMPOSE_CLAMP
    pts = g.image_points()
    grid = g.grid
    shape = (grid.n_r, grid.n_theta)
    if isinstance(f, ScalarField):
        return ScalarField(grid, evaluate_at(f, pts, clamp_tol=clamp_tol).reshape(shape))
    if isinstance(f, VectorField):
        vals = evaluate_vector_at(f, pts, clamp_tol=clamp_tol)
        return VectorField.from_arrays(grid, vals[:, 0].reshape(shape),
                                       vals[:, 1].reshape(shape))
    raise ConfigError("compose expects a ScalarField or VectorField on the left")


def jacobian_det(g):
    """Determinant of D(map) at every node, map = id + displacement."""
    grid = g.grid
    ax = g.displacement.x.values
    ay = g.displacement.y.values
    j11 = 1.0 + dx_values(grid, ax)
    j12 = dy_values(grid, ax)
    j21 = dx_values(grid, ay)
    j22 = 1.0 + dy_values(grid, ay)
    return ScalarField(grid, j11 * j22 - j12 * j21)


def map_jacobian(g):
    """The four entries of D(map) as arrays (j11, j12, j21, j22)."""
    grid = g.grid
    ax = g.displacement.x.values
    ay = g.displacement.y.values
    return (1.0 + dx_values(grid, ax), dy_values(grid, ax),
            dx_values(grid, ay), 1.0 + dy_values(grid, ay))


def inverse_jacobian(g):
    """det D(map) and the entries (b11, b12, b21, b22) of D(map)^-1."""
    j11, j12, j21, j22 = map_jacobian(g)
    det = j11 * j22 - j12 * j21
    return det, (j22 / det, -j12 / det, -j21 / det, j11 / det)


def restrict_boundary(f):
    return BoundaryFunction.from_samples(f.grid, f.values[-1, :])


def normal_derivative_boundary(f):
    """d_r f on the r = 1 ring as a BoundaryFunction."""
    g = f.grid
    C = g.to_modes(f.values)  # (n_r, M)
    out = np.einsum("mi,im->m", g.dr_boundary_rows, C)
    ring = np.fft.irfft(out, n=g.n_theta)
    return BoundaryFunction.from_samples(g, ring)
