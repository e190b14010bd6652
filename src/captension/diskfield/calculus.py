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

__all__ = ["grad_values", "gradient", "divergence", "laplacian", "hessian",
           "evaluate_at", "evaluate_vector_at", "compose", "jacobian_det",
           "map_jacobian", "inverse_jacobian", "restrict_boundary",
           "normal_derivative_boundary"]


def grad_values(grid, values):
    """(d_x, d_y) of samples shaped (..., n_r, n_theta), from one polar pass.

    Stacking several fields into one call costs one transform each way
    and gives the same bits as one call per field.
    """
    A, B = grid.polar_derivatives(values)
    B = B * grid.inv_r
    return grid.cos_t * A - grid.sin_t * B, grid.sin_t * A + grid.cos_t * B


def gradient(f):
    g = f.grid
    return VectorField(g, grad_values(g, f.values))


def divergence(w):
    g = w.grid
    dx, dy = grad_values(g, w.values)
    return ScalarField(g, dx[0] + dy[1])


def laplacian(f):
    g = f.grid
    return ScalarField(g, g.apply_modal(g.lap_stack, f.values))


def hessian(f):
    """Second Cartesian derivatives as raw arrays (fxx, fxy, fyx, fyy).

    f is a ScalarField or a VectorField; each entry keeps the field's
    leading axes, so the Hessians of both components of a vector field
    come from one pair of derivative passes.  The two mixed entries are
    computed independently; they agree to spectral roundoff and both are
    kept so determinant formulas stay algebraically consistent with the
    factored first derivatives.
    """
    g = f.grid
    dx, dy = grad_values(g, np.stack(grad_values(g, f.values)))
    return dx[0], dy[0], dx[1], dy[1]


def _ring_weights(grid, r0, theta0):
    """What every field evaluated at one point set shares.

    The trigonometric rows that sum each ring's Fourier data at theta0
    and at theta0 + pi (odd modes flip sign there), the barycentric
    weights over the doubled radial nodes with their sums, and the
    points that sit on a radial node with that node's index.
    """
    n = grid.n_theta
    phases = np.exp(1j * np.outer(theta0, grid.modes))  # (P, M)
    scale = np.full(grid.n_modes, 2.0 / n)
    scale[0] = scale[-1] = 1.0 / n  # n_theta is even: the last mode is Nyquist
    E = phases * scale
    signs = np.where(grid.modes % 2 == 0, 1.0, -1.0)
    diff = r0[:, None] - grid.x_full[None, :]
    exact = np.abs(diff) < 1e-14
    c = grid.bary_weights[None, :] / np.where(exact, 1.0, diff)
    hit = exact.any(axis=1)
    return E, E * signs, c, c.sum(axis=1), hit, exact[hit].argmax(axis=1)


def _interp_rings(grid, coeff_rings, weights):
    """Barycentric radial interpolation of per-ring Fourier data.

    coeff_rings: (n_r, n_modes) rfft coefficients of each ring.
    Returns values at the points that weights (_ring_weights) belong to.
    """
    E, E_neg, c, denom, hit, idx = weights
    # the doubled radial profile per point, full-grid node order
    prof = np.empty((E.shape[0], grid.x_full.size))
    prof[:, grid.pos_full] = (E @ coeff_rings.T).real      # rings at theta0
    prof[:, grid.neg_full] = (E_neg @ coeff_rings.T).real  # rings at theta0 + pi
    out = (c * prof).sum(axis=1) / denom
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


def evaluate_vector_at(fields, points, *, clamp_tol=1e-12):
    """Interpolate fields at plane points (array-like (P, 2)).

    fields is one field or a sequence of fields on one grid; the result
    is (P, F), one column per component, in the order of the fields and,
    within a VectorField, x then y.  Exact trigonometric
    evaluation in theta, barycentric polynomial evaluation in r over the
    doubled node set.  Points whose radius overshoots 1 by at most
    clamp_tol are evaluated by the radial polynomial's natural extension
    (time-stepper stages land there); anything further outside raises.
    Grid-node queries reproduce the stored samples bit-exactly.  The
    point weights are built once per call and shared by every field.
    """
    if isinstance(fields, (ScalarField, VectorField)):
        fields = (fields,)
    grid = fields[0].grid
    values = np.concatenate(
        [f.values.reshape(-1, grid.n_r, grid.n_theta) for f in fields])
    r0, theta0 = _clamp_points(grid, points, clamp_tol)
    weights = _ring_weights(grid, r0, theta0)
    C = grid.to_modes(values)
    out = np.column_stack([_interp_rings(grid, Ck, weights) for Ck in C])
    mask, i, j = _node_snap(grid, r0, theta0)
    out[mask] = values[:, i[mask], j[mask]].T
    return out


def evaluate_at(f, points, *, clamp_tol=1e-12):
    """evaluate_vector_at of one ScalarField, as a (P,) array."""
    return evaluate_vector_at(f, points, clamp_tol=clamp_tol)[:, 0]


# Boundary-overshoot allowance of compose when the caller gives none: wider
# than the raw interpolation default, so image points of a diffeomorphism
# that sit a hair past the circle are still evaluated, not rejected.
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
    if not isinstance(f, (ScalarField, VectorField)):
        raise ConfigError("compose expects a ScalarField or VectorField on the left")
    if clamp_tol is None:
        clamp_tol = _COMPOSE_CLAMP
    vals = evaluate_vector_at(f, g.image_points(), clamp_tol=clamp_tol)
    return type(f)(g.grid, vals.T.reshape(f.values.shape))


def jacobian_det(g):
    """Determinant of D(map) at every node, map = id + displacement."""
    j11, j12, j21, j22 = map_jacobian(g)
    return ScalarField(g.grid, j11 * j22 - j12 * j21)


def map_jacobian(g):
    """The four entries of D(map) as arrays (j11, j12, j21, j22)."""
    dx, dy = grad_values(g.grid, g.displacement.values)
    return 1.0 + dx[0], dy[0], dx[1], 1.0 + dy[1]


def inverse_jacobian(g):
    """det D(map) and the entries (b11, b12, b21, b22) of D(map)^-1.

    Kept read-only in the map's cache: a map is immutable, and the
    pressure solve and both of its pulled-back Laplacians ask for it.
    """
    cached = g._cache.get("inverse_jacobian")
    if cached is None:
        j11, j12, j21, j22 = map_jacobian(g)
        det = j11 * j22 - j12 * j21
        cached = det, (j22 / det, -j12 / det, -j21 / det, j11 / det)
        for a in (det, *cached[1]):
            a.setflags(write=False)
        g._cache["inverse_jacobian"] = cached
    return cached


def restrict_boundary(f):
    return BoundaryFunction.from_samples(f.grid, f.values[-1, :])


def normal_derivative_boundary(f):
    """d_r f on the r = 1 ring as a BoundaryFunction."""
    g = f.grid
    C = g.to_modes(f.values)  # (n_r, M)
    out = np.einsum("mi,im->m", g.dr_boundary_rows, C)
    ring = np.fft.irfft(out, n=g.n_theta)
    return BoundaryFunction.from_samples(g, ring)
