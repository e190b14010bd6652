"""Spectral calculus on disk fields: derivatives, interpolation, composition.

Cartesian derivatives are assembled pointwise from the polar ones,

    d_x = cos(theta) d_r - (sin(theta)/r) d_theta,
    d_y = sin(theta) d_r + (cos(theta)/r) d_theta,

which is safe because the grid has no node at r = 0 and smooth fields keep
(1/r) d_theta bounded; DiskGrid.polar_derivatives takes the polar ones with
no angular transform.  The Laplacian is NOT built from these (it uses the
per-mode polar form cached on the grid), so divergence(gradient(f)) vs
laplacian(f) is a genuine two-route consistency check.  Point evaluation
takes a plan of one radial weight set and one set of angular factors, for
modes of both parities, and one product per call (evaluate_vector_at);
no free step evaluates at a point, so it takes no member axis.
"""

from typing import NamedTuple

import numpy as np

from ..errors import PointOutsideDomainError
from .fields import BoundaryFunction, DiskMap, ScalarField, VectorField

__all__ = ["grad_values", "gradient", "divergence", "laplacian", "hessian",
           "advect", "evaluation_plan", "evaluate_vector_at", "sample_at",
           "compose", "jacobian_det", "map_jacobian", "inverse_jacobian",
           "restrict_boundary", "STAGE_CLAMP"]


def grad_values(grid, values):
    """(d_x, d_y) of samples shaped (..., n_r, n_theta), from one polar pass;
    a stack of fields gives the bits of one call per field."""
    polar = grid.polar_derivatives(values)
    terms = grid.polar_to_xy[(slice(None),) * 2 + (None,) * (values.ndim - 2)] * polar
    return np.add(terms[:, 0], terms[:, 1], out=polar)


def gradient(f):
    g = f.grid
    return VectorField(g, grad_values(g, f.values))


def divergence(w):
    g = w.grid
    dx, dy = grad_values(g, w.values)
    return ScalarField(g, dx[0] + dy[1])


def laplacian(f):
    g = f.grid
    C = np.einsum("mij,...mj->...mi", g.lap_stack,
                  g.to_modes(f.values).swapaxes(-1, -2))
    return ScalarField(g, g.from_modes(C.swapaxes(-1, -2)))


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
    dx, dy = grad_values(g, grad_values(g, f.values))
    return dx[0], dy[0], dx[1], dy[1]


def advect(u, z):
    """(u . grad) z for a ScalarField or a VectorField z (per component)."""
    ux, uy = u.values
    dx, dy = grad_values(z.grid, z.values)
    return type(z)(z.grid, ux * dx + uy * dy)


def _ring_weights(grid, points, r0):
    """The weights of an evaluation plan (see evaluation_plan).

    Returns (radial, angular, nearest).  The doubled radial nodes are
    exact mirrors (x_{N-j} = -x_j, w_{N-j} = -w_j), so the weights of
    the nodes +-r_i fold, by the parity of F(-r, theta) = (-1)^m
    F(r, theta), to w_i 2 r_i / (r0^2 - r_i^2) for even m and to that
    times r0 / r_i for odd m.
    radial (n_r, P): the even fold, normalised by column; one-hot on a
    radial node.  grid.ring_scale holds the odd fold's 1/r_i.
    angular (2 M, P): the (cos, sin) rows of s_m e^{i m theta0}, times
    rho = r0 (the node radius on a one-hot row) for odd m, raised mode
    by mode from e^{i theta0} = (x + i y)/r0, 1 at the origin.
    nearest = (i, gap): each point's nearest node grid.r[i] and gap to it.
    """
    # the nearest node is one of the two around r0, the inner on a tie
    hi = np.minimum(np.searchsorted(grid.r, r0), grid.n_r - 1)
    lo = np.maximum(hi - 1, 0)
    d_lo, d_hi = np.abs(r0 - grid.r[lo]), np.abs(r0 - grid.r[hi])
    near = np.where(d_lo <= d_hi, lo, hi)
    nearest = near, np.minimum(d_lo, d_hi)
    hit = np.flatnonzero(nearest[1] < 1e-14)  # r0 >= 0 meets no negative node
    on_node = near[hit], hit
    P, M, n = r0.size, grid.n_modes, grid.n_theta
    z = np.divide(points, np.where(r0 > 0.0, r0, np.inf)[:, None],
                  out=np.empty((P, 2))).view(complex)[:, 0]
    z[r0 == 0.0] = 1.0
    # raised in the factors' own memory, then split into (cos, sin) rows;
    # s_m = 2/n but 1/n at m = 0 and at the Nyquist mode m = n/2
    angular = np.empty((M, 2, P))
    powers = angular.reshape(M, 2 * P).view(complex)
    powers[0] = 2.0 / n
    for m in range(1, M):
        np.multiply(powers[m - 1], z, out=powers[m])
    powers[0] = 1.0 / n
    powers[-1] *= 0.5
    for pairs in angular:
        pairs[...] = pairs.reshape(P, 2).T
    angular[1::2] *= np.where(nearest[1] < 1e-14, grid.r[near], r0)
    radial = r0 - grid.r[:, None]
    radial *= r0 + grid.r[:, None]
    radial[on_node] = 1.0
    np.divide((grid.bary_weights[grid.pos_full] * grid.r)[:, None], radial,
              out=radial)
    radial /= radial.sum(axis=0)
    if hit.size:
        radial[:, hit] = 0.0
        radial[on_node] = 1.0
    return radial, angular.reshape(2 * M, P), nearest


# how far past the circle a point may be evaluated: the stage maps of
# an explicit step overshoot it by O(dt^2), and so may Newton iterates
STAGE_CLAMP = 1e-5


def _clamp_points(grid, points):
    points = np.asarray(points, dtype=float)
    r0 = np.hypot(points[:, 0], points[:, 1])
    if not np.all(r0 <= 1.0 + STAGE_CLAMP):  # NaN fails it too
        raise PointOutsideDomainError("evaluation point outside the closed "
                                      f"disk (|p| = {r0.max():.6g})")
    return points, r0


def _node_snap(grid, points, gap):
    """Detect queries that coincide with grid nodes (up to roundoff).

    gap is each query's distance to its nearest radial node, from
    _ring_weights; only those within 1e-13 of one take an angle.  Returns
    (rows, j), the snapped queries and their angular nodes; they return
    stored samples bit-exactly, not through the interpolation.
    """
    rows = np.flatnonzero(gap < 1e-13)
    if not rows.size:
        return rows, rows
    theta0 = np.arctan2(points[rows, 1], points[rows, 0])
    k = np.round(theta0 / (2.0 * np.pi / grid.n_theta))
    ang_err = np.abs(theta0 - 2.0 * np.pi * k / grid.n_theta)
    on = ang_err < 1e-13
    return rows[on], k[on].astype(int) % grid.n_theta


class EvaluationPlan(NamedTuple):
    """What every field evaluated at one point set shares: one weight
    set for every mode, points last (see _ring_weights).  compose builds
    one per call; invert_disk_map keeps one beside a map's preimages."""

    radial: np.ndarray
    angular: np.ndarray
    snap: tuple


def evaluation_plan(grid, points):
    """The plan of evaluating fields at plane points (array-like (P, 2)).

    It runs the clamp check (see evaluate_vector_at) and holds the
    radial weights and angular factors of _ring_weights and the node
    snap, as snap = (rows, i, j): the rows that coincide with the node
    (grid.r[i], theta_j).  A plan is a value: its arrays are read-only,
    so it may serve every evaluation at its points.
    """
    points, r0 = _clamp_points(grid, points)
    radial, angular, (i, gap) = _ring_weights(grid, points, r0)
    rows, j = _node_snap(grid, points, gap)
    snap = rows, i[rows], j
    for a in (radial, angular, *snap):
        a.setflags(write=False)
    return EvaluationPlan(radial, angular, snap)


def evaluate_vector_at(fields, points, *, plan=None):
    """Interpolate fields at plane points (array-like (P, 2)).

    fields is a sequence of fields on one grid, none with a member
    axis; the result is (P, F), one column per component, in the order
    of the fields and, within a VectorField, x then y.  Exact
    trigonometric evaluation in theta, barycentric polynomial
    evaluation in r over the doubled node set.  Points whose radius
    overshoots 1 by at most STAGE_CLAMP are evaluated by the radial
    polynomial's natural extension (time-stepper stages land there);
    anything further outside, or NaN, raises.  Grid-node queries
    reproduce the stored samples bit-exactly.  plan is
    evaluation_plan(grid, points) when the caller keeps it, else one
    is built for this call.  The rings' mode pairs, scaled by
    grid.ring_scale, meet the angular factors first, in one product
    (F, n_r, 2 M) @ (2 M, P) that numpy runs per component, so a column
    has the bits of its field evaluated alone; the radial weights then
    scale that result, summed over the rings.
    """
    grid = fields[0].grid
    values = np.concatenate(
        [f.values.reshape(-1, grid.n_r, grid.n_theta) for f in fields])
    if plan is None:
        plan = evaluation_plan(grid, points)
    rings = grid.to_modes(values).view(float)
    rings *= grid.ring_scale
    rings = rings @ plan.angular  # (F, n_r, P)
    rings *= plan.radial
    out = rings.sum(axis=-2).T
    rows, i, j = plan.snap
    if rows.size:
        out[rows] = values[:, i, j].T
    return out


def sample_at(fields, points, plan=None):
    """A tuple of fields at points (n_r*n_theta, 2), one per node in
    node order, through one plan (plan, if given), as a tuple of the
    same types; each field has the bits of its own evaluation."""
    vals = evaluate_vector_at(fields, points, plan=plan)
    out, a = [], 0
    for h in fields:
        b = a + h.values.size // len(vals)
        out.append(type(h)(h.grid, vals[:, a:b].T.reshape(h.values.shape)))
        a = b
    return tuple(out)


def compose(f, g):
    """The field f after the disk map g: f sampled at g's image points
    through one plan built for this call.  The images may overshoot
    the circle by STAGE_CLAMP, as those of a time-step stage map do."""
    if not isinstance(g, DiskMap):
        raise TypeError("compose expects a DiskMap on the right")
    if g.kind != "diffeo":
        raise ValueError("compose requires a diffeomorphism of the disk")
    if not isinstance(f, (ScalarField, VectorField)):
        raise TypeError("compose expects a field on the left")
    return sample_at((f,), g.image_points())[0]


def jacobian_det(g):
    """Determinant of D(map) at every node, map = id + displacement."""
    j11, j12, j21, j22 = map_jacobian(g)
    return ScalarField(g.grid, j11 * j22 - j12 * j21)


def map_jacobian(g):
    """The four entries of D(map) as arrays (j11, j12, j21, j22)."""
    dx, dy = grad_values(g.grid, g.displacement.values)
    return 1.0 + dx[0], dy[0], dx[1], 1.0 + dy[1]


def inverse_jacobian(g, jacobian=None):
    """det D(map) and the entries (b11, b12, b21, b22) of D(map)^-1.

    Kept read-only in the map's cache: a map is immutable, and the
    pressure and its pulled-back Laplacian both ask for it.  A caller
    that already holds the entries of D(map) passes them as jacobian.
    """
    cached = g._cache.get("inverse_jacobian")
    if cached is None:
        j11, j12, j21, j22 = jacobian or map_jacobian(g)
        det = j11 * j22 - j12 * j21
        cached = det, (j22 / det, -j12 / det, -j21 / det, j11 / det)
        for a in (det, *cached[1]):
            a.setflags(write=False)
        g._cache["inverse_jacobian"] = cached
    return cached


def restrict_boundary(f):
    return BoundaryFunction.from_samples(f.grid, f.values[..., -1, :])
