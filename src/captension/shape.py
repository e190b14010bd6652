"""Boundary shape machinery: the volume-constraint potential, the
embedding factorization and its numerical inverse, and curvature.

A small boundary function h determines a potential f with

    lap f + det(D^2 f) = 0,   f = h on the circle,

which makes id + grad f volume preserving; every nearby embedding of the
disk factors as eta = (id + grad f) o beta with beta a volume-preserving
diffeomorphism of the disk.  The moving boundary's curvature is computed
two ways: exactly by Fourier differentiation of the boundary curve, and
through the algebraic expansion M0..M5 whose integral-remainder form is
exact, not asymptotic; the two must agree to quadrature precision.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTangentError,
    InversionFailureError,
    NoConvergenceError,
    RemainderBlowupError,
)
from .diskfield import (
    BoundaryFunction,
    DiskMap,
    ScalarField,
    compose,
    evaluate_vector_at,
    gradient,
    harmonic_extension,
    hessian,
    laplacian,
    map_jacobian,
    restrict_boundary,
    sobolev_norm_boundary,
    sobolev_norm_disk,
    solve_dirichlet,
)

__all__ = [
    "VolumePotential",
    "Factorization",
    "CurvatureExpansion",
    "solve_volume_constraint",
    "compose_Phi",
    "decompose_embedding",
    "curvature_exact",
    "curvature_expansion",
    "boundary_length",
    "invert_points",
    "TOL_VOL",
]

TOL_VOL = 1e-9


@dataclass(frozen=True)
class VolumePotential:
    """Converged potential f with trace h and measured diagnostics.

    residual is the max norm of lap f + det(D^2 f) over the interior
    rings (on the r = 1 ring the trace condition replaces the equation).
    elliptic_ratio is the measured H^3(disk) / H^{5/2}(circle) quotient,
    the constant the linear theory bounds; zero for h = 0.
    """

    f: ScalarField
    boundary_data: BoundaryFunction
    residual: float
    elliptic_ratio: float


@dataclass(frozen=True)
class Factorization:
    """eta = (id + grad f) o beta."""

    beta: DiskMap
    potential: VolumePotential


@dataclass(frozen=True)
class CurvatureExpansion:
    M0: BoundaryFunction
    M1: BoundaryFunction
    M2: BoundaryFunction
    M3x: BoundaryFunction
    M3y: BoundaryFunction
    M4: BoundaryFunction
    M5: BoundaryFunction


def _field_of(pot):
    """Accept a VolumePotential or a bare potential ScalarField."""
    return pot.f if isinstance(pot, VolumePotential) else pot


def _hessian_det(f):
    fxx, fxy, fyx, fyy = hessian(f)
    return fxx * fyy - fxy * fyx


def _interior_max(values):
    return float(np.abs(values[:-1, :]).max())


def solve_volume_constraint(h, tol=TOL_VOL, max_iter=400):
    """Potential f of the volume-preserved graph: lap f = -det(D^2 f), f|bdry = h.

    Fixed-point iteration f <- harmonic_extension(h) - lap^-1(det D^2 f)
    (zero-trace inverse), which contracts at a rate proportional to the
    amplitude of h; data too large for it is rejected by its stalling.
    """
    grid = h.grid
    base = harmonic_extension(h)
    f = base
    history = []
    for _ in range(max_iter):
        det = _hessian_det(f)
        res = _interior_max(laplacian(f).values + det)
        if res < tol:
            hnorm = sobolev_norm_boundary(h, 2.5)
            ratio = sobolev_norm_disk(f, 3) / hnorm if hnorm > 0 else 0.0
            return VolumePotential(f=f, boundary_data=h, residual=res,
                                   elliptic_ratio=ratio)
        history.append(res)
        if len(history) > 20 and not res < 0.5 * history[-21]:
            raise NoConvergenceError(
                f"volume-constraint iteration stalled at residual {res:.3e} "
                "(boundary data too large)")
        f = base - solve_dirichlet(ScalarField(grid, det))
    raise NoConvergenceError(
        f"volume constraint: no convergence in {max_iter} iterations")


def compose_Phi(beta, pot):
    """The embedding (id + grad f) o beta as a DiskMap."""
    grid = beta.grid
    moved = compose(gradient(_field_of(pot)), beta)
    dx = beta.displacement.x.values + moved.x.values
    dy = beta.displacement.y.values + moved.y.values
    return DiskMap.from_arrays(grid, dx, dy, kind="embedding")


def _boundary_tangent_data(pot):
    """Ring samples of the deformed boundary curve and its theta-derivatives.

    Returns (cx, cy, tx, ty, ax, ay, bx, by): curve, first and second
    derivative of grad f along the ring, with t the full curve tangent.
    """
    f = _field_of(pot)
    grid = f.grid
    G = gradient(f)
    gx = BoundaryFunction.from_samples(grid, G.x.values[-1, :])
    gy = BoundaryFunction.from_samples(grid, G.y.values[-1, :])
    ax_b = gx.derivative()
    ay_b = gy.derivative()
    ax, ay = ax_b.samples(), ay_b.samples()
    bx, by = ax_b.derivative().samples(), ay_b.derivative().samples()
    ct, st = np.cos(grid.theta), np.sin(grid.theta)
    cx = ct + gx.samples()
    cy = st + gy.samples()
    tx = -st + ax
    ty = ct + ay
    return cx, cy, tx, ty, ax, ay, bx, by


def _check_tangent(tx, ty):
    speed = np.hypot(tx, ty)
    if speed.min() <= 0.5:
        raise DegenerateTangentError(
            f"boundary tangent degenerates (min speed {speed.min():.3f})")
    return speed


def curvature_exact(pot):
    """Curvature of the deformed boundary, +1 for the unit circle.

    Fourier differentiation of the parameterized curve
    c(theta) = (cos, sin) + grad f, then (c' x c'') / |c'|^3.
    """
    grid = _field_of(pot).grid
    cx, cy, tx, ty, ax, ay, bx, by = _boundary_tangent_data(pot)
    speed = _check_tangent(tx, ty)
    cxx = -np.cos(grid.theta) + bx
    cyy = -np.sin(grid.theta) + by
    kappa = (tx * cyy - ty * cxx) / speed ** 3
    return BoundaryFunction.from_samples(grid, kappa)


_GAUSS_T, _GAUSS_W = np.polynomial.legendre.leggauss(16)
_GAUSS_T = 0.5 * (_GAUSS_T + 1.0)
_GAUSS_W = 0.5 * _GAUSS_W


def _remainder(m_vals, power):
    """integral over [0,1] of (1-t) (1+t m)^-power dt, pointwise in theta."""
    tm = 1.0 + np.outer(_GAUSS_T, m_vals)
    if tm.min() <= 0.0:
        raise RemainderBlowupError(
            "Taylor remainder kernel leaves the perturbative regime")
    vals = (1.0 - _GAUSS_T)[:, None] * tm ** (-power)
    return _GAUSS_W @ vals


def curvature_expansion(pot):
    """The six-term algebraic form of the boundary curvature.

    M0 measures the squared stretch of the tangent, M1 its reciprocal
    minus one via an exact second-order Taylor remainder, M2 the stretch
    derivative; the vector M3 rebuilds the curvature vector relative to
    the undeformed normal, and M4, M5 convert its length back to a
    scalar, again with exact remainders.  1 + M5 reproduces
    curvature_exact to quadrature precision.
    """
    grid = _field_of(pot).grid
    cx, cy, tx, ty, ax, ay, bx, by = _boundary_tangent_data(pot)
    _check_tangent(tx, ty)
    ct, st = np.cos(grid.theta), np.sin(grid.theta)
    taux, tauy = -st, ct
    nux, nuy = ct, st

    m0 = 2.0 * (ax * taux + ay * tauy) + (ax * ax + ay * ay)
    m1 = -m0 + m0 * m0 * 2.0 * _remainder(m0, 3.0)
    m2 = (-(nux * ax + nuy * ay) + (taux * bx + tauy * by)
          + (bx * ax + by * ay))
    one = 1.0 + m1
    m3x = m1 * nux - one * bx + one * one * m2 * (taux + ax)
    m3y = m1 * nuy - one * by + one * one * m2 * (tauy + ay)
    m4 = 2.0 * (nux * m3x + nuy * m3y) + (m3x * m3x + m3y * m3y)
    m5 = 0.5 * m4 - 0.25 * m4 * m4 * _remainder(m4, 1.5)

    mk = lambda s: BoundaryFunction.from_samples(grid, s)
    return CurvatureExpansion(M0=mk(m0), M1=mk(m1), M2=mk(m2),
                              M3x=mk(m3x), M3y=mk(m3y),
                              M4=mk(m4), M5=mk(m5))


def boundary_length(pot):
    """Arclength of the deformed boundary; 2*pi exactly for a circle."""
    grid = _field_of(pot).grid
    cx, cy, tx, ty, ax, ay, bx, by = _boundary_tangent_data(pot)
    return (2.0 * np.pi / grid.n_theta) * float(np.hypot(tx, ty).sum())


def _radius_function(grid, px, py):
    """Radius of a near-circular closed curve at the equispaced polar angles.

    The curve arrives as samples (px, py) at parameters theta_j; its
    polar angle is a small periodic perturbation of the parameter, so
    the radius at prescribed angles follows from a fixed-point solve of
    the angle relation plus trigonometric interpolation.
    """
    ang = np.arctan2(py, px)
    dev = np.unwrap(ang - grid.theta + np.pi) - np.pi
    dev_b = BoundaryFunction.from_samples(grid, dev)
    rad_b = BoundaryFunction.from_samples(grid, np.hypot(px, py))
    t = grid.theta.copy()
    for _ in range(60):
        t_new = grid.theta - dev_b.evaluate(t)
        if np.abs(t_new - t).max() < 1e-14:
            t = t_new
            break
        t = t_new
    else:
        raise NoConvergenceError("polar angle inversion did not settle")
    return rad_b.evaluate(t)


def decompose_embedding(eta, max_iter=60):
    """Factor an embedding as (id + grad f) o beta.

    The boundary data h is recovered by matching the radius function of
    the image curve (a parameterization-free comparison, so the
    tangential ambiguity lands in beta where it belongs), updating
    Fourier modes through the harmonic-extension response d(r^m)/dr = m.
    beta then comes from pointwise Newton inversion of id + grad f at
    the image nodes.  h carries the zero-mean gauge.
    """
    grid = eta.grid
    ex, ey = eta.map_x(), eta.map_y()
    rho_target = _radius_function(grid, ex[-1, :], ey[-1, :])

    h = BoundaryFunction.zeros(grid)
    pot = solve_volume_constraint(h)
    converged = False
    for _ in range(max_iter):
        cx, cy, tx, ty, ax, ay, bx, by = _boundary_tangent_data(pot)
        rho = _radius_function(grid, cx, cy)
        gap = rho_target - rho
        if np.abs(gap).max() < 1e-12:
            converged = True
            break
        C = np.fft.rfft(gap) / grid.n_theta
        C[-1] *= 0.5
        C[1:] /= grid.modes[1:]
        C[0] = 0.0
        h = h + BoundaryFunction(grid, C)
        pot = solve_volume_constraint(h)
    if not converged:
        raise NoConvergenceError(
            f"boundary matching stalled at gap {np.abs(gap).max():.3e}")

    graph = DiskMap(gradient(pot.f), kind="embedding")
    targets = np.column_stack([ex.ravel(), ey.ravel()])
    Y = invert_points(graph, targets, targets, margin=1e-9, clamp_tol=1e-6)
    shape = (grid.n_r, grid.n_theta)
    beta = DiskMap.from_arrays(grid,
                               Y[:, 0].reshape(shape) - grid.xx,
                               Y[:, 1].reshape(shape) - grid.yy,
                               kind="diffeo")
    return Factorization(beta=beta.renormalize_boundary(), potential=pot)


def invert_points(alpha, targets, start, *, margin, clamp_tol, tol=1e-12,
                  max_iter=40):
    """Solve alpha(y) = target for every row of targets by pointwise Newton.

    targets and start (the first guesses) are (P, 2) arrays; the result
    is a new (P, 2) array of preimages.  The Jacobian of alpha comes from
    map_jacobian, interpolated at the iterates in the same evaluation as
    the displacement, one per Newton pass.  Iterates are pulled back
    inside radius 1 + margin after every update, and the displacement and
    Jacobian are evaluated with clamp_tol of boundary overshoot.
    """
    d = alpha.displacement
    fields = [d.x, d.y] + [ScalarField(alpha.grid, j)
                           for j in map_jacobian(alpha)]
    Y = np.array(start, dtype=float)
    _project_into_disk(Y, margin)
    for _ in range(max_iter):
        dx, dy, j11, j12, j21, j22 = evaluate_vector_at(
            fields, Y, clamp_tol=clamp_tol).T
        rx = Y[:, 0] + dx - targets[:, 0]
        ry = Y[:, 1] + dy - targets[:, 1]
        if max(np.abs(rx).max(), np.abs(ry).max()) < tol:
            return Y
        det = j11 * j22 - j12 * j21
        if np.abs(det).min() < 0.2:
            raise InversionFailureError(
                "map is not invertible at the target points")
        Y[:, 0] -= (j22 * rx - j12 * ry) / det
        Y[:, 1] -= (-j21 * rx + j11 * ry) / det
        _project_into_disk(Y, margin)
    raise InversionFailureError("Newton inversion of the map stalled")


def _project_into_disk(Y, margin):
    # Preimages of boundary nodes sit within roundoff of the circle (for
    # a graph map) or O(dt^2) outside it (for a time-step stage map), and
    # a hard projection onto |y| <= 1 would block the Newton residual
    # from clearing its tolerance.  A margin at that scale lets those
    # points converge while keeping runaways contained.
    limit = np.nextafter(1.0 + margin, 0.0)
    rad = np.hypot(Y[:, 0], Y[:, 1])
    far = rad > limit
    if np.any(far):
        Y[far, 0] *= limit / rad[far]
        Y[far, 1] *= limit / rad[far]
