"""Boundary shape machinery: the volume-constraint potential of the graph
embedding, pointwise inversion of disk maps, and curvature.

A small boundary function h determines a potential f with

    lap f + det(D^2 f) = 0,   f = h on the circle,

which makes id + grad f volume preserving; the moving domain is the
image of eta = (id + grad f) o beta with beta a volume-preserving
diffeomorphism of the disk.  The moving boundary's curvature is computed
two ways: exactly by Fourier differentiation of the boundary curve, and
through the algebraic expansion M0..M5 whose integral-remainder form is
exact, not asymptotic; the two must agree to quadrature precision.
"""

from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateTangentError,
    InversionFailureError,
    NoConvergenceError,
    RemainderBlowupError,
)
from .diskfield import (
    STAGE_CLAMP,
    BoundaryFunction,
    MemberSolve,
    ScalarField,
    evaluate_vector_at,
    evaluation_plan,
    gradient,
    harmonic_extension,
    hessian,
    laplacian,
    map_jacobian,
    solve_dirichlet,
)
from .diskfield.grid import gauss_legendre

__all__ = [
    "CurvatureExpansion",
    "solve_volume_constraint",
    "volume_residual",
    "boundary_curvature",
    "curvature_exact",
    "curvature_expansion",
    "boundary_length",
    "invert_points",
    "TOL_VOL",
]

TOL_VOL = 1e-9


class CurvatureExpansion(NamedTuple):
    M0: BoundaryFunction
    M1: BoundaryFunction
    M2: BoundaryFunction
    M3x: BoundaryFunction
    M3y: BoundaryFunction
    M4: BoundaryFunction
    M5: BoundaryFunction


def volume_residual(f):
    """(max |lap f + det D^2 f| over the interior rings, per member when
    f has a member axis, det D^2 f); on the r = 1 ring the trace
    condition replaces the equation."""
    fxx, fxy, fyx, fyy = hessian(f)
    det = fxx * fyy - fxy * fyx
    return np.abs((laplacian(f).values + det)[..., :-1, :]).max(axis=(-2, -1)), det


def solve_volume_constraint(h):
    """Potential f of the volume-preserved graph: lap f = -det(D^2 f), f|bdry = h.

    Fixed-point iteration f <- harmonic_extension(h) - lap^-1(det D^2 f)
    (zero-trace inverse), which contracts at a rate proportional to the
    amplitude of h; data too large for it is rejected by its stalling.
    Returns f once its volume_residual is below TOL_VOL; members
    iterate in lockstep until every residual has passed, and each
    member returns its first passing iterate.
    """
    grid = h.grid
    base = harmonic_extension(h)
    # D^2 of the harmonic base is trace free with entries at most
    # s = 2 sum m (m - 1) |c_m| over the two-sided series c_m = C_m / n
    # (half that at Nyquist, which the sum here counts whole), so its
    # residual is at most 2 s^2: data that small would pass the first
    # check, which is then skipped unless another member needs it
    m = grid.modes
    s = (2.0 / grid.n_theta) * np.sum(m * (m - 1) * np.abs(h.coeffs), axis=-1)
    if np.all(2.0 * s * s < 0.1 * TOL_VOL):
        return base
    solve = MemberSolve(TOL_VOL, 20, 0.5,
                        "volume-constraint iteration stalled at residual "
                        "{:.3e} (boundary data too large)")
    f = base
    for _ in range(400):
        res, det = volume_residual(f)
        if solve.check(f, res):
            return solve.result
        f = base - solve_dirichlet(ScalarField(base.grid, det))
    raise NoConvergenceError(
        "volume constraint: no convergence in 400 iterations")


def _boundary_tangent_data(displacement):
    """Theta-derivatives of the boundary curve of id + displacement.

    The curve is c(theta) = (cos, sin) + d with d the r = 1 ring of the
    displacement.  Returns (tx, ty, ax, ay, bx, by, speed): t = c' the
    curve tangent and speed = |t|, a and b the first and second
    derivatives of d alone.  Only d is differentiated, by one and two
    products of each ring with the grid's d_theta matrix, a ring a row
    of its own so members keep their lone bits; the circle part is
    differentiated exactly.
    """
    grid = displacement.grid
    a = displacement.values[..., -1, None, :] @ grid.dtheta
    (ax, ay), (bx, by) = a[..., 0, :], (a @ grid.dtheta)[..., 0, :]
    tx = -np.sin(grid.theta) + ax
    ty = np.cos(grid.theta) + ay
    speed = np.hypot(tx, ty)
    if speed.min() <= 0.5:
        raise DegenerateTangentError(
            f"boundary tangent degenerates (min speed {speed.min():.3f})")
    return tx, ty, ax, ay, bx, by, speed


def boundary_curvature(displacement):
    """Curvature samples of the boundary curve of id + displacement,
    +1 for the unit circle: (c' x c'') / |c'|^3 on the theta nodes."""
    grid = displacement.grid
    tx, ty, _, _, bx, by, speed = _boundary_tangent_data(displacement)
    cxx = -np.cos(grid.theta) + bx
    cyy = -np.sin(grid.theta) + by
    return (tx * cyy - ty * cxx) / speed ** 3


def curvature_exact(f):
    """Curvature of the deformed boundary c(theta) = (cos, sin) + grad f."""
    return BoundaryFunction.from_samples(f.grid, boundary_curvature(gradient(f)))


_GAUSS_T, _GAUSS_W = gauss_legendre(16)


def _remainder(m_vals, power):
    """integral over [0,1] of (1-t) (1+t m)^-power dt, pointwise in theta."""
    tm = 1.0 + np.outer(_GAUSS_T, m_vals)
    if tm.min() <= 0.0:
        raise RemainderBlowupError(
            "Taylor remainder kernel leaves the perturbative regime")
    vals = (1.0 - _GAUSS_T)[:, None] * tm ** (-power)
    return _GAUSS_W @ vals


def curvature_expansion(f):
    """The six-term algebraic form of the boundary curvature.

    M0 measures the squared stretch of the tangent, M1 its reciprocal
    minus one via an exact second-order Taylor remainder, M2 the stretch
    derivative; the vector M3 rebuilds the curvature vector relative to
    the undeformed normal, and M4, M5 convert its length back to a
    scalar, again with exact remainders.  1 + M5 reproduces
    curvature_exact to quadrature precision.
    """
    grid = f.grid
    _, _, ax, ay, bx, by, _ = _boundary_tangent_data(gradient(f))
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


def boundary_length(grad_f):
    """Arclength of the boundary of id + grad f; 2*pi exactly for a circle."""
    speed = _boundary_tangent_data(grad_f)[-1]
    return (2.0 * np.pi / grad_f.grid.n_theta) * float(speed.sum())


def invert_points(alpha):
    """The preimages of the grid nodes under alpha, by pointwise Newton
    from the first guess x - d(x), d alpha's displacement.

    Returns (Y, plan): a new (n_r*n_theta, 2) array of preimages, in
    node order, and the plan the converged pass built at them.  Every
    pass evaluates the displacement and the four entries of alpha's
    Jacobian (map_jacobian) at the iterates.  Iterates may overshoot
    the circle by STAGE_CLAMP: they are pulled back inside radius
    1 + STAGE_CLAMP after every update.
    """
    grid = alpha.grid
    fields = [alpha.displacement] + [ScalarField(grid, j)
                                     for j in map_jacobian(alpha)]
    X = grid.xy.reshape(2, -1).T
    Y = X - alpha.displacement.values.reshape(2, -1).T
    _project_into_disk(Y)
    for _ in range(40):
        plan = evaluation_plan(grid, Y)
        dx, dy, j11, j12, j21, j22 = evaluate_vector_at(fields, Y,
                                                        plan=plan).T
        rx = Y[:, 0] + dx - X[:, 0]
        ry = Y[:, 1] + dy - X[:, 1]
        if max(np.abs(rx).max(), np.abs(ry).max()) < 1e-12:
            return Y, plan
        det = j11 * j22 - j12 * j21
        if np.abs(det).min() < 0.2:
            raise InversionFailureError(
                "map is not invertible at the target points")
        Y[:, 0] -= (j22 * rx - j12 * ry) / det
        Y[:, 1] -= (-j21 * rx + j11 * ry) / det
        _project_into_disk(Y)
    raise InversionFailureError("Newton inversion of the map stalled")


def _project_into_disk(Y):
    # gamma's node images drift off the circle as it is transported, so
    # Newton iterates for the boundary nodes may sit a hair outside it
    # (1 + 8.2e-12 in the default sweep, 1 + 1.1e-4 at amplitude 0.5
    # and T = 0.6), and a hard projection onto |y| <= 1 would block the
    # residual from clearing its tolerance.  A STAGE_CLAMP slack lets
    # those points converge while keeping runaways contained.
    limit = np.nextafter(1.0 + STAGE_CLAMP, 0.0)
    rad = np.hypot(Y[:, 0], Y[:, 1])
    far = rad > limit
    if np.any(far):
        Y[far, 0] *= limit / rad[far]
        Y[far, 1] *= limit / rad[far]
