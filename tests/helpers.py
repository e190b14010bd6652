"""Shared generators and call counters for the test suite."""

import sys

import numpy as np

from captension.diskfield import (BoundaryFunction, DiskGrid, DiskMap,
                                  ScalarField, VectorField, calculus,
                                  divergence, jacobian_det, restrict_boundary)
from captension.diskfield.grid import _cheb_lobatto_diff
from captension.dynamics import FreeBoundaryState, rhs_free_boundary
from captension.dynamics.states import rk4
from captension.errors import UnsupportedOrderError
from captension.projections import hodge_P
from captension.shape import solve_volume_constraint, volume_residual


def from_function(grid, fn):
    """The ScalarField of fn(x, y) sampled at the nodes."""
    vals = np.asarray(fn(grid.xx, grid.yy), dtype=float)
    return ScalarField(grid, np.broadcast_to(vals, grid.xx.shape))


def single_mode(grid, m, amplitude):
    """The BoundaryFunction amplitude*cos(m theta)."""
    c = np.zeros(grid.n_modes, dtype=complex)
    c[m] = grid.n_theta * amplitude * (1.0 if m in (0, grid.n_modes - 1) else 0.5)
    return BoundaryFunction(grid, c)


def sobolev_norm_boundary(b, s):
    """H^s(circle) norm from the Fourier multiplier (1 + m^2)^s; any real s >= 0."""
    if s < 0:
        raise UnsupportedOrderError("boundary Sobolev order must be >= 0")
    grid = b.grid
    # |c_m|^2 of the two-sided series, once for m = 0 and twice for m > 0
    # (c_m = C_m / n, halved at Nyquist)
    weights = np.full(grid.n_modes, 2.0)
    weights[[0, -1]] = 1.0, 0.5
    mult = (1.0 + grid.modes.astype(float) ** 2) ** s
    total = 2.0 * np.pi * np.sum(weights * mult * np.abs(b.coeffs) ** 2)
    total /= grid.n_theta ** 2
    return float(np.sqrt(total))


def l2_inner(grid, a, b):
    """L2 inner product over the disk of two sample arrays."""
    return grid.integrate(a * b)


def reference_polar_derivatives(grid, values):
    """(d_r, d_theta) of samples shaped (..., n_r, n_theta) by the modal
    formula: one forward transform, the doubled grid's differentiation
    matrix folded per mode m to D_pp + (-1)^m D_pn, ik for d_theta, and
    one inverse transform of both."""
    D = _cheb_lobatto_diff(grid.x_full, grid.bary_weights)
    pp = np.ix_(grid.pos_full, grid.pos_full)
    pn = np.ix_(grid.pos_full, grid.neg_full)
    C = grid.to_modes(values)
    out = np.empty((2,) + C.shape, dtype=complex)
    out[0, ..., 0::2] = (D[pp] + D[pn]) @ C[..., 0::2]
    out[0, ..., 1::2] = (D[pp] - D[pn]) @ C[..., 1::2]
    out[1] = C * grid.ik
    return grid.from_modes(out)


def reference_hodge_Q(w):
    """Qw by the per-mode formula, without forming its potential g: the
    modes of the polar components (u_r, i u_theta) through hodge_inv[m]
    and on to d_r g, the doubled grid's matrix folded to
    D_pp + (-1)^m D_pn, and (1/r) d_theta g = (ik/r) g; one inverse
    transform of both, turned to Cartesian components."""
    grid = w.grid
    D = _cheb_lobatto_diff(grid.x_full, grid.bary_weights)
    pp = np.ix_(grid.pos_full, grid.pos_full)
    pn = np.ix_(grid.pos_full, grid.neg_full)
    wx, wy = w.values
    C = grid.to_modes(np.stack([grid.cos_t * wx + grid.sin_t * wy,
                                grid.cos_t * wy - grid.sin_t * wx]))
    C[1] *= 1j
    out = np.empty_like(C)
    for m in range(grid.n_modes):
        g_m = grid.hodge_inv[m] @ np.concatenate([C[0, :, m], C[1, :, m]])
        out[0, :, m] = (D[pp] + (-1) ** m * D[pn]) @ g_m
        out[1, :, m] = grid.ik[m] * g_m / grid.r
    gr, gt = grid.from_modes(out)
    return VectorField(grid, [grid.cos_t * gr - grid.sin_t * gt,
                              grid.sin_t * gr + grid.cos_t * gt])


def reference_weights_r(grid):
    """The grid's radial weights for integral_0^1 g(r) r dr by numpy's
    Gauss-Legendre rule (leggauss): the integrals of the doubled grid's
    cardinals, folded onto the positive nodes."""
    x, wb = grid.x_full, grid.bary_weights
    gx, gw = np.polynomial.legendre.leggauss(x.size + 4)
    gx, gw = 0.5 * (gx + 1.0), 0.5 * gw
    c = wb[None, :] / (gx[:, None] - x[None, :])
    q = (c / c.sum(axis=1, keepdims=True)).T @ (gw * gx)
    return q[grid.pos_full] + q[grid.neg_full]


def reference_plan(grid, points):
    """(radial, angular, snap, rho) of the plan of points by the first
    formula of evaluation plans: points on the first axis, one arctan2
    and one exp per point, the angular factors raised column by column.
    Per parity, radial[p] is (P, n_r) and angular[p] (P, M_p) complex;
    snap = (rows, i, j); rho is r0, or the node radius on a one-hot
    row."""
    points = np.asarray(points, dtype=float)
    x, y = points[:, 0], points[:, 1]
    r0, theta0 = np.hypot(x, y), np.arctan2(y, x)
    pos = r0[:, None] - grid.x_full[grid.pos_full]
    neg = r0[:, None] - grid.x_full[grid.neg_full]
    hi = np.minimum(np.searchsorted(grid.r, r0), grid.n_r - 1)
    lo = np.maximum(hi - 1, 0)
    at = np.arange(r0.size)
    d_lo, d_hi = np.abs(pos[at, lo]), np.abs(pos[at, hi])
    near = np.where(d_lo <= d_hi, lo, hi)
    gap = np.minimum(d_lo, d_hi)
    hit = np.flatnonzero(gap < 1e-14)
    on_node = hit, near[hit]
    pos[on_node] = 1.0
    pos = grid.bary_weights[grid.pos_full] / pos
    neg = grid.bary_weights[grid.neg_full] / neg
    total = (pos + neg).sum(axis=1, keepdims=True)
    radial = (pos + neg) / total, (pos - neg) / total
    for rows in radial:
        rows[hit] = 0.0
        rows[on_node] = 1.0
    rho = r0.copy()
    rho[hit] = grid.r[near[hit]]
    P, M, n = r0.size, grid.n_modes, grid.n_theta
    z = np.exp(1j * theta0)
    angular = [np.empty((P, (M + 1 - p) // 2), dtype=complex) for p in (0, 1)]
    power = np.full(P, 2.0 / n, dtype=complex)
    for m in range(1, M):
        power *= z
        angular[m % 2][:, m // 2] = power
    angular[0][:, 0] = 1.0 / n
    angular[(M - 1) % 2][:, -1] *= 0.5
    k = np.round(theta0 / (2.0 * np.pi / n))
    mask = (gap < 1e-13) & (np.abs(theta0 - 2.0 * np.pi * k / n) < 1e-13)
    snap = np.flatnonzero(mask), near[mask], k[mask].astype(int) % n
    return radial, angular, snap, rho


def constraint_defects(state):
    """Measured invariant violations of a free-flow state: div v, v
    tangency, volume residual, and det D gamma - 1 of the label map
    gamma = beta^-1."""
    div_v = float(np.abs(divergence(state.v).values).max())
    v, nu = state.v.values[:, -1], state.v.grid.xy[:, -1]
    return {
        "div_v": div_v,
        "v_normal": float(np.abs((v * nu).sum(axis=0)).max()),
        "volume_residual": volume_residual(state.f)[0],
        "gamma_jacobian": float(np.abs(jacobian_det(state.gamma).values
                                       - 1.0).max()),
    }


def random_boundary(grid, rng, norm_bound, s=2.5, max_mode=8):
    """Mean-zero random boundary data with Sobolev norm <= norm_bound.

    Coefficients decay like 2^-m so every draw is comfortably smooth;
    the draw is rescaled to a uniformly random fraction of the bound.
    """
    coeffs = np.zeros(grid.n_theta // 2 + 1, dtype=complex)
    top = min(max_mode, grid.n_theta // 2 - 1)
    for m in range(1, top + 1):
        coeffs[m] = (rng.standard_normal() + 1j * rng.standard_normal()) * 2.0 ** -m
    b = BoundaryFunction(grid, coeffs)
    norm = sobolev_norm_boundary(b, s)
    scale = norm_bound * rng.uniform(0.2, 1.0) / norm
    return BoundaryFunction(grid, coeffs * scale)


def boundary_values(b, theta):
    """The Fourier series of the BoundaryFunction b summed at angles theta."""
    theta = np.asarray(theta, dtype=float)
    phases = np.exp(1j * np.outer(theta, b.grid.modes))
    two_sided = np.full(b.grid.n_modes, 2.0)
    two_sided[[0, -1]] = 1.0
    return (phases @ (two_sided * b.coeffs)).real / b.grid.n_theta


def random_poly_field(grid, rng, degree=5, scale=1.0):
    """Vector field whose components are random polynomials in (x, y).

    Low-degree polynomials are exactly representable on the grid, so
    identities checked on them are clean of truncation error.
    """
    def component():
        vals = np.zeros_like(grid.xx)
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                vals += rng.standard_normal() * grid.xx ** i * grid.yy ** j
        return scale * vals

    return VectorField.from_arrays(grid, component(), component())


def count_calls(monkeypatch, original):
    """Count calls of a function through every captension binding of it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("captension")
                and vars(module).get(original.__name__) is original):
            monkeypatch.setattr(module, original.__name__, counted)
    return calls


def count_plans(monkeypatch):
    """Count the evaluation plans built, by whichever caller."""
    return count_calls(monkeypatch, calculus.evaluation_plan)


def count_ffts(monkeypatch):
    """Count the angular transforms, DiskGrid.to_modes as "rfft" and
    DiskGrid.from_modes as "irfft", on every grid."""
    calls = {"rfft": 0, "irfft": 0}
    for name, method in (("rfft", "to_modes"), ("irfft", "from_modes")):
        def counted(self, *args, _fn=getattr(DiskGrid, method), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _fn(self, *args, **kwargs)
        monkeypatch.setattr(DiskGrid, method, counted)
    return calls


def step_free_rk4(state, dt):
    """The free step as plain RK4 on (f, fdot, v, gamma) with the same
    re-projections: the reference the integrating-factor step is checked
    against.  It is stable only under dt_max."""
    f, fdot, v, gamma = rk4(
        lambda y: rhs_free_boundary(
            FreeBoundaryState(*y, time=state.time, k=state.k)),
        (state.f, state.fdot, state.v, state.gamma), dt)
    return FreeBoundaryState(
        f=solve_volume_constraint(restrict_boundary(f)), fdot=fdot,
        v=hodge_P(v), gamma=gamma.renormalize_boundary(),
        time=state.time + dt, k=state.k)


def stack(items):
    """Fields, boundary functions, disk maps (such as the gamma of a
    free-flow state) or one-member free-flow states of one grid as the
    members of one, in order; sample arrays (boundary rings) as rows of
    one array."""
    first = items[0]
    if isinstance(first, np.ndarray):
        return np.stack(items)
    if isinstance(first, FreeBoundaryState):
        return FreeBoundaryState(
            *(stack([getattr(s, n) for s in items])
              for n in ("f", "fdot", "v", "gamma")),
            time=first.time, k=tuple(s.k for s in items))
    if isinstance(first, DiskMap):
        return DiskMap(stack([m.displacement for m in items]), kind=first.kind)
    grid = first.grid.with_members(len(items))
    if isinstance(first, BoundaryFunction):
        return BoundaryFunction(grid, np.stack([b.coeffs for b in items]))
    return type(first)(grid, np.stack([f.values for f in items],
                                      axis=len(first._lead)))
