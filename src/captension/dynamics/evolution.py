"""Time evolution of the decomposed free-surface flow.

The second-order system for (f, v) is advanced as a first-order system
in (f, fdot, v, gamma) by integrating-factor (Lawson) RK4: the linear
capillary oscillation of the boundary modes of (f, fdot) is applied
exactly and explicit RK4 takes the rest, so the step is bounded by the
turn of the fastest mode (pi) and not by the capillary CFL bound.  Each
step re-projects onto the constraint set: f back onto the volume
constraint, v back onto divergence-free tangent fields, and the
boundary ring of gamma = beta^-1 back onto the circle.  Each
right-hand side takes its derivatives of f, fdot, v and gamma from one
chain of three stacked derivative passes, evaluates at no point and
hands D^2 f to every operator that needs it.
"""

import numpy as np

from ..errors import ConfigError
from ..diskfield import (
    BoundaryFunction,
    DiskMap,
    VectorField,
    grad_values,
    harmonic_extension,
    l2_norm_disk,
    restrict_boundary,
    sample_at,
)
from ..projections import (
    _hessian_apply,
    apply_L,
    hodge_P,
    hodge_Q,
    hodge_potential,
    solve_L1_inverse,
)
from ..shape import boundary_length, solve_volume_constraint
from .fixed import invert_disk_map
from .pressure import pressure_gradient, pullback_velocity
from .states import EnergyReport, FreeBoundaryState, rk4

__all__ = [
    "rhs_free_boundary",
    "step_free_boundary",
    "dt_max",
    "dt_free_max",
    "capillary_frequencies",
    "energy_report",
    "output_derivatives",
    "reconstruct_eta",
]


def rhs_free_boundary(state):
    """Rates (fdot, fddot, vdot, gamma_rate) of the decomposed system.

    The fddot equation transports the Lagrangian acceleration balance
    into reference coordinates and extracts its gradient part with
    A* = Q - L2 L1^-1 P applied to the source bracket

        2 D_v grad fdot + D^2_vv grad f + L Q(v . grad v) + grad p pulled back.

    The L Q(v.grad v) term is the gradient part of the transported
    convection; dropping it would push rigid rotation off its steady
    state, which the tests pin down.  A* maps into gradients, so fddot
    is one Hodge potential: with m = L1^-1 P(bracket),
    grad fddot = Q(L m) - Q(bracket) = Q(L m - bracket).  The v equation
    keeps only the P-visible terms; the unsplit integrator serves as the
    arbitration oracle for that choice.

    v transports gamma with no boundary condition, as v . nu = 0: its
    displacement d has the rate -(v + (v . grad) d) (reference map).
    Derivatives: (grad f, grad fdot, Dd), then (D^2 f, D^2 fdot, Dv),
    then D^3 f; D^2 f serves L, L1^-1, w and D eta = I + D^2 f.  A state
    with a member axis gets the rates of every member from one call.
    """
    grid = state.f.grid
    vx, vy = state.v.values
    gx, gy = grad_values(grid, np.concatenate([
        state.f.values[None], state.fdot.values[None],
        state.gamma.displacement.values]))
    grads = np.stack([gx[:2], gy[:2]], axis=1)
    sx, sy = grad_values(grid, np.concatenate([grads, state.v.values[None]]))
    hess_f, hess_fdot = ((sx[i, 0], sy[i, 0], sx[i, 1], sy[i, 1])
                         for i in (0, 1))
    tx, ty = grad_values(grid, np.stack([sx[0], sy[0]]))

    grad_p = pressure_gradient(
        DiskMap(VectorField(grid, grads[0]), kind="embedding"),
        pullback_velocity(state, VectorField(grid, grads[1]), hess_f),
        state.k_factor,
        jacobian=(1.0 + sx[0, 0], sy[0, 0], sx[0, 1], 1.0 + sy[0, 1]))

    dv_grad_fdot = _hessian_apply(hess_fdot, state.v)
    dvv_grad_f = VectorField(grid, vx * vx * tx[0] + vx * vy * (ty[0] + tx[1])
                             + vy * vy * ty[1])
    conv = VectorField(grid, vx * sx[2] + vy * sy[2])
    q_conv = hodge_Q(conv)

    bracket = (2.0 * dv_grad_fdot + dvv_grad_f
               + apply_L(q_conv, hess_f) + grad_p)
    m = solve_L1_inverse(state.f, hodge_P(bracket), hess_f)
    fddot = hodge_potential(apply_L(m, hess_f) - bracket)

    vdot = -(conv - q_conv) - solve_L1_inverse(
        state.f, 2.0 * dv_grad_fdot + dvv_grad_f, hess_f)

    gamma_rate = -(state.v + VectorField(grid, vx * gx[2:] + vy * gy[2:]))
    return state.fdot, fddot, vdot, gamma_rate


def dt_max(k, n_theta):
    """Capillary stability bound of explicit RK4: the fastest resolvable
    surface wave has frequency ~ sqrt(k (n_theta/2)^3)."""
    return 0.5 / np.sqrt(k * (n_theta / 2.0) ** 3)


def capillary_frequencies(k, n_theta):
    """omega_m = sqrt(k m (m^2 - 1)) per rfft mode of the boundary: the
    linear capillary oscillation (h, g)' = (g, -omega^2 h) of the modes
    h of f and g of fdot on the circle.  It is 0 for m = 0, 1 and at the
    Nyquist mode, whose theta-derivative the grid zeroes, so it feels
    no curvature force.  A column of k gives one row per k."""
    m = np.arange(n_theta // 2 + 1, dtype=float)
    omega = np.sqrt(k * m * (m * m - 1.0))
    omega[..., -1] = 0.0
    return omega


def dt_free_max(k, n_theta):
    """Largest step of step_free_boundary: the fastest capillary mode
    turns by at most pi."""
    return np.pi / capillary_frequencies(k, n_theta).max()


def step_free_boundary(state, dt):
    """One integrating-factor (Lawson) RK4 step, then re-projection.

    The linear capillary part Lambda of the right-hand side acts on the
    boundary modes z = (h, g) of (f, fdot) alone, and its flow E(t)
    turns each pair by omega_m t.  Lawson's method is classical RK4 in
    the interaction picture: rk4 advances w = E(-t) y under
    w' = E(-t) N(E(t) w), with N = rhs_free_boundary - Lambda, and t
    rides along with rate 1.

    E and Lambda change f and fdot only by harmonic extensions, and v
    and gamma not at all.  So w holds the modes turned back to time 0
    beside plain fdot, v, gamma and the modes g of that fdot; the state
    of w turns its modes to t, takes f as the volume-constrained
    potential of h (so stage maps stay volume preserving) and gives
    fdot the harmonic extension of its mode defect.  Stage one is the
    given state itself.  A state with a member axis steps every member
    in one call, each turned by the omega of its own k; dt must then
    meet the bound of the largest k.
    """
    grid, k = state.f.grid, state.k
    omega = capillary_frequencies(state.k_factor, grid.n_theta)
    bound = np.pi / omega.max()
    if dt > bound * (1.0 + 1e-12):
        raise ConfigError(
            f"dt = {dt:.3e} exceeds the capillary rotation bound {bound:.3e}")
    inert = omega == 0.0

    def turn(t):
        c, s = np.cos(omega * t), np.sin(omega * t)
        return np.array([[c, s / np.where(inert, 1.0, omega)],
                         [-omega * s, c]])

    def apply(op, z):
        return np.einsum("ij...,j...->i...", op, z)

    def nonlinear(stage, z):
        """The rates of (fdot, v, gamma, modes of fdot) at a stage with
        modes z, and the modes of N."""
        _, fddot, vdot, gamma_rate = rhs_free_boundary(stage)
        g_rate = restrict_boundary(fddot).coeffs
        return ((fddot, vdot, gamma_rate, g_rate),
                np.stack([inert * z[1], g_rate + omega ** 2 * z[0]]))

    def at(w):
        """The modes and the state of w; the system is autonomous, so
        stage states keep the step's time."""
        zw, fdot, v, gamma, g, t = w
        z = apply(turn(t), zw)
        return z, FreeBoundaryState(
            f=solve_volume_constraint(BoundaryFunction(grid, z[0])),
            fdot=fdot + harmonic_extension(BoundaryFunction(grid, z[1] - g)),
            v=v, gamma=gamma, time=state.time, k=k)

    def rates(w):
        z, stage = (z0, state) if w is w0 else at(w)
        r, n = nonlinear(stage, z)
        return (apply(turn(-w[-1]), n),) + r + (1.0,)

    z0 = np.stack([restrict_boundary(state.f).coeffs,
                   restrict_boundary(state.fdot).coeffs])
    w0 = (z0, state.fdot, state.v, state.gamma, z0[1], 0.0)
    _, end = at(rk4(rates, w0, dt))
    return end._replace(v=hodge_P(end.v),
                        gamma=end.gamma.renormalize_boundary(),
                        time=state.time + dt)


def output_derivatives(state):
    """(grad f, grad fdot, w) of a state from two derivative passes:
    (f, fdot) stacked, then D^2 f from grad f; energy_report and
    reconstruct_eta take them so an output time derives them once."""
    grid = state.f.grid
    gx, gy = grad_values(grid, np.stack([state.f.values, state.fdot.values]))
    grad_f = VectorField(grid, [gx[0], gy[0]])
    grad_fdot = VectorField(grid, [gx[1], gy[1]])
    sx, sy = grad_values(grid, grad_f.values)
    w = pullback_velocity(state, grad_fdot, (sx[0], sy[0], sx[1], sy[1]))
    return grad_f, grad_fdot, w


def energy_report(state, derivatives):
    """Kinetic plus surface energy; E is the conserved total.

    The kinetic term integrates |eta_dot|^2 = |w o beta|^2 with
    w = grad fdot + L v; beta preserves the measure, so the composition
    drops out of the integral and w is integrated directly.
    derivatives is output_derivatives(state).
    """
    grad_f, _, w = derivatives
    kinetic = 0.5 * l2_norm_disk(w) ** 2
    potential = state.k * (boundary_length(grad_f) - 2.0 * np.pi)
    return EnergyReport(kinetic=kinetic, potential=potential,
                        E=kinetic + potential)


def reconstruct_eta(state, derivatives):
    """(eta, eta_dot) at reference labels, for norm comparisons:
    eta = (id + grad f) o beta and eta_dot = w o beta, sampled at the
    node images Y of beta, the preimages under gamma, through Newton's
    plan (invert_disk_map); derivatives is output_derivatives(state)."""
    grad_f, _, w = derivatives
    grid = grad_f.grid
    Y, plan = invert_disk_map(state.gamma)
    shift, eta_dot = sample_at((grad_f, w), Y, plan)
    beta = VectorField(grid, Y.T.reshape(grid.xy.shape) - grid.xy)
    return DiskMap(beta + shift, kind="embedding"), eta_dot
