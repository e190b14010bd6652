"""Time evolution of the decomposed free-surface flow.

The second-order system for (f, v) is advanced as a first-order system
in (f, fdot, v, beta) by explicit RK4 under the capillary CFL bound,
with per-step re-projection onto the constraint set: f back onto the
volume constraint, v back onto divergence-free tangent fields, and the
boundary ring of beta back onto the circle.  Each right-hand side
takes its derivatives of f, fdot and v from one chain of three stacked
derivative passes and hands D^2 f to every operator that needs it.
"""

import numpy as np

from ..errors import ConfigError
from ..diskfield import (
    DiskMap,
    VectorField,
    compose,
    grad_values,
    gradient,
    l2_norm_disk,
    restrict_boundary,
)
from ..projections import (
    _hessian_apply,
    apply_L,
    hodge_P,
    hodge_Q,
    hodge_potential,
    solve_L1_inverse,
)
from ..shape import boundary_length, compose_Phi, solve_volume_constraint
from .pressure import pressure_gradient, pullback_velocity
from .states import EnergyReport, FreeBoundaryState, rk4

__all__ = [
    "rhs_free_boundary",
    "step_free_boundary",
    "dt_max",
    "energy_report",
    "reconstruct_eta",
    "STAGE_CLAMP",
]

# stage maps of an explicit step overshoot the circle by O(dt^2)
STAGE_CLAMP = 1e-5


def rhs_free_boundary(state):
    """Rates (fdot, fddot, vdot, beta_velocity) of the decomposed system.

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

    Derivatives: (grad f, grad fdot), then (D^2 f, D^2 fdot, Dv), then
    D^3 f; D^2 f serves L, L1^-1, w and D eta = I + D^2 f.
    """
    grid = state.f.grid
    vx, vy = state.v.values
    gx, gy = grad_values(grid, np.stack([state.f.values, state.fdot.values]))
    grads = np.stack([gx, gy], axis=1)
    sx, sy = grad_values(grid, np.concatenate([grads, state.v.values[None]]))
    hess_f, hess_fdot = ((sx[i, 0], sy[i, 0], sx[i, 1], sy[i, 1])
                         for i in (0, 1))
    tx, ty = grad_values(grid, np.stack([sx[0], sy[0]]))

    grad_p = pressure_gradient(
        DiskMap(VectorField(grid, grads[0]), kind="embedding"),
        pullback_velocity(state, VectorField(grid, grads[1]), hess_f),
        state.k, jacobian=(1.0 + sx[0, 0], sy[0, 0], sx[0, 1], 1.0 + sy[0, 1]))

    dv_grad_fdot = _hessian_apply(grid, hess_fdot, state.v)
    dvv_grad_f = VectorField(grid, vx * vx * tx[0] + vx * vy * (ty[0] + tx[1])
                             + vy * vy * ty[1])
    conv = VectorField(grid, vx * sx[2] + vy * sy[2])
    q_conv = hodge_Q(conv)

    bracket = (2.0 * dv_grad_fdot + dvv_grad_f
               + apply_L(state.f, q_conv, hess_f) + grad_p)
    m = solve_L1_inverse(state.f, hodge_P(bracket), hess_f)
    fddot = hodge_potential(apply_L(state.f, m, hess_f) - bracket)

    vdot = -(conv - q_conv) - solve_L1_inverse(
        state.f, 2.0 * dv_grad_fdot + dvv_grad_f, hess_f)

    beta_velocity = compose(state.v, state.beta, clamp_tol=STAGE_CLAMP)
    return state.fdot, fddot, vdot, beta_velocity


def dt_max(k, n_theta, c_cfl=0.5):
    """Capillary stability bound: the fastest resolvable surface wave has
    frequency ~ sqrt(k (n_theta/2)^3)."""
    return c_cfl / np.sqrt(k * (n_theta / 2.0) ** 3)


def step_free_boundary(state, dt, c_cfl=0.5):
    """One RK4 step followed by constraint re-projection."""
    bound = dt_max(state.k, state.f.grid.n_theta, c_cfl)
    if dt > bound * (1.0 + 1e-12):
        raise ConfigError(
            f"dt = {dt:.3e} exceeds the capillary stability bound {bound:.3e}")

    # the system is autonomous, so stage states keep the step's time
    f_new, fdot_new, v_new, beta_new = rk4(
        lambda y: rhs_free_boundary(
            FreeBoundaryState(*y, time=state.time, k=state.k)),
        (state.f, state.fdot, state.v, state.beta), dt)
    return FreeBoundaryState(
        f=solve_volume_constraint(restrict_boundary(f_new)),
        fdot=fdot_new,
        v=hodge_P(v_new),
        beta=beta_new.renormalize_boundary(),
        time=state.time + dt,
        k=state.k,
    )


def energy_report(state):
    """Kinetic plus surface energy; E is the conserved total.

    The kinetic term integrates |eta_dot|^2 = |w o beta|^2 with
    w = grad fdot + L v; beta preserves the measure, so the composition
    drops out of the integral and w is integrated directly.
    """
    w = pullback_velocity(state)
    kinetic = 0.5 * l2_norm_disk(w) ** 2
    length = boundary_length(state.f)
    potential = state.k * (length - 2.0 * np.pi)
    e_tilde = (0.5 * l2_norm_disk(gradient(state.fdot)) ** 2
               + state.k * length)
    return EnergyReport(kinetic=kinetic, potential=potential,
                        E=kinetic + potential, E_tilde=e_tilde)


def reconstruct_eta(state):
    """(eta, eta_dot) at reference labels, for norm comparisons."""
    eta = compose_Phi(state.beta, state.f)
    etadot = compose(pullback_velocity(state), state.beta)
    return eta, etadot
