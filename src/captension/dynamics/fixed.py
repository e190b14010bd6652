"""Fixed-disk incompressible Euler flow, two independent ways.

The Lagrangian route carries the particle map zeta, its rate zetadot
and the Eulerian velocity u: u solves Euler's equations in velocity
form, u_t = -P((u.grad) u) under the Leray projection P, and zeta
advances second order, zeta'' = (Du/Dt) o zeta through the carried
zetadot.  The Eulerian route transports vorticity with the velocity
of a stream function and advances the particle map phi first order,
phi' = u o phi.  They discretize the same flow with disjoint
machinery, so their particle maps agreeing is a meaningful cross-check
rather than a tautology.  The Lagrangian route projects u once per
step; a stream function's velocity is divergence-free.
"""

from ..diskfield import advect, compose, solve_dirichlet
from ..projections import hodge_P, hodge_Q
from ..shape import invert_points
from .states import FixedEulerState, rk4, rotated_gradient

__all__ = [
    "invert_disk_map",
    "euler_Z",
    "step_fixed_euler",
    "vorticity_velocity",
    "vorticity_particle_step",
]


def invert_disk_map(alpha):
    """(preimages, plan): the preimages of the grid nodes under a
    near-identity disk map, and the evaluation plan of Newton's
    converged pass at them (shape.invert_points).

    Both are cached on the (immutable) map, so a second call at one
    alpha pays nothing, and an evaluation at the preimages passes the
    plan and builds none.  reconstruct_eta inverts gamma here, once
    per record; no fixed-disk step inverts a map.
    """
    cached = alpha._cache.get("inverse")
    if cached is None:
        Y, plan = invert_points(alpha)
        Y.setflags(write=False)
        cached = alpha._cache["inverse"] = Y, plan
    return cached


def euler_Z(alpha, u):
    """(Z, rate of u) for a divergence-free, boundary-tangent Eulerian
    velocity u and the particle map alpha it moves.

    With conv = (u.grad) u and q = Q conv, u_t = -P conv = q - conv,
    and the Lagrangian acceleration is its material derivative,
    Z = (Du/Dt) o alpha = q o alpha: one Hodge solve and one compose.
    """
    conv = advect(u, u)
    q = hodge_Q(conv)
    return compose(q, alpha), q - conv


def step_fixed_euler(state, dt):
    """RK4 on (zeta, zetadot, u), then the boundary renormalisation of
    zeta and the Leray projection of u.  zeta advances through the
    carried zetadot, never through u o zeta.  A step makes four
    compositions, one per stage, and inverts no map."""
    def rates(y):
        zeta, zetadot, u = y
        return (zetadot, *euler_Z(zeta, u))

    zeta, zetadot, u = rk4(rates, (state.zeta, state.zetadot, state.u), dt)
    return FixedEulerState(zeta=zeta.renormalize_boundary(), zetadot=zetadot,
                           u=hodge_P(u), time=state.time + dt)


def vorticity_velocity(omega):
    """u = rotated gradient of the stream function: lap psi = omega,
    psi = 0 on the circle."""
    return rotated_gradient(solve_dirichlet(omega))


def vorticity_particle_step(omega, phi, dt):
    """Advance vorticity and its particle map together by RK4.

    The particle map integrated from the Eulerian oracle velocity is
    what gets compared against the Lagrangian zeta.
    """
    def rates(y):
        o, p = y
        u = vorticity_velocity(o)
        return -advect(u, o), compose(u, p)

    omega_new, phi_new = rk4(rates, (omega, phi), dt)
    return omega_new, phi_new.renormalize_boundary()
