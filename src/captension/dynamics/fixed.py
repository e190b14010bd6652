"""Fixed-disk incompressible Euler flow, two independent ways.

The Lagrangian route advances the particle map zeta by the acceleration
operator Z; the Eulerian route transports vorticity with the velocity
recovered from a stream function.  They discretize the same flow with
disjoint machinery, so their particle maps agreeing is a meaningful
cross-check rather than a tautology.  Neither projects its velocity
after a step: Z acts on the Leray part of every stage velocity, and a
stream function's velocity is divergence-free.
"""

from ..diskfield import advect, compose, sample_at, solve_dirichlet
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


def invert_disk_map(alpha, near=None):
    """(preimages, plan): the preimages of the grid nodes under a
    near-identity disk map, and the evaluation plan of Newton's
    converged pass at them.

    Newton with the stage-map slack STAGE_CLAMP, from near's preimages
    and their plan when near (a map close to alpha, such as the map
    inverted last in alpha's step) has its inverse cached, else from
    the first guess x - d(x).  Both are cached on the (immutable) map,
    so repeated operator applications at one alpha pay once, and an
    evaluation at the preimages passes the plan and builds none.
    step_fixed_euler inverts its end map, so the next step's first
    stage finds them cached.
    """
    cached = alpha._cache.get("inverse")
    if cached is None:
        X = alpha.grid.xy.reshape(2, -1).T
        warm = None if near is None else near._cache.get("inverse")
        if warm is None:
            warm = X - alpha.displacement.values.reshape(2, -1).T, None
        Y, plan = invert_points(alpha, X, *warm)
        Y.setflags(write=False)
        cached = alpha._cache["inverse"] = Y, plan
    return cached


def euler_Z(alpha, vel, near=None):
    """Lagrangian acceleration Z(alpha, v) = (Q((u.grad) P u)) o alpha
    with u = v o alpha^-1.  near, a map close to alpha whose inverse is
    cached, warm-starts the inversion of alpha (see invert_disk_map)."""
    u = sample_at(vel, *invert_disk_map(alpha, near))
    return compose(hodge_Q(advect(u, hodge_P(u))), alpha)


def step_fixed_euler(state, dt):
    """RK4 on (zeta, zetadot) and the boundary renormalisation of zeta;
    no projection follows.  Newton starts from the map inverted last:
    stage 3 from stage 2, (dt^2/4) Z away, and the renormalised end map
    from stage 4, O(dt^3) away, each in two passes, not three.  A map
    held as the last one keeps its inverse alone: compose keeps no plan
    of its images."""
    last = [state.zeta]

    def rates(y):
        last[0], acc = y[0], euler_Z(*y, near=last[0])
        return y[1], acc

    zeta, vel = rk4(rates, (state.zeta, state.zetadot), dt)
    zeta_new = zeta.renormalize_boundary()
    invert_disk_map(zeta_new, near=last[0])
    return FixedEulerState(zeta=zeta_new, zetadot=vel, time=state.time + dt)


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
