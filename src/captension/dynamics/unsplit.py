"""Arbitration integrator: the free-surface flow without the splitting.

Advances (eta, etadot) directly under the Lagrangian law
eta_ddot = -(grad p) o eta.  No decomposition, no per-step projection,
no operator algebra; run it coarse and short, since without projection
it has no constraint repair.

The pressure is the shared one of pressure.py, so the split-vs-unsplit
oracle (criterion 09) arbitrates what differs between the integrators:
the f/beta decomposition, the projections, L1^-1 and A* against this
one-piece law.  The pressure itself is pinned by analytic checks.
"""

from .pressure import pressure_gradient
from .states import rk4

__all__ = ["unsplit_acceleration", "step_unsplit"]


def unsplit_acceleration(eta, etadot, k):
    """-(grad p) o eta at reference points."""
    # stage states sit slightly off det = 1; the coefficients use the
    # exact pointwise inverse, so only the divergence-form identity
    # carries the O(det - 1) slack
    return -pressure_gradient(eta, etadot, k, det_tol=1e-5)


def step_unsplit(eta, etadot, dt, k):
    """One RK4 step of the unprojected Lagrangian system."""
    return rk4(lambda y: (y[1], unsplit_acceleration(*y, k)),
               (eta, etadot), dt)
