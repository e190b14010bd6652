"""Constant-coefficient elliptic solves on the disk, one dense system per mode.

Dirichlet and Neumann problems reduce per Fourier mode to small 1D
collocation systems whose inverses are cached on the grid.  The Neumann
mode zero is the classical compatibility-constrained problem: the data is
projected onto the solvable set (a constant is subtracted from the source)
and the additive gauge is fixed by zero disk average.
"""

import numpy as np

from ..errors import CompatibilityError
from .fields import BoundaryFunction, ScalarField

__all__ = ["solve_dirichlet", "solve_neumann", "harmonic_extension",
           "TOL_COMPAT"]

TOL_COMPAT = 1e-8


def solve_dirichlet(rhs, bdata=None):
    """Solve laplacian(g) = rhs with g = bdata on the boundary circle."""
    grid = rhs.grid
    C = grid.to_modes(rhs.values).T.copy()  # (n_modes, n_r)
    if bdata is None:
        C[:, -1] = 0.0
    else:
        C[:, -1] = bdata.rfft_coeffs()
    sol = np.einsum("mij,mj->mi", grid.dirichlet_inv, C)
    return ScalarField(grid, grid.from_modes(sol.T))


def solve_neumann(rhs, flux=None):
    """Solve laplacian(g) = rhs with d_r g = flux on the boundary, zero mean.

    The divergence theorem forces integral(rhs) = boundary integral(flux);
    the measured discrepancy must sit below TOL_COMPAT relative to the data
    scale, after which the constant part is removed from rhs so the
    discrete problem is solvable exactly.
    """
    grid = rhs.grid
    if flux is None:
        flux = BoundaryFunction.zeros(grid)
    vol = grid.integrate(rhs.values)
    srf = 2.0 * np.pi * flux.mean()
    gap = vol - srf
    scale = 1.0 + abs(vol) + abs(srf)
    if abs(gap) > TOL_COMPAT * scale:
        raise CompatibilityError(
            f"Neumann data incompatible: integral(rhs) - integral(flux) = {gap:.3e}")

    C = grid.to_modes(rhs.values).T.copy()  # (n_modes, n_r)
    Cf = flux.rfft_coeffs()

    # mode zero: remove the constant discrepancy, then bordered solve
    C0 = C[0].real - (gap / np.pi) * grid.n_theta
    vec0 = np.empty(grid.n_r + 1)
    vec0[: grid.n_r] = C0
    vec0[grid.n_r - 1] = Cf[0].real
    vec0[grid.n_r] = 0.0
    sol0 = grid.neumann0_inv @ vec0

    C[:, -1] = Cf
    sol = np.einsum("mij,mj->mi", grid.neumann_inv, C)
    sol[0] = sol0[: grid.n_r]
    return ScalarField(grid, grid.from_modes(sol.T))


def harmonic_extension(bdata):
    """Harmonic function with the given boundary trace: sum c_m r^|m| e^(i m theta)."""
    grid = bdata.grid
    prof = grid.harmonic_profiles * bdata.rfft_coeffs()[:, None]  # (n_modes, n_r)
    return ScalarField(grid, grid.from_modes(prof.T))
