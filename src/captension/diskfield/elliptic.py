"""Constant-coefficient elliptic solves on the disk, one dense system per mode.

The Dirichlet problem reduces per Fourier mode to a small 1D collocation
system whose inverse is cached on the grid, and a harmonic extension is
r^m times each boundary coefficient.  The one Neumann problem the solver
meets, that of the Hodge split, is solved per mode by the grid's
hodge_inv (see projections.hodge_potential).
"""

import numpy as np

from .fields import ScalarField

__all__ = ["solve_dirichlet", "harmonic_extension"]


def solve_dirichlet(rhs, bdata=None):
    """Solve laplacian(g) = rhs with g = bdata on the boundary circle,
    member by member when rhs (and bdata) carry a member axis."""
    grid = rhs.grid
    C = grid.to_modes(rhs.values).swapaxes(-1, -2).copy()  # (..., n_modes, n_r)
    if bdata is None:
        C[..., -1] = 0.0
    else:
        C[..., -1] = bdata.coeffs
    sol = np.einsum("mij,...mj->...mi", grid.dirichlet_inv, C)
    return ScalarField(grid, grid.from_modes(sol.swapaxes(-1, -2)))


def harmonic_extension(bdata):
    """Harmonic function with boundary trace bdata: each mode times r^m."""
    grid = bdata.grid
    prof = grid.harmonic_profiles * bdata.coeffs[..., None]  # (..., n_modes, n_r)
    return ScalarField(grid, grid.from_modes(prof.swapaxes(-1, -2)))
