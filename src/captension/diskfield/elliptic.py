"""Constant-coefficient elliptic solves on the disk, one dense system per mode.

The Dirichlet problem reduces per Fourier mode to a small 1D collocation
system whose inverse is cached on the grid, and a harmonic extension is
r^m times each boundary coefficient.  The one Neumann problem the solver
meets, that of the Hodge split, is solved per mode by the grid's
hodge_inv (see projections.hodge_potential).
"""

import numpy as np

from .fields import ScalarField

__all__ = ["solve_dirichlet", "dirichlet_values", "harmonic_extension"]


def solve_dirichlet(rhs, bdata=None):
    """Solve laplacian(g) = rhs with g = bdata on the boundary circle,
    member by member when rhs (and bdata) carry a member axis."""
    return ScalarField(rhs.grid, dirichlet_values(
        rhs.grid, rhs.values, None if bdata is None else bdata.coeffs))


def dirichlet_values(grid, rhs, coeffs=None):
    """solve_dirichlet on arrays: the samples of g from the samples rhs
    and the boundary coefficients, None for zero."""
    C = grid.to_modes(rhs).swapaxes(-1, -2).copy()  # (..., n_modes, n_r)
    C[..., -1] = 0.0 if coeffs is None else coeffs
    sol = np.einsum("mij,...mj->...mi", grid.dirichlet_inv, C)
    return grid.from_modes(sol.swapaxes(-1, -2))


def harmonic_extension(bdata):
    """Harmonic function with boundary trace bdata: each mode times r^m."""
    grid = bdata.grid
    prof = grid.harmonic_profiles * bdata.coeffs[..., None]  # (..., n_modes, n_r)
    return ScalarField(grid, grid.from_modes(prof.swapaxes(-1, -2)))
