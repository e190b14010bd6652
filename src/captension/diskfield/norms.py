"""Sobolev norms: orders 0 and 1 on the disk, real orders on the circle."""

import numpy as np

from ..errors import UnsupportedOrderError
from .calculus import grad_values
from .fields import ScalarField, VectorField

__all__ = ["sobolev_norm_disk", "sobolev_norm_boundary", "l2_norm_disk"]


def sobolev_norm_disk(f, s):
    """H^s(disk) norm, (sum_{|alpha| <= s} ||D^alpha f||_L2^2)^(1/2), s = 0 or 1."""
    if type(s) is not int or s not in (0, 1):
        raise UnsupportedOrderError(
            f"disk Sobolev order must be 0 or 1, got {s!r}")
    if not isinstance(f, (ScalarField, VectorField)):
        raise UnsupportedOrderError(
            "sobolev_norm_disk expects a ScalarField or VectorField")
    grid = f.grid
    # per component, x before y: ||f||^2, then at s = 1 ||d_x f||^2 and
    # ||d_y f||^2, summed in the order the bits depend on
    total = 0.0
    for v in f.values.reshape(-1, grid.n_r, grid.n_theta):
        sq = grid.integrate(v * v)
        if s:
            gx, gy = grad_values(grid, v)
            sq = sq + grid.integrate(gx * gx) + grid.integrate(gy * gy)
        total += sq
    return float(np.sqrt(total))


def l2_norm_disk(f):
    return sobolev_norm_disk(f, 0)


def sobolev_norm_boundary(b, s):
    """H^s(circle) norm from the Fourier multiplier (1 + m^2)^s; any real s >= 0."""
    if s < 0:
        raise UnsupportedOrderError("boundary Sobolev order must be >= 0")
    grid = b.grid
    weights = np.full(grid.n_modes, 2.0)
    weights[0] = 1.0
    mult = (1.0 + grid.modes.astype(float) ** 2) ** s
    total = 2.0 * np.pi * np.sum(weights * mult * np.abs(b.coeffs) ** 2)
    return float(np.sqrt(total))
