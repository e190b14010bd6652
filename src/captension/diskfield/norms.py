"""Sobolev norms: integer orders on the disk, real orders on the circle."""

import numbers

import numpy as np

from ..errors import UnsupportedOrderError
from .calculus import grad_values
from .fields import ScalarField, VectorField

__all__ = ["sobolev_norm_disk", "sobolev_norm_boundary", "l2_norm_disk"]

MAX_DISK_ORDER = 4


def _norm_sq_scalar(grid, values, s):
    # derivative table D^(a,b) = d_x^a d_y^b f one order at a time, order
    # n stacked as b = 0..n: d_x of every entry of order n - 1, then d_y
    # of its pure d_y entry; summed b-major, the order the bits depend on
    sq = {(0, 0): grid.integrate(values * values)}
    order = values[None]
    for n in range(1, s + 1):
        gx, gy = grad_values(grid, order)
        order = np.concatenate([gx, gy[-1:]])
        for b, g in enumerate(order):
            sq[n - b, b] = grid.integrate(g * g)
    return sum(sq[a, b] for b in range(s + 1) for a in range(s + 1 - b))


def sobolev_norm_disk(f, s):
    """H^s(disk) norm, (sum_{|alpha| <= s} ||D^alpha f||_L2^2)^(1/2), s = 0..4."""
    if isinstance(s, bool) or not isinstance(s, numbers.Integral):
        raise UnsupportedOrderError(f"disk Sobolev order must be an integer, got {s!r}")
    s = int(s)
    if s < 0 or s > MAX_DISK_ORDER:
        raise UnsupportedOrderError(f"disk Sobolev order {s} outside 0..{MAX_DISK_ORDER}")
    if not isinstance(f, (ScalarField, VectorField)):
        raise UnsupportedOrderError(
            "sobolev_norm_disk expects a ScalarField or VectorField")
    grid = f.grid
    # components summed one after another, x before y
    parts = f.values.reshape(-1, grid.n_r, grid.n_theta)
    return float(np.sqrt(sum(_norm_sq_scalar(grid, v, s) for v in parts)))


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
