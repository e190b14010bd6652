"""Sobolev norms of orders 0 and 1 on the disk."""

import numpy as np

from ..errors import UnsupportedOrderError
from .calculus import grad_values
from .fields import ScalarField, VectorField

__all__ = ["sobolev_norm_disk", "l2_norm_disk"]


def sobolev_norm_disk(f, s):
    """H^s(disk) norm, (sum_{|alpha| <= s} ||D^alpha f||_L2^2)^(1/2), s = 0 or 1;
    with a member axis, an array of each member's norm, with its lone bits."""
    if type(s) is not int or s not in (0, 1):
        raise UnsupportedOrderError(
            f"disk Sobolev order must be 0 or 1, got {s!r}")
    if not isinstance(f, (ScalarField, VectorField)):
        raise UnsupportedOrderError(
            "sobolev_norm_disk expects a ScalarField or VectorField")
    grid = f.grid
    # per component, x before y: ||f||^2, then at s = 1 ||d_x f||^2 and
    # ||d_y f||^2 from one pass of every component; summed in that order
    sq = grid.integrate(f.values * f.values)
    if s:
        gx, gy = grad_values(grid, f.values)
        sq = sq + grid.integrate(gx * gx) + grid.integrate(gy * gy)
    norms = np.sqrt(sq.reshape(-1, f.members or 1).sum(axis=0))
    return norms if f.members else float(norms[0])


def l2_norm_disk(f):
    """The L2 norm, sobolev_norm_disk(f, 0)."""
    return sobolev_norm_disk(f, 0)
