"""Sobolev norms of orders 0 and 1 on the disk."""

import numpy as np

from ..errors import UnsupportedOrderError
from .calculus import grad_values
from .fields import ScalarField, VectorField

__all__ = ["sobolev_norm_disk", "l2_norm_disk"]


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
    """The L2 norm, sobolev_norm_disk(f, 0) bit for bit; with a member
    axis, an array of each member's norm."""
    # grid.integrate of each component of each member: its row sums,
    # then their product with weights_r as a batch of one-by-one
    # products, which numpy runs as the dot of a member alone; the
    # components are summed in order, as sobolev_norm_disk does
    grid = f.grid
    rows = (f.values * f.values).sum(axis=-1)[..., None, :]
    sq = (2.0 * np.pi / grid.n_theta) * (rows @ grid.weights_r[:, None])
    norms = np.sqrt(sq.reshape(-1, f.members or 1).sum(axis=0))
    return norms if f.members else float(norms[0])
