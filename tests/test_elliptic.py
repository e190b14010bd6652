import numpy as np
import pytest

from captension.diskfield import (BoundaryFunction, ScalarField, gradient,
                                  harmonic_extension, laplacian,
                                  restrict_boundary, solve_dirichlet,
                                  solve_neumann)
from captension.errors import CompatibilityError


def test_dirichlet_homogeneous_manufactured(grid):
    # u = (1 - r^2) x  =>  lap u = -8x, u = 0 on the circle
    rhs = ScalarField.from_function(grid, lambda x, y: -8.0 * x)
    u = solve_dirichlet(rhs)
    exact = (1.0 - grid.rr ** 2) * grid.xx
    assert np.allclose(u.values, exact, atol=1e-12)


def test_dirichlet_with_boundary_data(grid):
    # u = x^2 - y^2 is harmonic; data cos(2 theta) on the circle
    bdata = BoundaryFunction.single_mode(grid, 2, 1.0)
    u = solve_dirichlet(ScalarField.zeros(grid), bdata)
    assert np.allclose(u.values, grid.xx ** 2 - grid.yy ** 2, atol=1e-12)


def test_dirichlet_residual(grid, rng):
    vals = np.zeros_like(grid.xx)
    for i in range(4):
        for j in range(4 - i):
            vals += rng.standard_normal() * grid.xx ** i * grid.yy ** j
    rhs = ScalarField(grid, vals)
    u = solve_dirichlet(rhs)
    assert np.abs(laplacian(u).values[:-1, :] - rhs.values[:-1, :]).max() < 1e-10
    assert np.abs(u.values[-1, :]).max() < 1e-12


def test_neumann_radial_oracle(grid):
    # lap u = 2 with du/dr = 1 on the circle: u = r^2/2 + c, mean zero
    rhs = ScalarField.from_function(grid, lambda x, y: 2.0 * np.ones_like(x))
    flux = BoundaryFunction.single_mode(grid, 0, 1.0)
    u = solve_neumann(rhs, flux)
    exact = grid.rr ** 2 / 2.0
    exact = exact - grid.integrate(exact) / np.pi
    assert np.allclose(u.values, exact, atol=1e-12)
    assert grid.integrate(u.values) == pytest.approx(0.0, abs=1e-12)


def test_neumann_green_identity(grid, rng):
    # <grad u, grad v> = -<lap u, v> + boundary flux term
    rhs = ScalarField.from_function(grid, lambda x, y: x * y - grid_mean_xy(x, y))
    u = solve_neumann(rhs)
    v = ScalarField.from_function(grid, lambda x, y: x ** 2 + 0.3 * y)
    gu, gv = gradient(u), gradient(v)
    lhs = (grid.l2_inner(gu.values[0], gv.values[0])
           + grid.l2_inner(gu.values[1], gv.values[1]))
    # grad u . nu on the ring, against v there, by the trapezoid rule
    flux = (gu.values[0, -1, :] * np.cos(grid.theta)
            + gu.values[1, -1, :] * np.sin(grid.theta))
    ring_v = v.values[-1, :]
    rhs_val = (-grid.l2_inner(rhs.values, v.values)
               + 2.0 * np.pi / grid.n_theta * np.sum(flux * ring_v))
    assert lhs == pytest.approx(rhs_val, abs=1e-10)


def grid_mean_xy(x, y):
    # x*y already integrates to zero over the disk
    return 0.0


def test_neumann_incompatible_data_raises(grid):
    rhs = ScalarField.from_function(grid, lambda x, y: np.ones_like(x))
    with pytest.raises(CompatibilityError):
        solve_neumann(rhs)  # int rhs = pi but boundary flux 0


def test_harmonic_extension_single_mode(grid):
    b = BoundaryFunction.single_mode(grid, 3, 0.7)
    u = harmonic_extension(b)
    exact = 0.7 * grid.rr ** 3 * np.cos(3.0 * grid.tt)
    assert np.allclose(u.values, exact, atol=1e-12)
    assert np.allclose(restrict_boundary(u).samples(), b.samples(), atol=1e-13)
