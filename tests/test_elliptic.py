import numpy as np
import pytest

from helpers import from_function, l2_inner, single_mode

from captension.diskfield import (ScalarField, VectorField, divergence,
                                  gradient, harmonic_extension, laplacian,
                                  restrict_boundary, solve_dirichlet)
from captension.projections import hodge_potential


def test_dirichlet_homogeneous_manufactured(grid):
    # u = (1 - r^2) x  =>  lap u = -8x, u = 0 on the circle
    rhs = from_function(grid, lambda x, y: -8.0 * x)
    u = solve_dirichlet(rhs)
    exact = (1.0 - grid.rr ** 2) * grid.xx
    assert np.allclose(u.values, exact, atol=1e-12)


def test_dirichlet_with_boundary_data(grid):
    # u = x^2 - y^2 is harmonic; data cos(2 theta) on the circle
    bdata = single_mode(grid, 2, 1.0)
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
    # w = (x, y): lap u = div w = 2 with du/dr = <w, nu> = 1 on the circle,
    # so u = r^2/2 + c, mean zero
    u = hodge_potential(VectorField.from_arrays(grid, grid.xx, grid.yy))
    exact = grid.rr ** 2 / 2.0
    exact = exact - grid.integrate(exact) / np.pi
    assert np.allclose(u.values, exact, atol=1e-12)
    assert grid.integrate(u.values) == pytest.approx(0.0, abs=1e-12)


def test_neumann_green_identity(grid):
    # <grad u, grad v> = -<div w, v> + boundary integral of <w, nu> v for
    # the Hodge potential u of w, div w taken by the Cartesian route
    w = VectorField.from_arrays(grid, grid.xx ** 2 * grid.yy + 0.3,
                                grid.xx - grid.yy ** 3)
    u = hodge_potential(w)
    v = from_function(grid, lambda x, y: x ** 2 + 0.3 * y)
    gu, gv = gradient(u), gradient(v)
    lhs = (l2_inner(grid, gu.values[0], gv.values[0])
           + l2_inner(grid, gu.values[1], gv.values[1]))
    # <w, nu> on the ring, against v there, by the trapezoid rule
    flux = (w.values[0, -1, :] * np.cos(grid.theta)
            + w.values[1, -1, :] * np.sin(grid.theta))
    ring_v = v.values[-1, :]
    rhs_val = (-l2_inner(grid, divergence(w).values, v.values)
               + 2.0 * np.pi / grid.n_theta * np.sum(flux * ring_v))
    assert lhs == pytest.approx(rhs_val, abs=1e-10)


def test_harmonic_extension_single_mode(grid):
    b = single_mode(grid, 3, 0.7)
    u = harmonic_extension(b)
    exact = 0.7 * grid.rr ** 3 * np.cos(3.0 * grid.tt)
    assert np.allclose(u.values, exact, atol=1e-12)
    assert np.allclose(restrict_boundary(u).samples(), b.samples(), atol=1e-13)
