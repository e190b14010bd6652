import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from captension.diskfield import BoundaryFunction, make_grid
from captension.errors import ConfigError


def test_grid_geometry(grid):
    assert grid.theta[0] == 0.0
    assert np.allclose(np.diff(grid.theta), 2.0 * np.pi / grid.n_theta)
    assert grid.r[-1] == 1.0
    assert np.all(np.diff(grid.r) > 0)
    assert grid.r[0] > 0.0  # no axis node


def test_make_grid_is_cached():
    assert make_grid(16, 8) is make_grid(16, 8)


def test_make_grid_validation():
    with pytest.raises(ConfigError):
        make_grid(7, 8)  # odd angular count
    with pytest.raises(ConfigError):
        make_grid(16, 1)


def test_quadrature_exact_on_polynomials(grid):
    one = np.ones_like(grid.xx)
    assert grid.integrate(one) == pytest.approx(np.pi, abs=1e-13)
    # int r^2 over the disk = pi/2
    assert grid.integrate(grid.xx ** 2 + grid.yy ** 2) == pytest.approx(
        np.pi / 2.0, abs=1e-13)
    # odd integrand integrates to zero
    assert grid.integrate(grid.xx * grid.yy ** 2) == pytest.approx(0.0, abs=1e-13)


def test_boundary_quadrature(grid):
    # 2 pi times the mode-0 coefficient of ring samples is the trapezoid
    # rule on the circle, exact on trigonometric polynomials of low degree
    cos3 = np.cos(3.0 * grid.theta)
    for ring, exact in ((np.ones(grid.n_theta), 2.0 * np.pi), (cos3, 0.0),
                        (cos3 ** 2, np.pi)):
        c0 = BoundaryFunction.from_samples(grid, ring).coeffs[0].real
        assert 2.0 * np.pi * c0 == pytest.approx(exact, abs=1e-13)


def test_modal_round_trip(grid, rng):
    vals = rng.standard_normal((grid.n_r, grid.n_theta))
    back = grid.from_modes(grid.to_modes(vals))
    assert np.allclose(back, vals, atol=1e-13)


def test_dtheta_on_single_mode(grid):
    vals = np.cos(4.0 * grid.tt)
    expected = -4.0 * np.sin(4.0 * grid.tt)
    assert np.allclose(grid.polar_derivatives(vals)[1], expected, atol=1e-12)


def test_dr_on_radial_powers(grid):
    # r^3 cos(theta) has odd parity in the doubled variable
    vals = grid.rr ** 3 * np.cos(grid.tt)
    expected = 3.0 * grid.rr ** 2 * np.cos(grid.tt)
    assert np.allclose(grid.polar_derivatives(vals)[0], expected, atol=1e-11)


def test_l2_inner_matches_integral(grid):
    f = grid.xx
    g = grid.yy ** 2
    direct = grid.integrate(f * g)
    assert grid.l2_inner(f, g) == pytest.approx(direct, abs=1e-13)


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_integrate_is_linear(c):
    grid = make_grid(16, 8)
    f = grid.xx ** 2
    assert grid.integrate(c * f) == pytest.approx(c * grid.integrate(f),
                                                  rel=1e-12, abs=1e-12)

