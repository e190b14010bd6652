import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (l2_inner, reference_polar_derivatives,
                     reference_weights_r)

import captension
from captension.diskfield import BoundaryFunction, make_grid
from captension.errors import ConfigError


def test_grid_geometry(grid):
    assert grid.theta[0] == 0.0
    assert np.allclose(np.diff(grid.theta), 2.0 * np.pi / grid.n_theta)
    assert grid.r[-1] == 1.0
    assert np.all(np.diff(grid.r) > 0)
    assert grid.r[0] > 0.0  # no axis node


@pytest.mark.parametrize("shape", [(16, 8), (32, 16), (64, 32), (10, 8)])
def test_the_doubled_radial_nodes_are_exact_mirrors(shape):
    # point evaluation folds both parities onto one weight set, which
    # needs w(-x) = -w(x) bit for bit; cos(j pi / N) alone misses by ulps
    grid = make_grid(*shape)
    assert np.array_equal(grid.x_full[::-1], -grid.x_full)
    assert np.array_equal(grid.bary_weights[grid.neg_full],
                          -grid.bary_weights[grid.pos_full])


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


@pytest.mark.parametrize("shape", [(16, 8), (32, 16), (64, 32)])
def test_radial_weights_match_numpys_gauss_rule(shape):
    # the grid's Golub-Welsch rule against numpy.polynomial's leggauss,
    # relative to the largest weight: at the small r = 1 weight leggauss
    # itself is off by up to 6e-12 relative on 64x32 (Golub-Welsch by
    # 5e-13), against the rule evaluated to 40 digits
    grid = make_grid(*shape)
    want = reference_weights_r(grid)
    assert np.abs(grid.weights_r - want).max() < 1e-13 * want.max()


def test_boundary_quadrature(grid):
    # 2 pi / n times the mode-0 coefficient of ring samples is the
    # trapezoid rule on the circle, exact on trigonometric polynomials of
    # low degree
    cos3 = np.cos(3.0 * grid.theta)
    for ring, exact in ((np.ones(grid.n_theta), 2.0 * np.pi), (cos3, 0.0),
                        (cos3 ** 2, np.pi)):
        c0 = BoundaryFunction.from_samples(grid, ring).coeffs[0].real
        assert 2.0 * np.pi * c0 / grid.n_theta == pytest.approx(exact, abs=1e-13)


def test_modal_round_trip(grid, rng):
    vals = rng.standard_normal((grid.n_r, grid.n_theta))
    back = grid.from_modes(grid.to_modes(vals))
    assert np.allclose(back, vals, atol=1e-13)


@pytest.mark.parametrize("shape", [(32, 16), (16, 8), (12, 8)])
@pytest.mark.parametrize("lead", [(), (2,), (4,)])
def test_transforms_agree_with_numpy_fft(shape, lead, rng):
    grid = make_grid(*shape)
    vals = rng.standard_normal(lead + (grid.n_r, grid.n_theta))
    assert np.abs(grid.to_modes(vals) - np.fft.rfft(vals, axis=-1)).max() \
        <= 1e-14 * np.abs(vals).max()
    mshape = lead + (grid.n_r, grid.n_modes)
    modes = rng.standard_normal(mshape) + 1j * rng.standard_normal(mshape)
    back = np.fft.irfft(modes, n=grid.n_theta, axis=-1)
    assert np.abs(grid.from_modes(modes) - back).max() \
        <= 1e-14 * np.abs(back).max()


def test_mode_0_and_nyquist_stay_real(grid, rng):
    # rfft writes their Im parts as 0 and irfft ignores them
    C = grid.to_modes(rng.standard_normal((grid.n_r, grid.n_theta)))
    assert not C[:, [0, -1]].imag.any()
    noisy = C.copy()
    noisy[:, [0, -1]] += 1j * rng.standard_normal((grid.n_r, 2))
    assert np.array_equal(grid.from_modes(noisy), grid.from_modes(C))


def test_stacked_transforms_match_each_field(grid, rng):
    vals = rng.standard_normal((4, grid.n_r, grid.n_theta))
    C = grid.to_modes(vals)
    back = grid.from_modes(C)
    for i in range(4):
        assert np.array_equal(C[i], grid.to_modes(vals[i]))
        assert np.array_equal(back[i], grid.from_modes(C[i]))


def test_boundary_samples_round_trip(grid, rng):
    ring = rng.standard_normal(grid.n_theta)
    b = BoundaryFunction.from_samples(grid, ring)
    assert np.allclose(b.samples(), ring, rtol=0.0, atol=1e-14)
    assert np.allclose(b.coeffs, np.fft.rfft(ring), rtol=0.0, atol=1e-13)


def test_no_module_calls_numpy_fft():
    # one implementation of the angular transform: the grid's tables
    root = pathlib.Path(captension.__file__).parent
    users = [str(p.relative_to(root)) for p in sorted(root.rglob("*.py"))
             if re.search(r"\bfft\b", p.read_text(encoding="utf-8"))]
    assert users == []


def test_dtheta_on_single_mode(grid):
    vals = np.cos(4.0 * grid.tt)
    expected = -4.0 * np.sin(4.0 * grid.tt)
    assert np.allclose(grid.polar_derivatives(vals)[1], expected, atol=1e-12)


def test_dr_on_radial_powers(grid):
    # r^3 cos(theta) has odd parity in the doubled variable
    vals = grid.rr ** 3 * np.cos(grid.tt)
    expected = 3.0 * grid.rr ** 2 * np.cos(grid.tt)
    assert np.allclose(grid.polar_derivatives(vals)[0], expected, atol=1e-11)


@pytest.mark.parametrize("shape", [(16, 8), (32, 16), (64, 32)])
def test_polar_derivatives_match_the_modal_formula(shape, rng):
    grid = make_grid(*shape)
    smooth = np.cos(3.0 * grid.xx) * np.exp(grid.yy) + grid.xx ** 5
    for vals in (smooth, rng.standard_normal(grid.sample_shape)):
        # roundoff of a Chebyshev derivative scales with max |f| N^2,
        # N = 2 n_r - 1 the order of the doubled grid
        scale = np.abs(vals).max() * (2 * grid.n_r - 1) ** 2
        gap = grid.polar_derivatives(vals) - reference_polar_derivatives(
            grid, vals)
        assert np.abs(gap).max() <= 1e-13 * scale
    # a stack of 2 fields of 3 members each keeps every lone field's bits
    stacked = rng.standard_normal((2,) + grid.with_members(3).sample_shape)
    both = grid.with_members(3).polar_derivatives(stacked)
    for i in range(2):
        for j in range(3):
            alone = grid.polar_derivatives(stacked[i, j])
            assert np.array_equal(both[:, i, j], alone)


@pytest.mark.parametrize("members", [None, 3])
def test_every_array_a_grid_holds_is_read_only(members):
    # every field of a shape shares its grid's operators, so one
    # in-place write would corrupt them all
    grid = make_grid(16, 8, members)
    arrays = {}
    for name, value in vars(grid).items():
        items = value.items() if isinstance(value, dict) else [(None, value)]
        for key, a in items:
            if isinstance(a, np.ndarray):
                arrays[name, key] = a
    assert ("cos_t", None) in arrays and ("lap_stack", None) in arrays
    assert [k for k, a in arrays.items() if a.flags.writeable] == []


def test_l2_inner_matches_integral(grid):
    f = grid.xx
    g = grid.yy ** 2
    direct = grid.integrate(f * g)
    assert l2_inner(grid, f, g) == pytest.approx(direct, abs=1e-13)


@settings(max_examples=20, deadline=None)
@given(c=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
def test_integrate_is_linear(c):
    grid = make_grid(16, 8)
    f = grid.xx ** 2
    assert grid.integrate(c * f) == pytest.approx(c * grid.integrate(f),
                                                  rel=1e-12, abs=1e-12)

