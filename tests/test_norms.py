import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (from_function, random_poly_field, single_mode,
                     sobolev_norm_boundary, stack)

from captension.diskfield import (ScalarField, VectorField, grad_values,
                                  l2_norm_disk, make_grid, sobolev_norm_disk)
from captension.errors import UnsupportedOrderError


def test_l2_norm_of_coordinate(grid):
    f = from_function(grid, lambda x, y: x)
    assert l2_norm_disk(f) == pytest.approx(np.sqrt(np.pi / 4.0), abs=1e-13)


def test_l2_norm_of_vector_field(grid):
    w = VectorField.from_arrays(grid, grid.xx, grid.yy)
    assert l2_norm_disk(w) == pytest.approx(np.sqrt(np.pi / 2.0), abs=1e-13)


def test_h1_norm_of_coordinate(grid):
    f = from_function(grid, lambda x, y: x)
    expected = np.sqrt(np.pi / 4.0 + np.pi)
    assert sobolev_norm_disk(f, 1) == pytest.approx(expected, abs=1e-12)


def test_sobolev_orders_nest(grid):
    f = from_function(grid, lambda x, y: x ** 2 * y - 0.3 * y ** 3)
    norms = [sobolev_norm_disk(f, s) for s in range(2)]
    assert all(b >= a for a, b in zip(norms, norms[1:]))
    assert norms[0] == pytest.approx(l2_norm_disk(f), abs=1e-13)


@pytest.mark.parametrize("s", range(2))
def test_disk_norm_matches_per_entry_loop(grid, s):
    # reference: each table entry d_x^a d_y^b f derived on its own
    f = from_function(grid, lambda x, y: x ** 3 * y - 0.3 * y ** 2 + x)
    total, layer = 0.0, f.values
    for b in range(s + 1):
        g = layer
        for a in range(s + 1 - b):
            total += grid.integrate(g * g)
            g = grad_values(grid, g)[0]
        layer = grad_values(grid, layer)[1]
    assert sobolev_norm_disk(f, s) == float(np.sqrt(total))


@pytest.mark.parametrize("s", range(2))
def test_disk_norm_of_members_keeps_each_members_bits(grid, rng, s):
    vecs = [random_poly_field(grid, rng) for _ in range(3)]
    scalars = [ScalarField(grid, v.values[0]) for v in vecs]
    for fields in (scalars, vecs):
        norms = sobolev_norm_disk(stack(fields), s)
        assert norms.shape == (3,)
        for norm, f in zip(norms, fields):
            assert norm == sobolev_norm_disk(f, s)
            if s == 0:
                assert norm == l2_norm_disk(f)
        if s == 0:
            assert np.array_equal(norms, l2_norm_disk(stack(fields)))


@pytest.mark.parametrize("s", [2, 3, 4, -1, 0.5, True])
def test_disk_norm_rejects_unsupported_order(grid, s):
    # orders 0 and 1 only: no caller measures more
    f = from_function(grid, lambda x, y: x * y)
    with pytest.raises(UnsupportedOrderError):
        sobolev_norm_disk(f, s)


def test_boundary_norm_single_mode(grid):
    b = single_mode(grid, 3, 1.0)
    expected = np.sqrt(np.pi * np.sqrt(10.0))
    assert sobolev_norm_boundary(b, 0.5) == pytest.approx(expected, abs=1e-12)


def test_boundary_norm_s0_is_l2(grid):
    b = single_mode(grid, 4, 2.0)
    # ||2 cos(4 theta)||_L2 over the circle = 2 sqrt(pi)
    assert sobolev_norm_boundary(b, 0.0) == pytest.approx(2.0 * np.sqrt(np.pi),
                                                          abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(c=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
       s=st.sampled_from([0, 1]))
def test_disk_norm_homogeneity(c, s):
    grid = make_grid(16, 8)
    f = from_function(grid, lambda x, y: x * y + 0.2 * x)
    assert sobolev_norm_disk(ScalarField(grid, c * f.values), s) == pytest.approx(
        abs(c) * sobolev_norm_disk(f, s), rel=1e-11, abs=1e-11)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(min_value=0, max_value=7),
       s=st.sampled_from([0.0, 0.5, 1.0, 2.5]))
def test_boundary_norm_matches_formula(m, s):
    grid = make_grid(16, 8)
    b = single_mode(grid, m, 1.3)
    weight = 1.0 if m == 0 else 2.0
    expected = np.sqrt(2.0 * np.pi * weight * (1.0 + m * m) ** s * (1.3 / 2.0) ** 2
                       * (4.0 if m == 0 else 1.0))
    assert sobolev_norm_boundary(b, s) == pytest.approx(expected, rel=1e-12)
