"""The sample-array contract that ScalarField and VectorField share."""

import numpy as np
import pytest

from captension.diskfield import (BoundaryFunction, ScalarField, VectorField,
                                  make_grid)
from captension.errors import NonFiniteError

KINDS = pytest.mark.parametrize("cls", [ScalarField, VectorField])
OTHER_KIND = {ScalarField: VectorField, VectorField: ScalarField}


def sample_shape(cls, grid):
    return cls.zeros(grid).values.shape


@KINDS
def test_wrong_shape_is_a_value_error(grid, cls):
    shape = sample_shape(cls, grid)
    with pytest.raises(ValueError):
        cls(grid, np.zeros(shape[:-1] + (grid.n_theta + 1,)))
    with pytest.raises(ValueError):
        cls(grid, np.zeros(sample_shape(OTHER_KIND[cls], grid)))


def test_boundary_coefficients_of_a_wrong_member_axis_name_both_shapes():
    # nine coefficients are right on 16 angles, but not on the member
    # axis: the message names the shape given and the shape expected
    grid = make_grid(16, 8)
    for on, coeffs, message in (
            (grid, np.zeros((3, 9)), "shape (3, 9) does not match (9,)"),
            (grid.with_members(3), np.zeros(9),
             "shape (9,) does not match (3, 9)")):
        with pytest.raises(ValueError) as err:
            BoundaryFunction(on, coeffs)
        assert message in str(err.value)


def test_boundary_zeros_carry_the_member_axis():
    for members, shape in ((None, (9,)), (3, (3, 9))):
        b = BoundaryFunction.zeros(make_grid(16, 8, members))
        assert b.coeffs.shape == shape
        assert not b.coeffs.any()


@KINDS
def test_nan_sample_is_rejected(grid, cls):
    values = np.zeros(sample_shape(cls, grid))
    values.flat[7] = np.nan
    with pytest.raises(NonFiniteError):
        cls(grid, values)


@KINDS
def test_fields_are_immutable(grid, cls):
    f = cls(grid, np.ones(sample_shape(cls, grid)))
    with pytest.raises(AttributeError):
        f.values = np.zeros_like(f.values)
    assert not f.values.flags.writeable
    with pytest.raises(ValueError):
        f.values[...] = 0.0


@KINDS
def test_arithmetic_keeps_the_kind(grid, cls, rng):
    a = cls(grid, rng.standard_normal(sample_shape(cls, grid)))
    b = cls(grid, rng.standard_normal(sample_shape(cls, grid)))
    for got, want in ((a + b, a.values + b.values), (a - b, a.values - b.values),
                      (2.0 * a, 2.0 * a.values), (a * 2.0, 2.0 * a.values),
                      (-a, -a.values)):
        assert type(got) is cls
        assert np.array_equal(got.values, want)


def test_vector_components_sit_on_the_leading_axis(grid, rng):
    a, b = rng.standard_normal((2, grid.n_r, grid.n_theta))
    w = VectorField.from_arrays(grid, a, b)
    assert np.array_equal(w.values, np.stack([a, b]))
