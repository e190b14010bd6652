"""The sample-array contract that ScalarField and VectorField share."""

import numpy as np
import pytest

from captension.diskfield import (BoundaryFunction, MemberSolve, ScalarField,
                                  VectorField, make_grid)
from captension.errors import NoConvergenceError, NonFiniteError

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


def test_member_solve_keeps_each_members_first_passing_iterate(rng):
    # member 0 passes at check 1 and then stays flat, which would stall
    # it; member 1 halves its residual and passes at check 11, past the
    # window of 3; each is handed its own passing iterate, bit for bit
    grid = make_grid(16, 8, 2)
    iterates = [(ScalarField(grid, rng.standard_normal(grid.sample_shape)),
                 VectorField(grid, rng.standard_normal((2,) + grid.sample_shape)))
                for _ in range(11)]
    solve = MemberSolve(1e-3, 3, 0.5, "stalled at {:.3e}")
    for n, x in enumerate(iterates):
        assert solve.check(x, np.array([1e-4, 0.5 ** n])) == (n == 10)
    for got, first, last in zip(solve.result, iterates[0], iterates[-1]):
        assert type(got) is type(first)
        assert got.values[..., 0, :, :].tobytes() == first.values[..., 0, :, :].tobytes()
        assert got.values[..., 1, :, :].tobytes() == last.values[..., 1, :, :].tobytes()
    # a member yet to pass still stalls, beside one that has passed
    solve = MemberSolve(1e-3, 3, 0.5, "stalled at {:.3e}")
    with pytest.raises(NoConvergenceError, match="stalled at 7.000e-01"):
        for r in (1.0, 0.9, 0.8, 0.7):
            solve.check(iterates[0], np.array([1e-4, r]))


def test_a_lone_member_solve_takes_float_residuals(rng):
    grid = make_grid(16, 8)
    x = ScalarField(grid, rng.standard_normal(grid.sample_shape))
    # halving past the window converges: result is the passing iterate
    solve = MemberSolve(1e-3, 3, 0.5, "stalled at {:.3e}")
    res = 1.0
    while not solve.check(x, res):
        res /= 2.0
    assert res < 1e-3 and solve.result is x
    # a residual that fails to halve over the window raises with it
    solve = MemberSolve(1e-3, 3, 0.5, "stalled at {:.3e}")
    with pytest.raises(NoConvergenceError, match="stalled at 7.000e-01"):
        for res in (1.0, 0.9, 0.8, 0.7):
            solve.check(x, res)
