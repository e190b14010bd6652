import numpy as np
import pytest

from helpers import (boundary_values, count_calls, from_function,
                     random_boundary, single_mode)

from captension.diskfield import (BoundaryFunction, DiskMap, VectorField,
                                  evaluate_vector_at, gradient,
                                  harmonic_extension, hessian, identity_map,
                                  jacobian_det, l2_norm_disk, laplacian,
                                  restrict_boundary, rotation_map)
from captension.dynamics import FreeBoundaryState, reconstruct_eta
from captension import shape
from captension.errors import (DegenerateTangentError, InversionFailureError,
                               RemainderBlowupError)
from captension.shape import (boundary_curvature, boundary_length,
                              curvature_exact, curvature_expansion,
                              invert_points, solve_volume_constraint)


def graph_map(f):
    return DiskMap(gradient(f), kind="embedding")


def volume_residual(f):
    """max |lap f + det D^2 f| over the interior rings."""
    fxx, fxy, fyx, fyy = hessian(f)
    return np.abs(laplacian(f).values + (fxx * fyy - fxy * fyx))[:-1, :].max()


def test_zero_boundary_data_gives_zero_potential(grid):
    f = solve_volume_constraint(BoundaryFunction.zeros(grid))
    assert l2_norm_disk(f) == 0.0
    assert volume_residual(f) == 0.0


def test_data_under_the_mode_bound_skips_the_residual_check(grid, rng,
                                                           monkeypatch):
    # the bound 2 s^2 on the residual of the harmonic extension, with
    # s = (2/n) sum m (m - 1) |C_m| over the grid's modes C_m, is under
    # a tenth of TOL_VOL for these
    from captension.diskfield import calculus

    m = grid.modes
    for _ in range(5):
        h = random_boundary(grid, rng, 1.0, max_mode=grid.n_theta // 2)
        s = (2.0 / grid.n_theta) * np.sum(m * (m - 1) * np.abs(h.coeffs))
        h = BoundaryFunction(grid, h.coeffs * 0.99 * np.sqrt(5e-11) / s)
        assert volume_residual(harmonic_extension(h)) < 1e-10
        checks = count_calls(monkeypatch, calculus.hessian)
        f = solve_volume_constraint(h)
        assert not checks
        assert np.array_equal(f.values, harmonic_extension(h).values)
        # twice the data is checked, and still passes at once
        solve_volume_constraint(BoundaryFunction(grid, 2.0 * h.coeffs))
        assert len(checks) == 1
        monkeypatch.undo()


def test_linear_boundary_data_gives_translation(grid):
    # h = a cos + b sin extends to f = ax + by: det D^2 f = 0 exactly
    coeffs = np.zeros(grid.n_theta // 2 + 1, dtype=complex)
    coeffs[1] = grid.n_theta * (0.05 - 0.015j)
    h = BoundaryFunction(grid, coeffs)
    f = solve_volume_constraint(h)
    exact = 0.1 * grid.xx + 0.03 * grid.yy
    assert np.allclose(f.values, exact, atol=1e-12)
    det = jacobian_det(graph_map(f)).values
    assert np.abs(det - 1.0).max() < 1e-11


def test_mode_two_constraint(grid):
    h = single_mode(grid, 2, 0.05)
    f = solve_volume_constraint(h)
    det = jacobian_det(graph_map(f)).values
    assert np.abs(det[:-1, :] - 1.0).max() < 1e-7
    trace_gap = np.abs(restrict_boundary(f).samples() - h.samples()).max()
    assert trace_gap < 1e-10


def test_constraint_residual_reported(grid, rng):
    h = random_boundary(grid, rng, 0.05)
    f = solve_volume_constraint(h)
    assert volume_residual(f) < 1e-9


def test_unit_circle_curvature(grid):
    f = solve_volume_constraint(BoundaryFunction.zeros(grid))
    kappa = curvature_exact(f).samples()
    assert np.abs(kappa - 1.0).max() < 1e-10
    exp = curvature_expansion(f)
    assert np.abs(exp.M5.samples()).max() < 1e-10


def test_translated_circle_curvature(grid):
    coeffs = np.zeros(grid.n_theta // 2 + 1, dtype=complex)
    coeffs[1] = grid.n_theta * (0.15 - 0.05j)
    f = solve_volume_constraint(BoundaryFunction(grid, coeffs))
    assert np.abs(curvature_exact(f).samples() - 1.0).max() < 1e-10
    exp = curvature_expansion(f)
    for b in (exp.M0, exp.M1, exp.M2, exp.M4, exp.M5):
        assert np.abs(b.samples()).max() < 1e-10


def test_expansion_matches_exact_curvature(grid, rng):
    for _ in range(5):
        f = solve_volume_constraint(random_boundary(grid, rng, 0.05))
        kappa = curvature_exact(f).samples()
        m5 = curvature_expansion(f).M5.samples()
        assert np.abs(m5 + 1.0 - kappa).max() < 1e-9


def test_curvature_against_finite_differences(grid):
    # independent oracle: dense central differences on the boundary curve
    h = single_mode(grid, 3, 0.02)
    f = solve_volume_constraint(h)
    g = gradient(f)
    bx = BoundaryFunction.from_samples(grid, g.values[0, -1, :])
    by = BoundaryFunction.from_samples(grid, g.values[1, -1, :])
    dt = 1e-4

    def curve(t):
        return (np.cos(t) + boundary_values(bx, t),
                np.sin(t) + boundary_values(by, t))

    t = grid.theta
    xp = (np.array(curve(t + dt)) - np.array(curve(t - dt))) / (2.0 * dt)
    xpp = ((np.array(curve(t + dt)) - 2.0 * np.array(curve(t))
            + np.array(curve(t - dt))) / dt ** 2)
    fd = (xp[0] * xpp[1] - xp[1] * xpp[0]) / np.hypot(xp[0], xp[1]) ** 3
    assert np.abs(curvature_exact(f).samples() - fd).max() < 1e-5


def test_degenerate_tangent_raises(grid):
    shrink = from_function(grid, lambda x, y: -0.4 * (x * x + y * y))
    with pytest.raises(DegenerateTangentError):
        curvature_exact(shrink)


def test_a_nan_tangent_raises(grid):
    # a NaN on the boundary ring fails the speed check, not slips by it
    d = np.zeros((2,) + grid.sample_shape)
    d[0, -1, 3] = np.nan
    with pytest.raises(DegenerateTangentError, match="nan"):
        boundary_curvature(VectorField(grid, d))


def test_a_nan_remainder_kernel_raises():
    with pytest.raises(RemainderBlowupError):
        shape._remainder(np.array([0.1, np.nan, -0.1]), 3.0)


def test_boundary_length_and_normal(grid):
    f = solve_volume_constraint(BoundaryFunction.zeros(grid))
    assert boundary_length(gradient(f)) == pytest.approx(2.0 * np.pi,
                                                abs=1e-12)


def test_boundary_length_against_dense_quadrature(grid):
    h = single_mode(grid, 2, 0.04)
    f = solve_volume_constraint(h)
    g = gradient(f)
    bx = BoundaryFunction.from_samples(grid, g.values[0, -1, :])
    by = BoundaryFunction.from_samples(grid, g.values[1, -1, :])
    t = np.linspace(0.0, 2.0 * np.pi, 20001)
    cx = np.cos(t) + boundary_values(bx, t)
    cy = np.sin(t) + boundary_values(by, t)
    dense = np.trapezoid(np.hypot(np.gradient(cx, t), np.gradient(cy, t)), t)
    assert boundary_length(g) == pytest.approx(dense, abs=1e-6)


def _reconstructed(gamma, f):
    """(eta, eta_dot, grad f) of reconstruct_eta at the label map gamma
    = beta^-1, with grad f standing in for w too."""
    g = gradient(f)
    state = FreeBoundaryState(f=f, fdot=f, v=VectorField.zeros(gamma.grid),
                              gamma=gamma, time=0.0, k=100.0)
    return (*reconstruct_eta(state, (g, g, g)), g)


def test_reconstruct_eta_at_identity_is_graph_map(grid, rng):
    f = solve_volume_constraint(random_boundary(grid, rng, 0.03))
    eta, eta_dot, g = _reconstructed(identity_map(grid), f)
    assert eta.kind == "embedding"
    assert np.allclose(eta.displacement.values[0], g.values[0], atol=1e-12)
    assert np.allclose(eta.displacement.values[1], g.values[1], atol=1e-12)
    assert np.allclose(eta_dot.values, g.values, atol=1e-12)


def test_reconstruct_eta_with_node_rotation(grid, rng):
    # a rotation by three angular steps maps nodes onto nodes, so the
    # composition samples grad f at nodes, three steps on in theta; beta
    # is reached by inverting gamma, the rotation three steps back
    f = solve_volume_constraint(random_boundary(grid, rng, 0.03))
    beta = rotation_map(grid, 2.0 * np.pi * 3 / grid.n_theta)
    eta, eta_dot, g = _reconstructed(
        rotation_map(grid, -2.0 * np.pi * 3 / grid.n_theta), f)
    rolled = np.roll(g.values, -3, axis=2)
    expected = beta.displacement.values + rolled
    assert np.abs(eta.displacement.values - expected).max() < 1e-13
    assert np.abs(eta_dot.values - rolled).max() < 1e-13


def test_newton_rejects_a_nan_jacobian(grid, monkeypatch):
    # the first guess of a rotation misses by about 1e-4, so Newton
    # takes a step, and a NaN determinant fails the invertibility check
    nan = np.full(grid.sample_shape, np.nan)
    monkeypatch.setattr(shape, "map_jacobian", lambda alpha: (nan,) * 4)
    with pytest.raises(InversionFailureError):
        invert_points(rotation_map(grid, 0.01))


def test_newton_inverts_a_swirl_evaluating_six_columns_a_pass(grid,
                                                              monkeypatch):
    # every pass evaluates the displacement and the four Jacobian fields
    # at the iterates; the map is a swirl, turning each circle r by 0.01 r^2
    x, y = grid.xx, grid.yy
    turn = 0.01 * (x * x + y * y)
    alpha = DiskMap(VectorField.from_arrays(
        grid, x * np.cos(turn) - y * np.sin(turn) - x,
        x * np.sin(turn) + y * np.cos(turn) - y))
    X = grid.xy.reshape(2, -1).T
    passes = count_calls(monkeypatch, evaluate_vector_at)
    Y, _ = invert_points(alpha)
    monkeypatch.undo()
    moved = evaluate_vector_at((alpha.displacement,), Y)
    assert np.abs(Y + moved - X).max() < 1e-12
    assert passes
    for fields, *_ in passes:
        assert fields[0] is alpha.displacement
        assert sum(f.values.size for f in fields) == 6 * x.size
