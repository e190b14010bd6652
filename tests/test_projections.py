import numpy as np
import pytest

from helpers import (count_calls, count_ffts, from_function, l2_inner,
                     random_boundary, random_poly_field, reference_hodge_Q,
                     stack)

from captension.diskfield import (DiskMap, ScalarField,
                                  VectorField, compose, divergence, elliptic,
                                  gradient, hessian, l2_norm_disk, laplacian,
                                  make_grid, rotation_map)
from captension.errors import SolverError, VolumeDefectError
from captension.shape import solve_volume_constraint
from captension.projections import (apply_L, hodge_P, hodge_Q,
                                    hodge_potential, solve_L1_inverse,
                                    solve_pulled_back_laplacian)


def normal_trace(grid, w):
    ring = (w.values[0, -1, :] * np.cos(grid.theta)
            + w.values[1, -1, :] * np.sin(grid.theta))
    return np.abs(ring).max()


def test_projection_identities(grid, rng):
    for _ in range(10):
        w = random_poly_field(grid, rng)
        p = hodge_P(w)
        q = hodge_Q(w)
        assert l2_norm_disk(hodge_P(p) - p) < 1e-9          # idempotent
        assert l2_norm_disk(hodge_Q(q) - q) < 1e-9
        assert l2_norm_disk(divergence(p)) < 1e-9           # solenoidal
        assert normal_trace(grid, p) < 1e-9                 # tangent
        inner = (l2_inner(grid, p.values[0], q.values[0])
                 + l2_inner(grid, p.values[1], q.values[1]))
        assert abs(inner) < 1e-9                            # orthogonal


def test_q_reproduces_admissible_gradients(grid):
    # grad g with dg/dr = 0 on the circle is exactly reproduced by Q
    g = from_function(
        grid, lambda x, y: (x ** 2 + y ** 2) ** 2 - 2.0 * (x ** 2 + y ** 2))
    w = gradient(g)
    assert l2_norm_disk(hodge_Q(w) - w) < 1e-10
    assert l2_norm_disk(hodge_P(w)) < 1e-10


@pytest.mark.parametrize("shape", [(32, 16), (16, 8)])
def test_q_reproduces_the_gradient_of_every_resolved_mode(shape):
    # g = r^m (1 + r^2) cos(m theta + phi) up to m = n_theta/2 - 1, whose
    # Cartesian gradient reaches the Nyquist mode
    grid = make_grid(*shape)
    for m in range(grid.n_theta // 2):
        for phi in (0.0, 0.7):
            g = ScalarField.from_polar(
                grid, lambda r, t: r ** m * (1 + r * r) * np.cos(m * t + phi))
            w = gradient(g)
            err = np.abs(hodge_Q(w).values - w.values).max()
            assert err <= 1e-10 * np.abs(w.values).max(), (m, phi)


@pytest.mark.parametrize("shape", [(32, 16), (16, 8)])
def test_q_is_the_gradient_of_the_hodge_potential(shape):
    # polar components (u_r, u_theta) in mode m, for every m up to and
    # including Nyquist: Q, the gradient of the potential's samples,
    # against the per-mode derivatives of the Hodge solve
    grid = make_grid(*shape)
    for m in range(grid.n_modes):
        for phi in (0.0, 0.7):
            radial = grid.rr ** abs(m - 1)
            u_r = radial * (1 + grid.rr ** 2) * np.cos(m * grid.tt + phi)
            u_t = radial * (2 - grid.rr ** 2) * np.sin(m * grid.tt + phi)
            w = VectorField.from_arrays(
                grid, grid.cos_t * u_r - grid.sin_t * u_t,
                grid.sin_t * u_r + grid.cos_t * u_t)
            ref = reference_hodge_Q(w).values
            err = np.abs(hodge_Q(w).values - ref).max()
            assert err <= 1e-12 * np.abs(ref).max(), (m, phi)


def test_hodge_potential_is_one_transform_each_way(grid, monkeypatch):
    from captension.diskfield import calculus

    w = random_poly_field(grid, np.random.default_rng(7))
    divergences = count_calls(monkeypatch, calculus.divergence)
    calls = count_ffts(monkeypatch)
    hodge_potential(w)
    assert calls == {"rfft": 1, "irfft": 1}
    assert not divergences


def test_p_keeps_rigid_rotation(grid):
    w = VectorField.from_arrays(grid, -grid.yy, grid.xx)
    assert l2_norm_disk(hodge_P(w) - w) < 1e-11
    assert l2_norm_disk(hodge_Q(w)) < 1e-11


def test_apply_L_identity_at_zero_potential(grid, rng):
    w = random_poly_field(grid, rng)
    out = apply_L(w, hessian(ScalarField.zeros(grid)))
    assert l2_norm_disk(out - w) == 0.0


def test_a_precomputed_hessian_gives_the_same_bits(grid, rng):
    f = from_function(grid, lambda x, y: 0.01 * (x ** 3 - y ** 3))
    hess = hessian(f)
    w = random_poly_field(grid, rng)
    assert np.array_equal(solve_L1_inverse(f, w, hess).values,
                          solve_L1_inverse(f, w).values)


def test_L1_inverse_round_trip(grid, rng):
    # small Hessian: L1 w recovered from its image
    f = from_function(grid, lambda x, y: 0.01 * (x ** 3 - y ** 3))
    w = hodge_P(random_poly_field(grid, rng))
    target = hodge_P(apply_L(w, hessian(f)))
    back = solve_L1_inverse(f, target)
    assert l2_norm_disk(back - w) < 1e-8


def test_L1_inverse_is_linear(grid, rng):
    f = from_function(grid, lambda x, y: 0.02 * x * y ** 2)
    a = random_poly_field(grid, rng)
    b = random_poly_field(grid, rng)
    sum_inv = solve_L1_inverse(f, a + b)
    separate = solve_L1_inverse(f, a) + solve_L1_inverse(f, b)
    assert l2_norm_disk(sum_inv - separate) < 1e-8


def test_L1_inverse_rejects_large_hessian(grid, rng):
    # a Hessian of order one breaks the contraction; the divergence must
    # surface as a solver error, never as a silently wrong answer
    f = from_function(grid, lambda x, y: 2.0 * (x ** 2 - y ** 2))
    w = random_poly_field(grid, rng)
    with pytest.raises(SolverError):
        solve_L1_inverse(f, w)


def test_pulled_back_laplacian_identity_map(grid):
    from captension.diskfield import identity_map
    rhs = from_function(grid, lambda x, y: -8.0 * x)
    g, _ = solve_pulled_back_laplacian(identity_map(grid), rhs)
    exact = (1.0 - grid.rr ** 2) * grid.xx
    assert np.allclose(g.values, exact, atol=1e-10)


def test_pulled_back_laplacian_rotation_oracle(grid):
    # for a rotation R: lap_R g = (lap(g o R^-1)) o R; manufacture both sides
    rot = rotation_map(grid, 0.4)
    u = from_function(
        grid, lambda x, y: (1.0 - x ** 2 - y ** 2) * (x + 0.5 * y ** 2))
    rhs = compose(laplacian(u), rot)
    g, _ = solve_pulled_back_laplacian(rot, rhs, compose(u, rot).values[-1, :])
    assert np.allclose(g.values, compose(u, rot).values, atol=1e-8)


def test_pulled_back_laplacian_hands_back_the_gradient_of_its_solution(
        grid, rng, monkeypatch):
    # three members whose solves accept after different iteration counts
    fs = [solve_volume_constraint(random_boundary(grid, rng, a))
          for a in (1e-9, 0.05, 0.2)]
    etas = [DiskMap(gradient(f), kind="embedding") for f in fs]
    rhs = [ScalarField(grid, random_poly_field(grid, rng).values[0])
           for _ in fs]
    data = [random_boundary(grid, rng, 1.0).samples() for _ in fs]
    counts = []
    for member in zip(etas, rhs, data):
        # the first guess and each correction: one Dirichlet application
        calls = count_calls(monkeypatch, elliptic.dirichlet_values)
        q, grad_q = solve_pulled_back_laplacian(*member)
        assert np.array_equal(grad_q.values, gradient(q).values)
        counts.append(len(calls))
        monkeypatch.undo()
    assert len(set(counts)) == len(fs), counts
    q, grad_q = solve_pulled_back_laplacian(*map(stack, (etas, rhs, data)))
    assert grad_q.members == len(fs)
    assert np.array_equal(grad_q.values, gradient(q).values)


def test_pulled_back_laplacian_rejects_non_volume_map(grid):
    from captension.diskfield import DiskMap
    squash = DiskMap(VectorField.from_arrays(
        grid, 0.2 * grid.xx, np.zeros_like(grid.xx)), kind="embedding")
    with pytest.raises(VolumeDefectError):
        solve_pulled_back_laplacian(squash, ScalarField.zeros(grid))


def test_pulled_back_laplacian_rejects_a_nan_jacobian(grid):
    # a NaN determinant fails the volume check instead of slipping by it
    d = np.zeros((2,) + grid.sample_shape)
    d[0, 3, 5] = np.nan
    with pytest.raises(VolumeDefectError, match="nan"):
        solve_pulled_back_laplacian(DiskMap(VectorField(grid, d)),
                                    ScalarField.zeros(grid))
