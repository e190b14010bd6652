import numpy as np
import pytest

from helpers import (count_calls, count_ffts, count_plans, from_function,
                     random_boundary, random_poly_field, reference_plan,
                     stack)

from captension import projections
from captension.diskfield import (BoundaryFunction, DiskMap, ScalarField,
                                  VectorField, compose, divergence, elliptic,
                                  evaluate_vector_at, evaluation_plan,
                                  grad_values, gradient, harmonic_extension,
                                  hessian, identity_map, jacobian_det,
                                  l2_norm_disk, laplacian, make_grid,
                                  restrict_boundary, rotation_map,
                                  sample_at, sobolev_norm_disk,
                                  solve_dirichlet, STAGE_CLAMP)
from captension.dynamics import (FreeBoundaryState, dt_free_max,
                                 pressure_gradient, rhs_free_boundary,
                                 step_free_boundary)
from captension.errors import PointOutsideDomainError
from captension.projections import (hodge_P, hodge_Q, hodge_potential,
                                    solve_L1_inverse,
                                    solve_pulled_back_laplacian)
from captension.shape import boundary_curvature, solve_volume_constraint


def poly(grid):
    return from_function(
        grid, lambda x, y: x ** 3 - 2.0 * x * y ** 2 + 0.5 * y + 1.0)


def evaluate_at(f, points, **kwargs):
    """evaluate_vector_at of one ScalarField, as a (P,) array."""
    return evaluate_vector_at((f,), points, **kwargs)[:, 0]


def test_gradient_of_polynomial(grid):
    g = gradient(poly(grid))
    gx = 3.0 * grid.xx ** 2 - 2.0 * grid.yy ** 2
    gy = -4.0 * grid.xx * grid.yy + 0.5
    assert np.allclose(g.values[0], gx, atol=1e-12)
    assert np.allclose(g.values[1], gy, atol=1e-12)


def test_divergence_and_laplacian_agree(grid):
    f = poly(grid)
    lap = laplacian(f)
    div_grad = divergence(gradient(f))
    assert np.allclose(lap.values, div_grad.values, atol=1e-10)
    assert np.allclose(lap.values, 2.0 * grid.xx, atol=1e-10)


def test_hessian_entries(grid):
    fxx, fxy, fyx, fyy = hessian(poly(grid))
    assert np.allclose(fxx, 6.0 * grid.xx, atol=1e-10)
    assert np.allclose(fxy, -4.0 * grid.yy, atol=1e-10)
    assert np.allclose(fyx, fxy, atol=1e-10)
    assert np.allclose(fyy, -4.0 * grid.xx, atol=1e-10)


def test_evaluate_at_interior_points(grid, rng):
    f = poly(grid)
    pts = rng.uniform(-0.6, 0.6, size=(40, 2))
    vals = evaluate_at(f, pts)
    exact = pts[:, 0] ** 3 - 2.0 * pts[:, 0] * pts[:, 1] ** 2 + 0.5 * pts[:, 1] + 1.0
    assert np.allclose(vals, exact, atol=1e-12)


def test_evaluate_at_nodes_is_bit_exact(grid):
    f = poly(grid)
    pts = np.column_stack([grid.xx.ravel(), grid.yy.ravel()])
    vals = evaluate_at(f, pts)
    assert np.array_equal(vals, f.values.ravel())


def _disk_points(rng, radii):
    angles = rng.uniform(0.0, 2.0 * np.pi, radii.size)
    return radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])


def _planned(plan, rho, grid):
    """A plan's weights in the layout of reference_plan: per parity, the
    radial weights (P, n_r), the odd ones W rho / r, and the angular
    factors (P, M_p) complex, the odd ones carrying rho."""
    W, T = plan.radial.T, np.ascontiguousarray(plan.angular.T).view(complex)
    return (W, W * (rho[:, None] / grid.r)), (T[:, 0::2], T[:, 1::2])


@pytest.mark.parametrize("shape", [(16, 8), (32, 16), (64, 32)])
def test_plans_match_the_first_formula(shape, rng):
    # within 1e-15 of the points-first formula with its arctan2 and exp,
    # its theta = 0 at the origin, and the same node snap
    grid = make_grid(*shape)
    nodes = np.column_stack([grid.xx.ravel(), grid.yy.ravel()])
    point_sets = {
        "interior": _disk_points(rng, np.sqrt(rng.uniform(0.0, 1.0, 512))),
        "past the rim": _disk_points(
            rng, 1.0 + rng.uniform(0.0, STAGE_CLAMP, 64)),
        "origin": np.array([[0.0, 0.0], [0.3, -0.2], [0.0, 0.0]]),
        "nodes": nodes,
    }
    for name, points in point_sets.items():
        plan = evaluation_plan(grid, points)
        radial, angular, snap, rho = reference_plan(grid, points)
        got_radial, got_angular = _planned(plan, rho, grid)
        want_angular = angular[0], angular[1] * rho[:, None]
        for a, b in zip((*got_radial, *got_angular), (*radial, *want_angular)):
            assert np.abs(a - b).max() <= 1e-15, name
        for a, b in zip(plan.snap, snap):
            assert np.array_equal(a, b), name
    assert plan.snap[0].size == len(nodes)
    # member i of a stack of four 512-point sets keeps its own plan's bits
    sets = [_disk_points(rng, np.sqrt(rng.uniform(0.0, 1.0, 512)))
            for _ in range(4)]
    sets[2][::7] = nodes[:74]
    stacked = evaluation_plan(make_grid(*shape, members=4),
                              np.concatenate(sets))
    for i, points in enumerate(sets):
        alone = evaluation_plan(grid, points)
        part = slice(512 * i, 512 * (i + 1))
        assert np.array_equal(stacked.radial[:, part], alone.radial)
        assert np.array_equal(stacked.angular[:, part], alone.angular)
        rows, r_i, r_j = stacked.snap
        mine = (rows >= part.start) & (rows < part.stop)
        for a, b in zip((rows[mine] - part.start, r_i[mine], r_j[mine]),
                        alone.snap):
            assert np.array_equal(a, b)


def test_evaluate_outside_raises(grid):
    f = poly(grid)
    with pytest.raises(PointOutsideDomainError):
        evaluate_at(f, np.array([[1.2, 0.0]]))
    # an overshoot within STAGE_CLAMP is evaluated through the
    # polynomial extension; twice that raises
    x = 1.0 + 0.5 * STAGE_CLAMP
    val = evaluate_at(f, np.array([[x, 0.0]]))
    assert val[0] == pytest.approx(x ** 3 + 1.0, abs=1e-9)
    with pytest.raises(PointOutsideDomainError):
        evaluate_at(f, np.array([[1.0 + 2.0 * STAGE_CLAMP, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 1])
def test_a_nan_or_infinite_point_raises(grid, bad, column):
    # with a plan built for the points or one built inside the call
    points = np.array([[0.1, 0.2], [0.3, -0.4]])
    points[1, column] = bad
    with pytest.raises(PointOutsideDomainError):
        evaluation_plan(grid, points)
    with pytest.raises(PointOutsideDomainError):
        evaluate_at(poly(grid), points)


def test_evaluate_vector_matches_componentwise(grid, rng):
    fields = [poly(grid)] + [ScalarField(grid, rng.standard_normal(grid.xx.shape))
                             for _ in range(5)]
    nodes = np.column_stack([grid.xx.ravel(), grid.yy.ravel()])[::5]
    angles = rng.uniform(0.0, 2.0 * np.pi, 10)
    past_rim = (1.0 + 5e-13) * np.column_stack([np.cos(angles), np.sin(angles)])
    # on a radial node, between angular nodes
    on_ring = grid.r[[0, 5, 15], None] * np.column_stack(
        [np.cos(angles[:3] + 0.05), np.sin(angles[:3] + 0.05)])
    pts = np.concatenate([rng.uniform(-0.5, 0.5, size=(15, 2)), nodes,
                          past_rim, on_ring])
    w = VectorField.from_arrays(grid, fields[0].values, fields[1].values)
    for sample in (pts, pts[:1], pts[-2:], on_ring):
        vals = evaluate_vector_at(fields, sample)
        assert vals.shape == (len(sample), 6)
        plan = evaluation_plan(grid, sample)
        assert np.array_equal(evaluate_vector_at(fields, sample, plan=plan),
                              vals)
        for k, f in enumerate(fields):
            assert np.array_equal(vals[:, k], evaluate_at(f, sample))
            assert np.array_equal(vals[:, k],
                                  evaluate_at(f, sample, plan=plan))
        assert np.array_equal(evaluate_vector_at((w,), sample), vals[:, :2])


@pytest.mark.parametrize("grid_name", ["grid", "coarse_grid"])
def test_evaluate_every_angular_mode(grid_name, request, rng):
    # r^m cos(m theta + phase) is exact on the grid for m <= n_theta/2;
    # at the Nyquist mode only the cosine is sampled, so its phase is 0
    g = request.getfixturevalue(grid_name)
    angles = rng.uniform(0.0, 2.0 * np.pi, 40)
    radii = np.concatenate([np.sqrt(rng.uniform(0.0, 1.0, 30)),
                            np.full(10, 1.0 + 5e-13)])
    pts = radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    for m in range(g.n_theta // 2 + 1):
        phase = 0.3 if m < g.n_theta // 2 else 0.0
        f = from_function(
            g, lambda x, y: np.hypot(x, y) ** m
            * np.cos(m * np.arctan2(y, x) + phase))
        exact = radii ** m * np.cos(m * angles + phase)
        assert np.abs(evaluate_at(f, pts) - exact).max() < 1e-12, m


def test_grad_values_of_a_stack_matches_each_field(grid, rng):
    stack = rng.standard_normal((4, grid.n_r, grid.n_theta))
    dx, dy = grad_values(grid, stack)
    for k in range(4):
        fx, fy = grad_values(grid, stack[k])
        assert np.array_equal(dx[k], fx)
        assert np.array_equal(dy[k], fy)


def _arrays(out):
    """The sample arrays of a kernel's output, in a fixed order."""
    if isinstance(out, FreeBoundaryState):  # a tuple too: test it first
        return _arrays((out.f, out.fdot, out.v, out.gamma.displacement))
    if isinstance(out, tuple):
        return [a for o in out for a in _arrays(o)]
    for name in ("values", "coeffs"):
        if hasattr(out, name):
            return [getattr(out, name)]
    return [np.asarray(out)]


def _same_bits(batched, singles):
    """Member i of every output of a batched call has the bits of the
    one-member call singles[i]."""
    for i, single in enumerate(singles):
        for got, want in zip(_arrays(batched), _arrays(single), strict=True):
            axis = next(a for a in range(got.ndim)
                        if got.shape[:a] + got.shape[a + 1:] == want.shape)
            assert np.array_equal(np.take(got, i, axis=axis), want), i


def test_each_batched_kernel_keeps_every_members_bits(grid, rng, monkeypatch):
    # three members of different fields, different k and boundary data
    # of different size, so each iterative solve takes its own number of
    # iterations per member
    ks = (50.0, 200.0, 800.0)
    bdry = [random_boundary(grid, rng, a) for a in (1e-9, 0.05, 0.2)]
    vecs = [random_poly_field(grid, rng) for _ in ks]
    scalars = [ScalarField(grid, v.values[0]) for v in vecs]
    data = [random_boundary(grid, rng, 1.0) for _ in ks]
    rings = [b.samples() for b in data]
    fs = [solve_volume_constraint(h) for h in bdry]
    etas = [DiskMap(gradient(f), kind="embedding") for f in fs]
    gammas = [DiskMap(v * (0.01 * (1.0 - grid.rr ** 2))) for v in vecs]
    states = [FreeBoundaryState(
        f=f, fdot=harmonic_extension(b) * 0.1, v=hodge_P(v), gamma=gamma,
        time=0.0, k=k)
        for f, b, v, gamma, k in zip(fs, data, vecs, gammas, ks)]
    dt = 0.5 * dt_free_max(ks[-1], grid.n_theta)
    kernels = {
        "hodge_Q": (hodge_Q, [vecs]),
        "hodge_potential": (hodge_potential, [vecs]),
        "solve_dirichlet": (solve_dirichlet, [scalars, data]),
        "harmonic_extension": (harmonic_extension, [data]),
        "restrict_boundary": (restrict_boundary, [scalars]),
        "BoundaryFunction.samples": (BoundaryFunction.samples, [data]),
        "l2_norm_disk of scalars": (l2_norm_disk, [scalars]),
        "l2_norm_disk of vectors": (l2_norm_disk, [vecs]),
        "boundary_curvature": (
            boundary_curvature, [[gradient(f) for f in fs]]),
        "solve_volume_constraint": (solve_volume_constraint, [bdry]),
        "solve_L1_inverse": (solve_L1_inverse, [fs, vecs]),
        "solve_pulled_back_laplacian": (
            solve_pulled_back_laplacian, [etas, scalars, rings]),
        "rhs_free_boundary": (rhs_free_boundary, [states]),
        "step_free_boundary": (lambda s: step_free_boundary(s, dt), [states]),
    }
    for kernel, args in kernels.values():
        singles = [kernel(*member) for member in zip(*args)]
        _same_bits(kernel(*map(stack, args)), singles)
    # pressure_gradient takes one k per member as a column
    singles = [pressure_gradient(eta, v, k) for eta, v, k in zip(etas, vecs, ks)]
    _same_bits(pressure_gradient(stack(etas), stack(vecs),
                                 np.array(ks)[:, None]), singles)
    # the members of each solve converge after different iteration counts
    for kernel, counted, args in (
            (solve_volume_constraint, elliptic.solve_dirichlet, [bdry]),
            (solve_L1_inverse, projections.hodge_P, [fs, vecs]),
            (solve_pulled_back_laplacian, elliptic.solve_dirichlet,
             [etas, scalars, rings])):
        counts = []
        for member in zip(*args):
            calls = count_calls(monkeypatch, counted)
            kernel(*member)
            counts.append(len(calls))
            monkeypatch.undo()
        assert len(set(counts)) == len(ks), (kernel.__name__, counts)


def test_derivative_passes_make_no_transform(grid, monkeypatch):
    # d_r and d_theta are real products on the samples
    calls = count_ffts(monkeypatch)
    gradient(poly(grid))
    hessian(poly(grid))
    assert calls == {"rfft": 0, "irfft": 0}


def test_compose_with_rotation(grid):
    f = poly(grid)
    rot = rotation_map(grid, 0.3)
    composed = compose(f, rot)
    xr = grid.xx * np.cos(0.3) - grid.yy * np.sin(0.3)
    yr = grid.xx * np.sin(0.3) + grid.yy * np.cos(0.3)
    exact = xr ** 3 - 2.0 * xr * yr ** 2 + 0.5 * yr + 1.0
    assert np.allclose(composed.values, exact, atol=1e-11)


def test_compose_with_identity_is_identity(grid):
    f = poly(grid)
    assert np.allclose(compose(f, identity_map(grid)).values, f.values, atol=0.0)


def test_compose_builds_a_read_only_plan_per_call_and_keeps_none(
        grid, monkeypatch):
    # the image overshoots the circle by 1e-6: inside the STAGE_CLAMP
    # allowance of every composition, whatever was composed before
    f = poly(grid)
    g = DiskMap(VectorField(grid, 1e-6 * grid.xy))
    points = g.image_points()
    fresh = evaluate_at(f, points)
    plans = count_plans(monkeypatch)
    for calls in (1, 2):
        assert np.array_equal(compose(f, g).values.ravel(), fresh)
        assert len(plans) == calls
    with pytest.raises(PointOutsideDomainError):
        compose(f, DiskMap(VectorField(grid, 2.0 * STAGE_CLAMP * grid.xy)))
    assert g._cache == {}
    plan = evaluation_plan(grid, points)
    assert not any(a.flags.writeable
                   for a in (plan.radial, plan.angular, *plan.snap))


def test_each_field_of_a_tuple_sample_at_has_its_own_bits(grid, rng):
    # one plan serves every field of the tuple, one column block each
    s = ScalarField(grid, random_poly_field(grid, rng).values[0])
    v = random_poly_field(grid, rng)
    g = DiskMap(random_poly_field(grid, rng) * (0.01 * (1.0 - grid.rr ** 2)))
    fields = (s, v, s)
    sampled = sample_at(fields, g.image_points())
    assert isinstance(sampled, tuple)
    for got, field in zip(sampled, fields, strict=True):
        assert type(got) is type(field)
        assert np.array_equal(got.values, compose(field, g).values)


def test_jacobian_det_of_rotation(grid):
    det = jacobian_det(rotation_map(grid, 0.7))
    assert np.allclose(det.values, 1.0, atol=1e-12)


def test_restrict_boundary_matches_ring(grid):
    f = poly(grid)
    b = restrict_boundary(f)
    assert np.allclose(b.samples(), f.values[-1, :], atol=1e-12)


@pytest.mark.parametrize("grid_name", ["grid", "coarse_grid"])
def test_a_field_without_members_keeps_the_one_field_formulas_bits(
        grid_name, request, rng):
    # l2_norm_disk and the boundary rings run the member path for every
    # field; without a member axis that path must give the bits of the
    # formulas of one field: grid.integrate per component, and the plain
    # transform of one ring
    g = request.getfixturevalue(grid_name)
    w = random_poly_field(g, rng)
    scalars = [ScalarField(g, c) for c in w.values]
    for f in scalars + [w]:
        assert l2_norm_disk(f) == sobolev_norm_disk(f, 0)
    for f in scalars:
        assert np.array_equal(restrict_boundary(f).coeffs,
                              g.to_modes(f.values[-1]))


def test_normal_derivative_boundary(grid):
    # grad f . nu of r^2 cos(2 theta) at r = 1 is 2 cos(2 theta)
    f = from_function(grid, lambda x, y: x ** 2 - y ** 2)
    gx, gy = gradient(f).values[:, -1, :]
    nd = gx * np.cos(grid.theta) + gy * np.sin(grid.theta)
    assert np.allclose(nd, 2.0 * np.cos(2.0 * grid.theta), atol=1e-11)
