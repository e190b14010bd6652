import numpy as np
import pytest

from helpers import (constraint_defects, count_calls, count_ffts, count_plans,
                     single_mode, step_free_rk4)

from captension.diskfield import (BoundaryFunction, DiskMap, ScalarField,
                                  VectorField, advect, calculus, compose,
                                  divergence, grad_values, gradient,
                                  identity_map, l2_norm_disk, map_jacobian,
                                  restrict_boundary, rotation_map,
                                  sobolev_norm_disk)
from captension.dynamics import (FixedEulerState, FreeBoundaryState,
                                 capillary_frequencies, dt_free_max, dt_max,
                                 energy_report, euler_Z, invert_disk_map,
                                 output_derivatives, pressure_gradient,
                                 reconstruct_eta, rhs_free_boundary,
                                 solid_rotation_velocity, step_fixed_euler,
                                 step_free_boundary, step_unsplit,
                                 stream_initial_velocity,
                                 stream_initial_vorticity, unsplit_acceleration,
                                 vorticity_particle_step, vorticity_velocity)
from captension.dynamics import evolution, fixed, unsplit
from captension.dynamics.states import rk4
from captension.errors import (ConfigError, NoConvergenceError,
                               NonFiniteError, PointOutsideDomainError,
                               SolverError)
from captension.harness import measure_frequency
from captension.projections import solve_pulled_back_laplacian
from captension.shape import (boundary_curvature, curvature_exact,
                              invert_points, solve_volume_constraint)


def test_pressure_solve_rigid_rotation(grid):
    state = FreeBoundaryState.from_velocity(grid, solid_rotation_velocity(grid),
                                            k=5.0)
    grad_p = pressure_gradient(DiskMap(gradient(state.f), kind="embedding"),
                               output_derivatives(state)[2], state.k)
    assert np.abs(grad_p.values[0] - grid.xx).max() < 1e-7
    assert np.abs(grad_p.values[1] - grid.yy).max() < 1e-7


@pytest.mark.parametrize("amplitude", [1e-3, 0.05])
def test_pressure_is_the_sum_of_its_split_parts(grid, amplitude):
    # the analysis split p = p0 + k A_H, solved as two Dirichlet problems
    f = solve_volume_constraint(single_mode(grid, 2, amplitude))
    state = FreeBoundaryState.from_velocity(
        grid, stream_initial_velocity(grid, 2, 0.05), k=400.0)._replace(f=f)
    eta = DiskMap(gradient(state.f), kind="embedding")
    w = output_derivatives(state)[2]

    j11, j12, j21, j22 = map_jacobian(eta)
    det = j11 * j22 - j12 * j21
    inv = np.array([[j22, -j12], [-j21, j11]]) / det
    dx, dy = grad_values(grid, w.values)
    dw = np.stack([dx, dy], axis=1)  # dw[i, j] = d_j w_i
    g = np.einsum("ik...,kj...->ij...", dw, inv)
    tr_g2 = np.einsum("ij...,ji...->...", g, g)
    q0, _ = solve_pulled_back_laplacian(eta, ScalarField(grid, -tr_g2))
    shifted = np.array(curvature_exact(state.f).coeffs)
    shifted[0] -= grid.n_theta  # kappa - 1
    ah, _ = solve_pulled_back_laplacian(eta, ScalarField.zeros(grid),
                                     BoundaryFunction(grid, shifted).samples())
    s = (gradient(q0) + state.k * gradient(ah)).values
    split = np.einsum("ji...,j...->i...", inv, s)

    one = pressure_gradient(eta, w, state.k).values
    assert np.abs(one - split).max() < 1e-8 * np.abs(split).max()


def test_one_pressure_solve_per_rhs_and_one_jacobian_per_map(coarse_grid,
                                                              monkeypatch):
    from captension import projections
    from captension.diskfield import calculus

    solves = count_calls(monkeypatch, projections.solve_pulled_back_laplacian)
    jacobians = count_calls(monkeypatch, calculus.map_jacobian)
    passes = count_calls(monkeypatch, calculus.grad_values)

    def jacobian_passes(eta):
        """map_jacobian calls, and derivative passes that take D eta
        beside other fields: a stack led by eta's displacement."""
        stacked = [values for _, values in passes if len(values) > 2
                   and np.array_equal(values[:2], eta.displacement.values)]
        return len(jacobians) + len(stacked)

    state = FreeBoundaryState.from_velocity(
        coarse_grid, stream_initial_velocity(coarse_grid, 2, 0.05), k=100.0)
    eta, etadot = reconstruct_eta(state, output_derivatives(state))

    rhs_free_boundary(state)
    assert len(solves) == 1
    # without a Jacobian from the caller, D eta shares D w's pass
    graph = DiskMap(gradient(state.f), kind="embedding")
    w = output_derivatives(state)[2]
    jacobians.clear()
    passes.clear()
    pressure_gradient(graph, w, state.k)
    assert jacobian_passes(graph) == 1
    jacobians.clear()
    passes.clear()
    unsplit_acceleration(eta, etadot, state.k)
    assert jacobian_passes(eta) == 1


def test_seven_hodge_potentials_per_rhs(coarse_grid, monkeypatch):
    from captension import projections

    state = FreeBoundaryState.from_velocity(
        coarse_grid, stream_initial_velocity(coarse_grid, 2, 0.05), k=100.0)
    # hodge_Q is the gradient of hodge_potential, so this counts both
    potentials = count_calls(monkeypatch, projections.hodge_potential)
    rhs_free_boundary(state)
    # Q(conv), P(bracket), two L1 inverses of two projections each, and
    # the one Hodge potential that is fddot
    assert len(potentials) == 7


def test_rhs_takes_its_derivatives_from_one_chain(coarse_grid, monkeypatch):
    from captension.diskfield import calculus

    state = FreeBoundaryState.from_velocity(
        coarse_grid, stream_initial_velocity(coarse_grid, 2, 0.05), k=100.0)
    state = step_free_boundary(state, dt_max(state.k, coarse_grid.n_theta))
    passes = count_calls(monkeypatch, calculus.grad_values)
    ffts = count_ffts(monkeypatch)
    rhs_free_boundary(state)
    # three chain passes, the first with D gamma, then the pressure: Dw
    # and one pulled-back Laplacian residual (two passes), whose first
    # hands back grad q; and one per hodge_Q, six of them.  The passes
    # take no transform; seven Hodge potentials take two each.  10
    # forward transforms while the rate of beta, v o beta, took one more
    # in its point evaluation
    assert len(passes) == 12
    assert ffts == {"rfft": 9, "irfft": 8}


def test_an_integer_k_steps_to_the_bits_of_its_float(coarse_grid):
    state = FreeBoundaryState.from_velocity(
        coarse_grid, stream_initial_velocity(coarse_grid, 2, 0.05), k=100.0)
    dt = dt_max(100.0, coarse_grid.n_theta)
    by_float = step_free_boundary(state, dt)
    by_int = step_free_boundary(state._replace(k=100), dt)
    for a, b in ((by_int.f, by_float.f), (by_int.fdot, by_float.fdot),
                 (by_int.v, by_float.v),
                 (by_int.gamma.displacement, by_float.gamma.displacement)):
        assert np.array_equal(a.values, b.values)


def test_advect_of_a_vector_field_is_advect_of_each_component(grid):
    u = stream_initial_velocity(grid, 2, 0.3)
    w = VectorField.from_arrays(grid, grid.xx ** 3 - grid.yy,
                                np.sin(grid.xx * grid.yy))
    both = advect(u, w).values
    for k in range(2):
        alone = advect(u, ScalarField(grid, w.values[k])).values
        assert np.array_equal(both[k], alone)


def test_boundary_curvature_of_non_gradient_maps(grid):
    a, b = 1.1, 1.0 / 1.1
    ellipse = VectorField.from_arrays(grid, (a - 1.0) * grid.xx,
                                      (b - 1.0) * grid.yy)
    st, ct = np.sin(grid.theta), np.cos(grid.theta)
    exact = a * b / (a * a * st * st + b * b * ct * ct) ** 1.5
    assert np.abs(boundary_curvature(ellipse) - exact).max() < 1e-12
    turned = rotation_map(grid, 0.7).displacement
    assert np.abs(boundary_curvature(turned) - 1.0).max() < 1e-12


def test_boundary_curvature_matches_the_boundary_series_route(grid, rng):
    # the curvature formula with each ring derivative taken as its own
    # boundary series, i m per order and the Nyquist derivative zeroed
    d = VectorField(grid, 1e-2 * rng.standard_normal((2, grid.n_r,
                                                      grid.n_theta)))
    ik = 1j * grid.modes
    ik[-1] = 0.0

    def ring_derivative(ring, order):
        b = BoundaryFunction.from_samples(grid, ring)
        return BoundaryFunction(grid, b.coeffs * ik ** order).samples()

    ax, ay, bx, by = (ring_derivative(ring, order) for order in (1, 2)
                      for ring in d.values[:, -1, :])
    tx, ty = ax - np.sin(grid.theta), ay + np.cos(grid.theta)
    cxx, cyy = bx - np.cos(grid.theta), by - np.sin(grid.theta)
    series = (tx * cyy - ty * cxx) / np.hypot(tx, ty) ** 3
    assert np.abs(boundary_curvature(d) - series).max() <= 1e-14


def test_rest_state_is_stationary(grid):
    state = FreeBoundaryState.from_velocity(grid, VectorField.zeros(grid),
                                            k=100.0)
    nxt = step_free_boundary(state, 0.9 * dt_max(100.0, grid.n_theta))
    assert l2_norm_disk(nxt.f) < 1e-12
    assert l2_norm_disk(nxt.fdot) < 1e-12
    assert l2_norm_disk(nxt.v) < 1e-12
    assert l2_norm_disk(nxt.gamma.displacement) < 1e-12


def test_constraint_defects_of_rest_state_are_zero(grid):
    state = FreeBoundaryState.from_velocity(grid, VectorField.zeros(grid),
                                            k=100.0)
    defects = constraint_defects(state)
    assert sorted(defects) == ["div_v", "gamma_jacobian", "v_normal",
                               "volume_residual"]
    assert all(value == 0.0 for value in defects.values())


def test_constraint_defects_stay_small_over_free_steps(grid):
    state = FreeBoundaryState.from_velocity(
        grid, stream_initial_velocity(grid, 2, 0.05), k=100.0)
    dt = 0.9 * dt_max(100.0, grid.n_theta)
    for _ in range(3):
        state = step_free_boundary(state, dt)
    for name, value in constraint_defects(state).items():
        assert value < 1e-9, name


def test_step_rejects_unstable_dt(grid):
    # the fastest capillary mode m = n_theta/2 - 1 may turn by pi at most
    state = FreeBoundaryState.from_velocity(grid, VectorField.zeros(grid),
                                            k=100.0)
    m = grid.n_theta // 2 - 1
    bound = np.pi / np.sqrt(100.0 * m * (m * m - 1))
    with pytest.raises(ConfigError):
        step_free_boundary(state, 1.01 * bound)
    assert step_free_boundary(state, 0.99 * bound).time == 0.99 * bound


def test_integrating_factor_step_matches_rk4(grid):
    state = FreeBoundaryState.from_velocity(
        grid, stream_initial_velocity(grid, 2, 0.05), k=400.0)
    dt = 0.5 * dt_max(state.k, grid.n_theta)
    lawson = rk4_ref = state
    for _ in range(10):
        lawson = step_free_boundary(lawson, dt)
        rk4_ref = step_free_rk4(rk4_ref, dt)
    gaps = {name: np.abs(getattr(lawson, name).values
                         - getattr(rk4_ref, name).values).max()
            / np.abs(getattr(rk4_ref, name).values).max()
            for name in ("f", "fdot", "v")}
    assert gaps["f"] < 1e-7 and gaps["fdot"] < 1e-7, gaps
    assert gaps["v"] < 1e-13, gaps


def test_the_free_step_is_fourth_order_in_time(grid):
    # amplitude 0.5, k = 10 to T = 0.1 in n = 8, 16 and 32 steps against
    # 128: the max error over f, v and the displacement of gamma falls
    # about 16-fold per halving (9.4e-10, 6.1e-11, 3.5e-12 against 256
    # steps).  On 16x8 it falls by orders of 0.4-0.5 only
    def end(n):
        state = FreeBoundaryState.from_velocity(
            grid, stream_initial_velocity(grid, 2, 0.5), k=10.0)
        for _ in range(n):
            state = step_free_boundary(state, 0.1 / n)
        return state.f.values, state.v.values, state.gamma.displacement.values

    ref = end(128)
    errors = [max(np.abs(a - b).max() for a, b in zip(end(n), ref))
              for n in (8, 16, 32)]
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all(orders > 3.5), (errors, orders)


def test_a_batched_free_step_evaluates_at_no_point(coarse_grid, monkeypatch):
    # gamma is transported on the fixed disk, so neither the RHS nor the
    # step builds a plan or evaluates a field at a point
    state = FreeBoundaryState.from_velocity(
        coarse_grid, stream_initial_velocity(coarse_grid, 2, 0.05),
        k=(100.0, 200.0, 400.0, 800.0))
    plans = count_plans(monkeypatch)
    evaluations = count_calls(monkeypatch, calculus.evaluate_vector_at)
    step_free_boundary(state, dt_max(800.0, coarse_grid.n_theta))
    assert (len(plans), len(evaluations)) == (0, 0)


def test_one_oracle_step_per_segment_matches_rk4_bound_substeps(coarse_grid):
    # criterion 09's split flow (16x8, k = 100, five segments to T = 0.05):
    # oracle-compare takes one step per segment under dt_free_max; five
    # steps under the RK4 bound dt_max land within 1e-8 of it, far below
    # the criterion's 1e-2
    k, segment = 100.0, 0.01
    n = int(np.ceil(segment / dt_max(k, coarse_grid.n_theta)))
    assert segment <= dt_free_max(k, coarse_grid.n_theta) and n == 5
    large = small = FreeBoundaryState.from_velocity(
        coarse_grid, stream_initial_velocity(coarse_grid, 2, 0.05), k)
    for _ in range(5):
        large = step_free_boundary(large, segment)
        for _ in range(n):
            small = step_free_boundary(small, segment / n)
        (eta_l, etadot_l), (eta_s, etadot_s) = (
            reconstruct_eta(st, output_derivatives(st)) for st in (large, small))
        assert sobolev_norm_disk(eta_l.displacement - eta_s.displacement,
                                 1) < 1e-8
        assert sobolev_norm_disk(etadot_l - etadot_s, 1) < 1e-7


@pytest.mark.parametrize("m", [2, 3, 8])
def test_capillary_frequency_at_five_times_the_rk4_bound(grid, m):
    # a shape mode released from rest rings at omega_m even where
    # explicit RK4 would be unstable
    k = 400.0
    f = solve_volume_constraint(single_mode(grid, m, 1e-4))
    state = FreeBoundaryState(f=f, fdot=ScalarField.zeros(grid),
                              v=VectorField.zeros(grid),
                              gamma=identity_map(grid), time=0.0, k=k)
    omega = np.sqrt(k * m * (m * m - 1))
    assert capillary_frequencies(k, grid.n_theta)[m] == pytest.approx(omega)
    t_final = 3.6 * np.pi / omega
    n = int(np.ceil(t_final / (5.0 * dt_max(k, grid.n_theta))))
    times, signal = [0.0], [restrict_boundary(f).coeffs[m].real]
    for _ in range(n):
        state = step_free_boundary(state, t_final / n)
        times.append(state.time)
        signal.append(restrict_boundary(state.f).coeffs[m].real)
    assert abs(measure_frequency(times, signal) - omega) <= 1e-3 * omega


def test_rk4_is_fourth_order():
    # y'' = -y as the tuple state (y, y'), from (1, 0) to t = 2
    def error(n):
        y, dt = (1.0, 0.0), 2.0 / n
        for _ in range(n):
            y = rk4(lambda s: (s[1], -s[0]), y, dt)
        return abs(y[0] - np.cos(2.0)) + abs(y[1] + np.sin(2.0))

    assert 14.0 <= error(20) / error(40) <= 18.0


def test_every_integrator_step_is_one_rk4_call(coarse_grid, monkeypatch):
    # the free step is rk4 in the interaction picture; its stage one is
    # the given state, so only the three later stages and the end state
    # solve the volume constraint
    u0 = stream_initial_velocity(coarse_grid, 2, 0.05)
    free = FreeBoundaryState.from_velocity(coarse_grid, u0, k=100.0)
    dt = 0.5 * dt_max(100.0, coarse_grid.n_theta)
    steps = {
        "free": lambda: step_free_boundary(free, dt),
        "fixed": lambda: step_fixed_euler(
            FixedEulerState.from_velocity(coarse_grid, u0), dt),
        "unsplit": lambda: step_unsplit(
            DiskMap(VectorField.zeros(coarse_grid), kind="embedding"),
            free.v, dt, 100.0),
        "vorticity": lambda: vorticity_particle_step(
            stream_initial_vorticity(coarse_grid, 2, 0.05),
            identity_map(coarse_grid), dt),
    }
    calls = count_calls(monkeypatch, rk4)
    volume = count_calls(monkeypatch, solve_volume_constraint)
    for name, step in steps.items():
        calls.clear()
        step()
        assert len(calls) == 1, name
    assert len(volume) == 4


def poison(monkeypatch, module, name, item=None, call=2):
    """Rebind module.name so that its call-th call returns one NaN
    sample: in its field, or in field `item` of the tuple it returns."""
    original = getattr(module, name)
    calls = []

    def poisoned(*args):
        out = original(*args)
        calls.append(None)
        if len(calls) != call:
            return out
        parts = [out] if item is None else list(out)
        field = parts[item or 0]
        values = field.values.copy()
        values.flat[7] = np.nan
        parts[item or 0] = type(field)(field.grid, values)
        return parts[0] if item is None else tuple(parts)

    monkeypatch.setattr(module, name, poisoned)
    return calls


# what each step raises when a rate (field `item` of the tuple it
# returns, or the one field) holds a NaN at stage 2: rk4's
# NonFiniteError, unless the NaN meets a guard of a later stage first
POISONED_RATES = {
    "free": (evolution, "rhs_free_boundary", 3, NonFiniteError),
    "free-4-members": (evolution, "rhs_free_boundary", 3, NonFiniteError),
    "fixed": (fixed, "euler_Z", 1, NonFiniteError),
    # stage 3's pulled-back solve stalls on a NaN residual
    "unsplit": (unsplit, "unsplit_acceleration", None, NoConvergenceError),
    # stage 3 evaluates at a NaN image point
    "vorticity": (fixed, "vorticity_velocity", None, PointOutsideDomainError),
}


@pytest.mark.parametrize("case", POISONED_RATES)
def test_a_nan_met_inside_a_step_raises_from_that_step(coarse_grid,
                                                       monkeypatch, case):
    u0 = stream_initial_velocity(coarse_grid, 2, 0.05)
    free = FreeBoundaryState.from_velocity(
        coarse_grid, u0, k=(100.0, 200.0, 400.0, 800.0)
        if case == "free-4-members" else 100.0)
    dt = 0.5 * dt_max(100.0, coarse_grid.n_theta)
    step = {
        "fixed": lambda: step_fixed_euler(
            FixedEulerState.from_velocity(coarse_grid, u0), dt),
        "unsplit": lambda: step_unsplit(
            identity_map(coarse_grid, kind="embedding"), free.v, dt, 100.0),
        "vorticity": lambda: vorticity_particle_step(
            stream_initial_vorticity(coarse_grid, 2, 0.05),
            identity_map(coarse_grid), dt),
    }.get(case, lambda: step_free_boundary(free, dt))
    module, name, item, error = POISONED_RATES[case]
    calls = poison(monkeypatch, module, name, item)
    with pytest.raises(error):
        step()
    assert len(calls) >= 2
    assert issubclass(error, SolverError)


def test_unsplit_acceleration_builds_six_fields(coarse_grid, monkeypatch):
    # the source, the first guess, the accepted (q, grad q), the pulled
    # back grad p and its negative, however many iterations the solve
    # takes; 50 here while it built a ScalarField and a VectorField per
    # iterate
    from captension.diskfield import elliptic, fields
    eta = DiskMap(gradient(solve_volume_constraint(
        single_mode(coarse_grid, 2, 0.05))), kind="embedding")
    etadot = FreeBoundaryState.from_velocity(
        coarse_grid, stream_initial_velocity(coarse_grid, 2, 0.05), 100.0).v
    built, init = [], fields._Field.__init__

    def counted(self, grid, values):
        built.append(type(self))
        init(self, grid, values)

    monkeypatch.setattr(fields._Field, "__init__", counted)
    dirichlet = count_calls(monkeypatch, elliptic.dirichlet_values)
    unsplit_acceleration(eta, etadot, 100.0)
    assert len(dirichlet) == 12  # the first guess and 11 corrections
    assert len(built) == 6
    assert built.count(ScalarField) == 3


def test_capillary_bound_formula():
    assert dt_max(100.0, 32) == pytest.approx(
        0.5 / np.sqrt(100.0 * 16.0 ** 3))
    assert dt_max(400.0, 32) == pytest.approx(
        0.5 / np.sqrt(400.0 * 16.0 ** 3))


def test_rigid_rotation_keeps_flat_surface(grid):
    state = FreeBoundaryState.from_velocity(grid, solid_rotation_velocity(grid),
                                            k=10.0)
    dt = 0.8 * dt_max(10.0, grid.n_theta)
    for _ in range(3):
        state = step_free_boundary(state, dt)
    assert sobolev_norm_disk(state.f, 1) < 1e-7
    eta, etadot = reconstruct_eta(state, output_derivatives(state))
    exact = rotation_map(grid, state.time)
    assert sobolev_norm_disk(eta.displacement - exact.displacement, 1) < 1e-6
    # the node at x started at R(-t)x, so its velocity is R'(t)R(-t)x
    gap = VectorField.from_arrays(
        grid,
        etadot.values[0] + np.sin(state.time) * grid.xx
        + np.cos(state.time) * grid.yy,
        etadot.values[1] - np.cos(state.time) * grid.xx
        + np.sin(state.time) * grid.yy,
    )
    assert sobolev_norm_disk(gap, 1) < 1e-6


def test_energy_report_rotation(grid):
    state = FreeBoundaryState.from_velocity(grid, solid_rotation_velocity(grid),
                                            k=7.0)
    rep = energy_report(state, output_derivatives(state))
    assert rep.kinetic == pytest.approx(np.pi / 4.0, abs=1e-10)
    assert rep.potential == pytest.approx(0.0, abs=1e-10)
    assert rep.E == pytest.approx(np.pi / 4.0, abs=1e-10)


def test_reconstruct_eta_at_start(grid):
    u0 = stream_initial_velocity(grid, 2, 1e-3)
    state = FreeBoundaryState.from_velocity(grid, u0, k=100.0)
    eta, etadot = reconstruct_eta(state, output_derivatives(state))
    assert l2_norm_disk(eta.displacement) == 0.0
    assert sobolev_norm_disk(etadot - state.v, 1) < 1e-12


def test_euler_Z_rotation_is_centripetal(grid):
    # (u.grad) u = -x is a gradient, so the rotation is steady
    acc, rate = euler_Z(identity_map(grid), solid_rotation_velocity(grid))
    assert np.abs(acc.values[0] + grid.xx).max() < 1e-8
    assert np.abs(acc.values[1] + grid.yy).max() < 1e-8
    assert np.abs(rate.values).max() < 1e-8


def test_invert_rotation_map(grid):
    Y, _ = invert_disk_map(rotation_map(grid, 0.3))
    c, s = np.cos(-0.3), np.sin(-0.3)
    ex = c * grid.xx - s * grid.yy
    ey = s * grid.xx + c * grid.yy
    assert np.abs(Y[:, 0] - ex.ravel()).max() < 1e-10
    assert np.abs(Y[:, 1] - ey.ravel()).max() < 1e-10


def _lagrangian_workload_step(grid):
    """One fixed-disk step of the lagrangian workload's config: 32x16,
    a mode-2 stream of amplitude 0.4, dt = 0.005."""
    state = FixedEulerState.from_velocity(
        grid, stream_initial_velocity(grid, 2, 0.4))
    return step_fixed_euler(state, 0.005)


def test_a_fixed_step_builds_four_plans(grid, monkeypatch):
    # one composition per stage, the base map's among them, and no
    # inversion: the step carries the Eulerian velocity u.  Inverting
    # every stage map for u took 10 plans a step with warm starts
    # (stages 2 and 4 in three Newton passes, stage 3 and the end map,
    # started from the map inverted just before, in two; one plan a
    # pass but the first) and 12 when every inversion started from the
    # base map.  compose keeps no plan, so no map holds a cache entry
    base = _lagrangian_workload_step(grid)
    plans = count_plans(monkeypatch)
    composed = count_calls(monkeypatch, calculus.compose)
    inverted = count_calls(monkeypatch, invert_points)
    state = step_fixed_euler(base, 0.005)
    assert (len(plans), len(composed), len(inverted)) == (4, 4, 0)
    assert composed[0][1] is base.zeta
    assert "inverse" not in base.zeta._cache
    assert "inverse" not in state.zeta._cache


def test_the_lagrangian_workload_builds_160_plans_and_inverts_nothing(
        grid, monkeypatch):
    # the bench lagrangian_oracle run: 20 fixed steps of dt = 0.005 at
    # amplitude 0.4 beside the vorticity oracle, one plan per stage of
    # each.  Inverting every stage map took 281 plans and 201 Newton
    # passes with warm starts, and 321 plans and 241 passes when every
    # inversion started from the base map
    amp, dt = 0.4, 0.005
    plans = count_plans(monkeypatch)
    inverted = count_calls(monkeypatch, invert_points)
    state = FixedEulerState.from_velocity(
        grid, stream_initial_velocity(grid, 2, amp))
    omega = stream_initial_vorticity(grid, 2, amp)
    phi = identity_map(grid)
    for _ in range(20):
        state = step_fixed_euler(state, dt)
        omega, phi = vorticity_particle_step(omega, phi, dt)
    assert (len(plans), len(inverted)) == (160, 0)
    gap = sobolev_norm_disk(state.zeta.displacement - phi.displacement, 1)
    assert gap < 1e-9


def test_the_carried_velocity_stays_the_maps_rate(grid):
    # zetadot = u o zeta holds at t = 0 and to time-stepping accuracy
    # after; the lagrangian workload's 20 steps keep it to roundoff, and
    # u, projected once a step, divergence free
    state = FixedEulerState.from_velocity(
        grid, stream_initial_velocity(grid, 2, 0.4))
    for _ in range(20):
        state = step_fixed_euler(state, 0.005)
    slip = state.zetadot - compose(state.u, state.zeta)
    assert np.abs(slip.values).max() < 1e-12
    assert np.abs(divergence(state.u).values).max() < 1e-11


def test_reconstruct_eta_builds_one_plan(grid, monkeypatch):
    state = FreeBoundaryState.from_velocity(
        grid, stream_initial_velocity(grid, 2, 0.05), k=100.0)
    plans = count_plans(monkeypatch)
    reconstruct_eta(state, output_derivatives(state))
    assert len(plans) == 1


def test_vorticity_velocity_inverts_stream_function(grid):
    omega = stream_initial_vorticity(grid, 2, 1e-2)
    u = vorticity_velocity(omega)
    u_ref = stream_initial_velocity(grid, 2, 1e-2)
    assert sobolev_norm_disk(u - u_ref, 1) < 1e-9


def test_circulation_conserved_by_oracle(grid):
    omega = stream_initial_vorticity(grid, 3, 0.3)
    phi = identity_map(grid)
    total0 = grid.integrate(omega.values)
    for _ in range(4):
        omega, phi = vorticity_particle_step(omega, phi, 2e-3)
    assert abs(grid.integrate(omega.values) - total0) < 1e-10


def test_lagrangian_map_matches_vorticity_oracle(grid):
    amp = 0.4
    state = FixedEulerState.from_velocity(grid,
                                          stream_initial_velocity(grid, 2, amp))
    omega = stream_initial_vorticity(grid, 2, amp)
    phi = identity_map(grid)
    for _ in range(3):
        state = step_fixed_euler(state, 1e-3)
        omega, phi = vorticity_particle_step(omega, phi, 1e-3)
    gap = sobolev_norm_disk(state.zeta.displacement - phi.displacement, 1)
    assert gap < 1e-9


def test_lagrangian_map_follows_the_vorticity_oracle_through_motion(
        coarse_grid):
    # by t = 0.5 the particles move 0.13 of the radius; a Leray
    # projection of zetadot after each step, through zeta's inverse,
    # makes this flow blow up after t = 0.448
    amp, dt = 0.5, 1e-3
    state = FixedEulerState.from_velocity(
        coarse_grid, stream_initial_velocity(coarse_grid, 2, amp))
    omega = stream_initial_vorticity(coarse_grid, 2, amp)
    phi = identity_map(coarse_grid)
    for _ in range(500):
        state = step_fixed_euler(state, dt)
        omega, phi = vorticity_particle_step(omega, phi, dt)
    gap = sobolev_norm_disk(state.zeta.displacement - phi.displacement, 1)
    assert gap < 1e-3


def test_unsplit_rest_state(grid):
    eta = DiskMap(VectorField.zeros(grid), kind="embedding")
    etadot = VectorField.zeros(grid)
    acc = unsplit_acceleration(eta, etadot, k=100.0)
    assert l2_norm_disk(acc) < 1e-9
    eta2, etadot2 = step_unsplit(eta, etadot, 1e-4, k=100.0)
    assert l2_norm_disk(eta2.displacement) < 1e-12
    assert l2_norm_disk(etadot2) < 1e-11
