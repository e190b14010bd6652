"""End-to-end acceptance checks at the reference desk scale.

Every check prints one PASS/FAIL line with its measured numbers before
asserting, so a full run reads as a scorecard.  The file as a whole
stays within a ten minute budget at 32 x 16 resolution.
"""

import math

import numpy as np
import pytest

from helpers import random_boundary, random_poly_field, single_mode

from captension.diskfield import (BoundaryFunction, DiskMap, ScalarField,
                                  VectorField, advect, divergence, gradient,
                                  harmonic_extension, identity_map,
                                  jacobian_det, l2_norm_disk, make_grid,
                                  restrict_boundary, rotation_map,
                                  sobolev_norm_disk)
from captension.dynamics import (FixedEulerState, FreeBoundaryState, dt_max,
                                 energy_report, output_derivatives,
                                 reconstruct_eta, solid_rotation_velocity,
                                 step_fixed_euler,
                                 step_free_boundary, stream_initial_velocity,
                                 stream_initial_vorticity,
                                 vorticity_particle_step)
from captension.harness import (ExperimentConfig, emit_csv, measure_frequency,
                                oracle_compare, run_sweep)
from captension.projections import hodge_P, hodge_Q, hodge_potential
from captension.shape import curvature_exact, curvature_expansion, \
    solve_volume_constraint

REF = ExperimentConfig()


def report(number, ok, detail):
    print(f"criterion {number:02d} ({'PASS' if ok else 'FAIL'}): {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def sweep_first(tmp_path_factory):
    """One full decay sweep, shared by the decay and determinism checks."""
    path = tmp_path_factory.mktemp("sweep") / "sweep_a.csv"
    result = run_sweep(REF)
    emit_csv(result.rows, path)
    return result, path


def test_criterion_01_volume_constraint(grid, rng):
    worst_det, worst_trace = 0.0, 0.0
    for _ in range(20):
        h = random_boundary(grid, rng, 0.05)
        f = solve_volume_constraint(h)
        det = jacobian_det(DiskMap(gradient(f), kind="embedding")).values
        worst_det = max(worst_det, float(np.abs(det - 1.0).max()))
        trace = np.abs(restrict_boundary(f).samples() - h.samples()).max()
        worst_trace = max(worst_trace, float(trace))
    ok = worst_det < 1e-7 and worst_trace < 1e-10
    report(1, ok, f"20 random h: max|J-1| = {worst_det:.3e} (< 1e-7), "
                  f"max trace error = {worst_trace:.3e} (< 1e-10)")


def test_criterion_02_projection_algebra(grid, rng):
    worst = {"P+Q=I": 0.0, "P idempotent": 0.0, "Q idempotent": 0.0,
             "orthogonality": 0.0, "div P": 0.0, "tangency": 0.0}
    nx, ny = np.cos(grid.theta), np.sin(grid.theta)
    for _ in range(100):
        w = random_poly_field(grid, rng)
        Pw, Qw = hodge_P(w), hodge_Q(w)
        worst["P+Q=I"] = max(worst["P+Q=I"], l2_norm_disk(Pw + Qw - w))
        worst["P idempotent"] = max(worst["P idempotent"],
                                    l2_norm_disk(hodge_P(Pw) - Pw))
        worst["Q idempotent"] = max(worst["Q idempotent"],
                                    l2_norm_disk(hodge_Q(Qw) - Qw))
        inner = grid.integrate(Pw.values[0] * Qw.values[0]
                               + Pw.values[1] * Qw.values[1])
        worst["orthogonality"] = max(worst["orthogonality"], abs(inner))
        worst["div P"] = max(worst["div P"], l2_norm_disk(divergence(Pw)))
        ring = Pw.values[0, -1, :] * nx + Pw.values[1, -1, :] * ny
        worst["tangency"] = max(worst["tangency"], float(np.abs(ring).max()))
    bad = {name: val for name, val in worst.items() if not val < 1e-8}
    detail = ", ".join(f"{name} {val:.2e}" for name, val in worst.items())
    report(2, not bad, f"100 random fields, worst identity gaps: {detail} "
                       f"(each < 1e-8)")


def test_criterion_03_curvature_exactness(grid, rng):
    worst = 0.0
    for _ in range(20):
        f = solve_volume_constraint(random_boundary(grid, rng, 0.05))
        gap = np.abs(curvature_expansion(f).M5.samples() + 1.0
                     - curvature_exact(f).samples()).max()
        worst = max(worst, float(gap))

    unit = solve_volume_constraint(BoundaryFunction.zeros(grid))
    unit_gap = float(np.abs(curvature_exact(unit).samples() - 1.0).max())
    coeffs = np.zeros(grid.n_modes, dtype=complex)
    coeffs[1] = grid.n_theta * (0.075 - 0.025j)
    shifted = solve_volume_constraint(BoundaryFunction(grid, coeffs))
    shift_gap = float(np.abs(curvature_exact(shifted).samples() - 1.0).max())

    ok = worst < 1e-9 and unit_gap < 1e-10 and shift_gap < 1e-10
    report(3, ok, f"max|M5+1 - curvature| = {worst:.3e} (< 1e-9); "
                  f"unit circle {unit_gap:.3e}, translated circle "
                  f"{shift_gap:.3e} (each < 1e-10)")


def test_criterion_04_equilibrium_and_rotation(grid):
    state = FreeBoundaryState.from_velocity(grid, VectorField.zeros(grid),
                                            k=100.0)
    rest_worst = 0.0
    for _ in range(5):
        state = step_free_boundary(state, 0.9 * dt_max(100.0, grid.n_theta))
        moved = max(l2_norm_disk(state.f), l2_norm_disk(state.fdot),
                    l2_norm_disk(state.v),
                    l2_norm_disk(state.gamma.displacement))
        rest_worst = max(rest_worst, moved)

    track = {}
    for k in (10.0, 1000.0):
        st = FreeBoundaryState.from_velocity(grid, solid_rotation_velocity(grid),
                                             k=k)
        n = math.ceil(REF.T / (0.8 * dt_max(k, grid.n_theta)))
        dt = REF.T / n
        sup_grad = 0.0
        for _ in range(n):
            st = step_free_boundary(st, dt)
            sup_grad = max(sup_grad, l2_norm_disk(gradient(st.f)))
        eta, etadot = reconstruct_eta(st, output_derivatives(st))
        exact = rotation_map(grid, st.time)
        c, s = np.cos(st.time), np.sin(st.time)
        exact_dot = VectorField.from_arrays(grid, -s * grid.xx - c * grid.yy,
                                            c * grid.xx - s * grid.yy)
        gap = max(
            sobolev_norm_disk(eta.displacement - exact.displacement, 1),
            sobolev_norm_disk(etadot - exact_dot, 1),
        )
        track[k] = (sup_grad, gap)

    ok = (rest_worst < 1e-12
          and all(g < 1e-7 and m < 1e-6 for g, m in track.values()))
    detail = (f"rest motion/step = {rest_worst:.3e} (< 1e-12); rotation "
              + "; ".join(f"k={k:g}: sup|grad f| = {g:.3e} (< 1e-7), "
                          f"match = {m:.3e} (< 1e-6)"
                          for k, (g, m) in track.items()))
    report(4, ok, detail)


def test_criterion_05_energy_conservation(grid):
    k = 100.0
    u0 = stream_initial_velocity(grid, 2, 0.05)
    state = FreeBoundaryState.from_velocity(grid, u0, k)
    e0 = energy_report(state, output_derivatives(state)).E
    assert e0 == pytest.approx(0.5 * l2_norm_disk(state.v) ** 2, rel=1e-12)
    n = math.ceil(REF.T / (0.8 * dt_max(k, grid.n_theta)))
    dt = REF.T / n
    drift = 0.0
    for _ in range(n):
        state = step_free_boundary(state, dt)
        energy = energy_report(state, output_derivatives(state)).E
        drift = max(drift, abs(energy - e0) / abs(e0))
    report(5, drift < 1e-4,
           f"mode-2 k=100 over [0, {REF.T:g}]: max relative energy drift "
           f"= {drift:.3e} (< 1e-4)")


def _particle_gap(grid, amplitude, n_steps, t_final):
    state = FixedEulerState.from_velocity(
        grid, stream_initial_velocity(grid, 2, amplitude))
    omega = stream_initial_vorticity(grid, 2, amplitude)
    phi = identity_map(grid)
    dt = t_final / n_steps
    for _ in range(n_steps):
        state = step_fixed_euler(state, dt)
        omega, phi = vorticity_particle_step(omega, phi, dt)
    return sobolev_norm_disk(state.zeta.displacement - phi.displacement, 1)


def test_criterion_06_lagrangian_oracle(grid):
    gap_ref = _particle_gap(grid, REF.amplitude, 100, REF.T)
    gaps = [_particle_gap(grid, 0.4, n, REF.T) for n in (5, 10, 20)]
    orders = [math.log2(a / b) for a, b in zip(gaps, gaps[1:])]
    ok = gap_ref < 1e-3 and all(o >= 2.0 for o in orders)
    report(6, ok, f"H1 particle-map gap = {gap_ref:.3e} (< 1e-3) at "
                  f"reference resolution; refinement orders "
                  + ", ".join(f"{o:.2f}" for o in orders) + " (each >= 2)")


def _surface_frequency(grid, m, k):
    # a shape mode released from rest rings at its own frequency; the
    # cos-phase coefficient crosses zero every half period
    f = solve_volume_constraint(single_mode(grid, m, 1e-4))
    state = FreeBoundaryState(f=f, fdot=ScalarField.zeros(grid),
                              v=VectorField.zeros(grid),
                              gamma=identity_map(grid), time=0.0, k=k)
    omega_lin = math.sqrt(k * m * (m * m - 1))
    t_final = 3.6 * math.pi / omega_lin  # 1.8 periods, four crossings
    n = math.ceil(t_final / (0.8 * dt_max(k, grid.n_theta)))
    dt = t_final / n
    times = [0.0]
    signal = [restrict_boundary(state.f).coeffs[m].real]
    for _ in range(n):
        state = step_free_boundary(state, dt)
        times.append(state.time)
        signal.append(restrict_boundary(state.f).coeffs[m].real)
    return measure_frequency(times, signal), omega_lin


def test_criterion_07_capillary_dispersion(grid):
    results = {m: _surface_frequency(grid, m, 400.0) for m in (2, 3)}
    ok = all(abs(meas - ref) <= 0.05 * ref for meas, ref in results.values())
    detail = "; ".join(
        f"mode {m}: measured {meas:.4f} vs sqrt(k m(m^2-1)) = {ref:.4f} "
        f"({abs(meas - ref) / ref:.2%})"
        for m, (meas, ref) in results.items())
    report(7, ok, detail + " (each within 5%)")


def test_criterion_08_decay_sweep(sweep_first):
    result, _ = sweep_first
    rows = result.rows
    assert all(r.converged for r in rows)
    decreasing = {}
    for name in ("sup_nabla_f_L2", "sup_eta_gap_H1", "sup_etadot_gap_H1"):
        vals = [getattr(r, name) for r in rows]
        decreasing[name] = all(b < a for a, b in zip(vals, vals[1:]))
    slope, quality = result.fitted_exponents["sup_nabla_f_L2"]
    ok = all(decreasing.values()) and slope >= 1.0 and quality >= 0.9
    mono = ", ".join(f"{n} {'yes' if d else 'NO'}"
                     for n, d in decreasing.items())
    report(8, ok, f"k in {{100,200,400,800}}: strictly decreasing: {mono}; "
                  f"sup|grad f| exponent = {slope:.5f} (>= 1.0), "
                  f"fit quality = {quality:.5f} (>= 0.9)")


def test_sweep_exponents_match_linear_theory(sweep_first):
    # a boundary mode driven from rest moves by O(1/k) at a rate O(k^-1/2)
    result, _ = sweep_first
    eta, _ = result.fitted_exponents["sup_eta_gap_H1"]
    etadot, _ = result.fitted_exponents["sup_etadot_gap_H1"]
    assert abs(eta - 1.0) <= 0.05, eta
    assert abs(etadot - 0.5) <= 0.05, etadot


def test_sweep_matches_the_quasi_static_response(sweep_first):
    # The fixed-disk pressure p0 = -(Hodge potential of (u . grad) u)
    # balances k (kappa - mean kappa) at linear order when the boundary
    # modes of f are h_m = p0_m / (k m (m^2 - 1)), m >= 2.  Driven from
    # rest, each mode moves as f_qs (1 - cos omega_m t), so the sup of
    # |grad f| over time is 2 |grad f_qs|, f_qs the harmonic extension
    # of h.  Only the fixed-disk flow enters, not the split.
    result, _ = sweep_first
    grid = make_grid(REF.n_theta, REF.n_r)
    u = FixedEulerState.from_velocity(grid, stream_initial_velocity(
        grid, REF.stream_mode, REF.amplitude)).zetadot
    p0 = restrict_boundary(-hodge_potential(advect(u, u))).coeffs
    m = grid.modes[2:-1]
    ratios = {}
    for row in result.rows:
        h = np.zeros(grid.n_modes, dtype=complex)
        h[2:-1] = p0[2:-1] / (row.k * m * (m * m - 1))
        f_qs = harmonic_extension(BoundaryFunction(grid, h))
        ratios[row.k] = row.sup_nabla_f_L2 / (
            2.0 * l2_norm_disk(gradient(f_qs)))
    print("k sup|grad f| / (2 |grad f_qs|): " + ", ".join(
        f"k={k:g} {r:.4f}" for k, r in ratios.items()))
    assert all(abs(r - 1.0) <= 0.01 for r in ratios.values()), ratios


def test_criterion_09_arbitration_oracle():
    record = oracle_compare(REF)
    eta_gap = record.sup_eta_gap_H1
    etadot_gap = record.sup_etadot_gap_H1
    report(9, eta_gap < 1e-2,
           f"split vs unsplit at T=0.05, k=100 (coarse): eta H1 gap "
           f"= {eta_gap:.3e} (< 1e-2), etadot H1 gap = {etadot_gap:.3e}")


def test_criterion_10_determinism(sweep_first, tmp_path):
    _, first_path = sweep_first
    second_path = tmp_path / "sweep_b.csv"
    emit_csv(run_sweep(REF).rows, second_path)
    a = first_path.read_bytes()
    b = second_path.read_bytes()
    report(10, a == b, f"repeated sweep: {len(a)} CSV bytes, "
                       f"{'byte-identical' if a == b else 'DIFFER'}")
