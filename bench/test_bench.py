"""Tests of the benchmark itself: tracer, derived counts, gates, digests.

    python3 -m pytest bench/test_bench.py

Not part of the repository's test suite (pytest's testpaths is tests/).
"""

import os
import sys
import threading

import numpy as np
import numpy.fft
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from captension import projections, shape  # noqa: E402
from captension.diskfield import (BoundaryFunction, ScalarField,  # noqa: E402
                                  VectorField, identity_map, make_grid)
from captension.dynamics import fixed  # noqa: E402

import run as bench_run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, layer_metrics, unbind  # noqa: E402


def _bindings():
    out = {}
    for modname, module in sys.modules.items():
        if module is not None and modname.startswith("captension"):
            for attr, value in vars(module).items():
                if callable(value):
                    out[(modname, attr)] = value
    for attr in ("rfft", "irfft"):
        out[("numpy.fft", attr)] = getattr(numpy.fft, attr)
    return out


@pytest.fixture(scope="module")
def grid():
    return make_grid(16, 8)


def _field(grid):
    return VectorField.from_arrays(grid, 0.3 + grid.xx * grid.yy,
                                   grid.xx - 0.1 * grid.xx ** 2)


def test_tracer_wraps_every_binding_and_restores_every_original():
    before = _bindings()
    with Tracer():
        during = _bindings()
        # the defining module and the modules that imported the name
        for where in ("captension.projections", "captension.dynamics.evolution",
                      "captension.dynamics.fixed"):
            assert during[(where, "hodge_P")] is not before[(where, "hodge_P")]
        # public but missing from calculus.__all__
        for where in ("captension.diskfield.calculus", "captension.shape",
                      "captension.dynamics.unsplit"):
            assert (during[(where, "map_jacobian")]
                    is not before[(where, "map_jacobian")])
        assert during[("numpy.fft", "rfft")] is not before[("numpy.fft", "rfft")]
        # classes and private helpers are left alone
        assert during[("captension.diskfield", "ScalarField")] is ScalarField
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed


def test_uninstall_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            1 / 0
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_derived_iteration_counts_on_known_cases(grid):
    zero = ScalarField.zeros(grid)
    with Tracer() as tracer:
        # identity map: the first Dirichlet solve is already the answer
        projections.solve_pulled_back_laplacian(
            identity_map(grid, kind="embedding"),
            ScalarField(grid, np.ones((grid.n_r, grid.n_theta))))
        # flat boundary: zero is already volume preserving
        shape.solve_volume_constraint(BoundaryFunction.zeros(grid))
        # zero Hessian: one pass of the L1 iteration converges
        projections.solve_L1_inverse(zero, _field(grid))
        # identity map: one Newton pass, then the cached inverse
        alpha = identity_map(grid)
        fixed.invert_disk_map(alpha)
        fixed.invert_disk_map(alpha)
        wall = 1.0
    m = layer_metrics(tracer, wall)
    assert m["projections.pbl_solves"] == 1
    assert m["projections.pbl_iters"] == 0
    assert m["shape.volume_solves"] == 1
    assert m["shape.volume_iters"] == 0
    assert m["projections.L1_solves"] == 1
    assert m["projections.L1_iters"] == 1
    assert m["fixed.invert_calls"] == 2
    assert m["fixed.newton_iters"] == 1
    assert m["fixed.invert_cache_hits"] == 1
    assert m["calculus.eval_calls"] == 1
    assert m["calculus.eval_points"] == grid.n_r * grid.n_theta
    assert m["grid.fft_calls"] > 0
    assert m["trace.remainder_s"] == pytest.approx(
        wall - m["trace.span_self_s"])


def test_map_jacobian_is_a_derivative_call(grid):
    with Tracer() as tracer:
        shape.map_jacobian(identity_map(grid))
    m = layer_metrics(tracer, 1.0)
    assert [s.name for s in tracer.spans].count("calculus.map_jacobian") == 1
    assert m["calculus.deriv_calls"] >= 1


def test_first_step_is_stamped_once_and_restored(grid):
    import worker
    from captension.dynamics import (FixedEulerState, evolution,
                                     stream_initial_velocity)

    before = _bindings()
    rep = {}
    restore = worker.stamp_first_step(rep)
    try:
        state = FixedEulerState.from_velocity(
            grid, stream_initial_velocity(grid, 2, 0.01))
        assert "first_step_clock" not in rep
        t0 = worker.monotonic()
        state = fixed.step_fixed_euler(state, 1e-3)
        stamp = rep["first_step_clock"]
        assert t0 <= stamp <= worker.monotonic()
        fixed.step_fixed_euler(state, 1e-3)
        assert rep["first_step_clock"] == stamp
        assert evolution.step_free_boundary is not before[
            ("captension.dynamics.evolution", "step_free_boundary")]
    finally:
        unbind(restore)
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_speed_probe_samples_while_busy_and_restores_the_alarm():
    import signal
    import time

    import speed

    handler = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    probe.start()
    try:
        t_end = time.perf_counter() + 0.4
        while time.perf_counter() < t_end:
            sum(i * i for i in range(1000))
    finally:
        probe.stop()
    # one chunk at start, one at stop, and one per period in between
    assert len(probe.cpu) >= 4
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert all(c > 0 for c in probe.cpu)
    assert probe.cpu_s() == pytest.approx(sum(probe.cpu))


def test_slowdown_is_the_harmonic_mean_over_the_reference():
    import speed

    probe = speed.SpeedProbe()
    probe.cpu = [speed.REF_S, 2 * speed.REF_S]
    # half the time at reference speed, half at half speed: 4/3 slower
    assert probe.slowdown() == pytest.approx(4.0 / 3.0)


def test_first_step_stamp_records_the_probe_time_spent_in_set_up(grid):
    import worker
    from captension.dynamics import FixedEulerState, stream_initial_velocity

    class Probe:
        def cpu_s(self):
            return 0.25

    rep = {}
    restore = worker.stamp_first_step(rep, Probe())
    try:
        fixed.step_fixed_euler(FixedEulerState.from_velocity(
            grid, stream_initial_velocity(grid, 2, 0.01)), 1e-3)
    finally:
        unbind(restore)
    assert rep["first_step_probe_cpu_s"] == 0.25


def test_spans_nest_per_thread(grid):
    w = _field(grid)
    with Tracer() as tracer:
        threads = [threading.Thread(target=projections.hodge_P, args=(w,))
                   for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    by_id = {s.span_id: s for s in tracer.spans}
    outer = [s for s in tracer.spans if s.name == "projections.hodge_P"]
    inner = [s for s in tracer.spans if s.name == "projections.hodge_Q"]
    assert len(outer) == len(inner) == 3
    assert len({s.thread for s in outer}) == 3
    for s in inner:
        parent = by_id[s.parent_id]
        assert parent.name == "projections.hodge_P"
        assert parent.thread == s.thread
        assert parent.start <= s.start and s.end <= parent.end
    for s in outer:
        assert s.parent_id == -1
        assert 0.0 <= s.self_s <= s.duration


def _write(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([header] + rows) + "\n")


GOOD = {
    "sweep": ("k,sup_nabla_f_L2,sup_nabla_f_H1,sup_eta_gap_H1,"
              "sup_etadot_gap_H1,energy_drift,converged",
              ["100.0,4e-09,2e-08,2e-08,1e-05,1e-11,true",
               "200.0,3e-09,1.9e-08,1.9e-08,9e-06,2e-11,true",
               "400.0,2e-09,1.8e-08,1.8e-08,8e-06,4e-11,true",
               "800.0,1e-09,1.7e-08,1.7e-08,7e-06,8e-11,true"]),
    "lagrangian_oracle": ("step,time,particle_gap_H1",
                          ["0,0.0,0.0", "1,0.005,1e-12", "2,0.01,2e-12"]),
    "unsplit_oracle": ("time,eta_gap_H1,etadot_gap_H1",
                       ["0.0,0.0,0.0", "0.01,1e-13,7e-11", "0.02,3e-12,6e-10"]),
}

PERTURBED = [
    ("sweep", 1, "200.0,5e-09,1.9e-08,1.9e-08,9e-06,2e-11,true"),
    ("sweep", 2, "400.0,2e-09,1.8e-08,2.5e-08,8e-06,4e-11,true"),
    ("sweep", 3, "800.0,1e-09,1.7e-08,1.7e-08,9e-06,8e-11,true"),
    ("sweep", 0, "100.0,4e-09,2e-08,2e-08,1e-05,2e-04,true"),
    ("sweep", 2, "400.0,2e-09,1.8e-08,1.8e-08,8e-06,4e-11,false"),
    ("sweep", 3, "800.0,nan,1.7e-08,1.7e-08,7e-06,8e-11,true"),
    ("sweep", 3, "1600.0,1e-09,1.7e-08,1.7e-08,7e-06,8e-11,true"),
    ("sweep", 3, "800.0,1e-09"),
    ("lagrangian_oracle", 2, "2,0.01,2e-3"),
    ("lagrangian_oracle", 1, "1,0.005,inf"),
    ("unsplit_oracle", 2, "0.02,0.02,6e-10"),
    ("unsplit_oracle", 1, "0.01,1e-13,nan"),
]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_gate_accepts_good_output(tmp_path, workload):
    header, rows = GOOD[workload]
    _write(tmp_path / wl.OUTPUT[workload], header, rows)
    assert wl.gate(workload, str(tmp_path)) == []


@pytest.mark.parametrize("workload,row,text", PERTURBED)
def test_gate_rejects_perturbed_output(tmp_path, workload, row, text):
    header, rows = GOOD[workload]
    rows = list(rows)
    rows[row] = text
    _write(tmp_path / wl.OUTPUT[workload], header, rows)
    assert wl.gate(workload, str(tmp_path))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_gate_rejects_missing_or_truncated_output(tmp_path, workload):
    assert wl.gate(workload, str(tmp_path))
    header, rows = GOOD[workload]
    _write(tmp_path / wl.OUTPUT[workload], header, rows[:-1] if
           workload == "sweep" else rows[:1])
    assert wl.gate(workload, str(tmp_path))


def test_inputs_depend_only_on_the_seed():
    for workload in wl.WORKLOADS:
        assert wl.make_config(workload, 7) == wl.make_config(workload, 7)
        assert wl.make_config(workload, 7) != wl.make_config(workload, 8)


def test_digest_store_flags_a_changed_output(tmp_path):
    path = str(tmp_path / "digests.json")
    store = bench_run.DigestStore(path)
    assert store.check("tree/sweep/1", "aaa")
    store.save()
    again = bench_run.DigestStore(path)
    assert again.check("tree/sweep/1", "aaa")
    assert not again.check("tree/sweep/1", "bbb")
    assert again.check("tree/sweep/2", "bbb")


def test_per_layer_metrics_match_the_benchmark_spec(grid):
    _, per_layer = bench_run.load_spec()
    with Tracer() as tracer:
        projections.hodge_P(_field(grid))
    derived = set(layer_metrics(tracer, 1.0))
    # run.py adds these two from whole repetitions
    assert derived | {"trace.overhead_ratio", "fail_ratio"} == set(per_layer)
