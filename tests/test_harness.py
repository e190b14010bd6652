import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import count_calls, count_ffts

from captension.diskfield import VectorField
from captension.errors import (ConfigError, InsufficientPointsError,
                               InversionFailureError, NonpositiveValueError,
                               SolverError)
from captension.harness import (CSV_HEADER, ExperimentConfig, emit_csv,
                                emit_plot, fit_rate, main, measure_frequency,
                                oracle_compare, run_single, run_sweep)
import captension
from captension.harness import run as run_module
from captension.harness.cli import _load_config, build_parser
from captension.harness.run import RunRecord


def make_record(k, val):
    times = (0.0, 0.5)
    return RunRecord(k=k, times=times, sup_nabla_f_L2=val,
                     sup_nabla_f_H1=2.0 * val, sup_eta_gap_H1=0.1 * val,
                     sup_etadot_gap_H1=0.2 * val, energy_drift=1e-9,
                     converged=True,
                     series={q: (val, val) for q in
                             ("nabla_f_L2", "nabla_f_H1", "eta_gap_H1",
                              "etadot_gap_H1", "energy_drift")})


class TestConfig:
    def test_defaults_are_reference_scale(self):
        cfg = ExperimentConfig()
        assert (cfg.n_theta, cfg.n_r, cfg.T) == (32, 16, 0.1)

    def test_file_parsing(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(
            "# capillary sweep\n"
            "n_theta = 16\n"
            "t_final = 0.05   # alias for T\n"
            "k_list = 50, 100\n"
            "amplitude = 0.01\n"
            "\n")
        cfg = ExperimentConfig.from_file(p)
        assert cfg.n_theta == 16
        assert cfg.T == 0.05
        assert cfg.k_list == (50.0, 100.0)
        assert cfg.amplitude == 0.01

    @pytest.mark.parametrize("key", ["n_thetas", "seed", "norms_to_report",
                                     "tol_ell", "tol_vol", "tol_L1", "delta0"])
    def test_unknown_key_rejected(self, tmp_path, key):
        p = tmp_path / "bad.cfg"
        p.write_text(f"{key} = 16\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(p)

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("n_theta = sixteen\n")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(tmp_path / "absent.cfg")

    @pytest.mark.parametrize("first, again, key", [
        ("T = 0.2", "t_final = 0.3", "T"), ("n_r = 8", "n_r = 12", "n_r")])
    def test_repeated_key_rejected(self, tmp_path, first, again, key):
        # T and its spelling t_final are one key
        p = tmp_path / "twice.cfg"
        p.write_text(f"{first}\n# comment\n{again}\n")
        with pytest.raises(ConfigError, match=(
                rf"twice\.cfg:3: key '{again.split()[0]}' sets '{key}' "
                r"again, first set on line 1")):
            ExperimentConfig.from_file(p)

    @pytest.mark.parametrize("kwargs", [
        dict(n_theta=7), dict(n_theta=10, n_r=4), dict(T=-1.0),
        dict(k_list=()), dict(k_list=(100.0, 100.0)), dict(k_list=(-5.0,)),
        dict(n_outputs=1), dict(dt_fixed=0.0), dict(amplitude=float("nan")),
        dict(T=float("inf")), dict(T=float("nan")),
        dict(dt_fixed=float("nan")), dict(dt_fixed=float("inf")),
        dict(k_list=(100.0, float("inf"))),
        dict(k_list=(100.0, float("nan"))),
        dict(stream_mode=-1), dict(n_theta=16, n_r=8, stream_mode=8),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)


class TestRates:
    def test_cubic_decay(self):
        pts = [(k, 5.0 * k ** -3) for k in (100.0, 200.0, 400.0, 800.0)]
        slope, quality = fit_rate(pts)
        assert slope == pytest.approx(3.0, abs=1e-12)
        assert quality == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        slope, quality = fit_rate([(k, 2.0) for k in (1.0, 2.0, 4.0)])
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert quality == 1.0

    def test_too_few_points(self):
        with pytest.raises(InsufficientPointsError):
            fit_rate([(1.0, 1.0), (2.0, 0.5)])

    def test_nonpositive_values(self):
        with pytest.raises(NonpositiveValueError):
            fit_rate([(1.0, 1.0), (2.0, 0.0), (4.0, 0.25)])

    @given(st.floats(min_value=0.25, max_value=4.0),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=25, deadline=None)
    def test_exact_recovery(self, exponent, scale):
        pts = [(k, scale * k ** -exponent) for k in (10.0, 30.0, 90.0, 270.0)]
        slope, quality = fit_rate(pts)
        assert slope == pytest.approx(exponent, rel=1e-9)
        assert quality == pytest.approx(1.0, abs=1e-9)

    def test_frequency_of_pure_cosine(self):
        t = np.linspace(0.0, 1.0, 4001)
        omega = 48.9898
        assert measure_frequency(t, np.cos(omega * t)) == pytest.approx(
            omega, rel=1e-5)

    def test_frequency_needs_crossings(self):
        t = np.linspace(0.0, 1.0, 100)
        with pytest.raises(InsufficientPointsError):
            measure_frequency(t, np.ones_like(t))


class TestEmit:
    def test_csv_round_trip(self, tmp_path):
        rows = [make_record(100.0, 1.25e-7), make_record(200.0, 6.25e-8)]
        path = tmp_path / "sweep.csv"
        emit_csv(rows, path)
        header, *lines = path.read_text().splitlines()
        assert header == CSV_HEADER
        parsed = [dict(zip(header.split(","), ln.split(","))) for ln in lines]
        assert len(parsed) == 2
        assert float(parsed[0]["k"]) == 100.0
        assert float(parsed[1]["sup_nabla_f_L2"]) == 6.25e-8
        assert parsed[0]["converged"] == "true"

    def test_csv_keeps_full_precision(self, tmp_path):
        val = 1.0 / 3.0
        path = tmp_path / "one.csv"
        emit_csv([make_record(100.0, val)], path)
        row = path.read_text().splitlines()[1].split(",")
        assert float(row[CSV_HEADER.split(",").index("sup_nabla_f_L2")]) == val

    def test_empty_rows_give_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_plot_shows_fitted_slope(self, tmp_path):
        pts = [(k, 5.0 * k ** -3) for k in (100.0, 200.0, 400.0, 800.0)]
        path = tmp_path / "decay.svg"
        emit_plot(pts, path, title="decay", slope=3.0, quality=0.999)
        svg = path.read_text()
        assert svg.startswith("<svg")
        assert "3.00" in svg
        assert "decay" in svg


def small_config(tmp_path, **kwargs):
    base = dict(n_theta=16, n_r=8, T=2e-3, n_outputs=3, dt_fixed=1e-3,
                k_list=(100.0,), amplitude=0.01, out_dir=str(tmp_path))
    base.update(kwargs)
    return ExperimentConfig(**base)


def break_free_flow(monkeypatch, fail_from):
    """From time fail_from on, every free step raises a SolverError."""
    original = run_module.step_free_boundary

    def failing(state, dt):
        if state.time >= fail_from:
            raise SolverError("free flow breaks down")
        return original(state, dt)

    monkeypatch.setattr(run_module, "step_free_boundary", failing)


class TestRuns:
    def test_run_single_shapes(self, tmp_path):
        cfg = small_config(tmp_path)
        rec = run_single(cfg, 100.0)
        assert rec.converged
        assert len(rec.times) == cfg.n_outputs
        assert len(rec.series["nabla_f_L2"]) == cfg.n_outputs
        assert rec.sup_nabla_f_L2 == max(rec.series["nabla_f_L2"])
        assert rec.sup_nabla_f_H1 >= rec.sup_nabla_f_L2

    @staticmethod
    def count_fixed_steps(monkeypatch, fail_from=None):
        """Count step_fixed_euler calls; from time fail_from on, raise."""
        calls = []
        original = run_module.step_fixed_euler

        def counted(state, dt):
            calls.append(state.time)
            if fail_from is not None and state.time >= fail_from:
                raise SolverError("fixed flow breaks down")
            return original(state, dt)

        monkeypatch.setattr(run_module, "step_fixed_euler", counted)
        return calls

    def test_sweep_integrates_fixed_flow_once(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path, k_list=(100.0, 200.0, 400.0),
                           dt_fixed=5e-4)
        n_fix = math.ceil(cfg.T / (cfg.n_outputs - 1) / cfg.dt_fixed)
        calls = self.count_fixed_steps(monkeypatch)
        for _ in range(2):
            # each call pays for its own flow: nothing is kept across calls
            calls.clear()
            run_sweep(cfg)
            assert len(calls) == (cfg.n_outputs - 1) * n_fix == 4

    def test_free_flow_steps_under_dt_fixed_and_the_rotation_bound(
            self, tmp_path, monkeypatch):
        steps = []
        original = run_module.step_free_boundary

        def counted(state, dt):
            steps.append(dt)
            return original(state, dt)

        monkeypatch.setattr(run_module, "step_free_boundary", counted)
        cfg = small_config(tmp_path, dt_fixed=5e-4)
        assert run_single(cfg, 100.0).converged
        assert steps == pytest.approx([5e-4] * 4, rel=1e-12)
        # at k = 1e6 the fastest of the 16 angles' modes, m = 7, turns
        # by pi in less than dt_fixed
        steps.clear()
        assert run_single(cfg, 1e6).converged
        bound = np.pi / np.sqrt(1e6 * 7 * 48)
        n = math.ceil(1e-3 / bound)
        assert steps == pytest.approx([1e-3 / n] * (2 * n), rel=1e-12)

    def test_a_record_takes_at_most_four_derivative_passes(self, tmp_path,
                                                           monkeypatch):
        from captension.diskfield import calculus

        cfg = small_config(tmp_path)
        fixed_flow = run_module._fixed_flow(cfg)
        fixed_flow.at(cfg.n_outputs - 1)
        # the norms' own passes and the steps are not the record's
        monkeypatch.setattr(run_module, "sobolev_norm_disk", lambda f, s: 0.0)
        monkeypatch.setattr(run_module, "step_free_boundary",
                            lambda state, dt: state._replace(
                                time=state.time + dt))
        passes = count_calls(monkeypatch, calculus.grad_values)
        run_module._records(cfg, (100.0,), fixed_flow)
        assert len(passes) <= 4 * cfg.n_outputs

    def test_fixed_flow_keeps_no_maps(self, tmp_path, monkeypatch):
        # maps carry cached inverses and plans; the records need neither.
        # The same holds for the unsplit reference of oracle_compare.
        references = []
        compare = run_module._compare

        def kept(free, reference, *args):
            references.append(reference)
            return compare(free, reference, *args)

        monkeypatch.setattr(run_module, "_compare", kept)
        cfg = small_config(tmp_path)
        assert run_single(cfg, 100.0).converged
        assert oracle_compare(cfg).converged
        fixed, unsplit = references
        assert (fixed.name, unsplit.name) == ("fixed", "unsplit")
        last_maps = (fixed._state.zeta, unsplit._state[0])
        for reference, n, last_map in zip(references, (cfg.n_outputs, 6),
                                          last_maps):
            assert len(reference._outputs) == n
            assert all(type(a) is VectorField and type(b) is VectorField
                       for a, b in reference._outputs)
            # of the states only the last is held, to step from
            assert np.array_equal(reference._outputs[-1][0].values,
                                  last_map.displacement.values)

    def test_sweep_rows_equal_single_runs(self, tmp_path):
        cfg = small_config(tmp_path, k_list=(100.0, 200.0, 400.0))
        rows = run_sweep(cfg).rows
        assert rows == tuple(run_single(cfg, k) for k in cfg.k_list)
        assert all(r.converged and r.fail_time is None for r in rows)

    def test_sweep_steps_every_k_in_one_call_per_substep(self, tmp_path,
                                                         monkeypatch):
        # the bench sweep: 3 substeps, each one batched step of 4 RHS
        # calls for all four k
        from captension.dynamics import rhs_free_boundary

        cfg = ExperimentConfig(n_theta=32, n_r=16, T=0.0025, n_outputs=2,
                               k_list=(100.0, 200.0, 400.0, 800.0),
                               out_dir=str(tmp_path))
        steps = count_calls(monkeypatch, run_module.step_free_boundary)
        rhs = count_calls(monkeypatch, rhs_free_boundary)
        assert all(r.converged for r in run_sweep(cfg).rows)
        assert (len(steps), len(rhs)) == (3, 12)
        assert all(state.k == cfg.k_list for state, _ in steps)

    def test_a_failing_k_closes_only_its_own_row(self, tmp_path, monkeypatch):
        # from t = 1.4e-3 on, every RHS of a state holding k = 200 raises:
        # the batched step of the second substep of segment 2 fails, is
        # stepped again member by member, and only k = 200 stops there
        from captension.dynamics import evolution

        original = evolution.rhs_free_boundary

        def failing(state):
            if state.time >= 1.4e-3 and 200.0 in np.atleast_1d(state.k):
                raise SolverError("solve stalls at k = 200")
            return original(state)

        monkeypatch.setattr(evolution, "rhs_free_boundary", failing)
        cfg = small_config(tmp_path, k_list=(100.0, 200.0, 400.0),
                           T=3e-3, n_outputs=4, dt_fixed=5e-4)
        rows = run_sweep(cfg).rows
        assert rows == tuple(run_single(cfg, k) for k in cfg.k_list)
        assert [r.converged for r in rows] == [True, False, True]
        assert rows[1].failure == ("free flow, SolverError: "
                                   "solve stalls at k = 200")
        assert rows[1].fail_time == pytest.approx(1.5e-3, rel=1e-12)
        assert rows[1].times == pytest.approx((0.0, 1e-3), rel=1e-12)

    def test_a_failing_record_closes_only_its_own_row(self, tmp_path,
                                                      monkeypatch):
        # from t = 1.5e-3 on, the record of k = 200 raises, as a failed
        # inversion of gamma would: at output time 2e-3 its row closes,
        # and the other two k go on as a two-member state
        original = run_module.reconstruct_eta

        def failing(state, derivatives):
            if state.time >= 1.5e-3 and state.k == 200.0:
                raise InversionFailureError("gamma is not invertible")
            return original(state, derivatives)

        monkeypatch.setattr(run_module, "reconstruct_eta", failing)
        steps = count_calls(monkeypatch, run_module.step_free_boundary)
        cfg = small_config(tmp_path, k_list=(100.0, 200.0, 400.0),
                           T=3e-3, n_outputs=4, dt_fixed=5e-4)
        rows = run_sweep(cfg).rows
        assert [state.k for state, _ in steps] == (
            [cfg.k_list] * 4 + [(100.0, 400.0)] * 2)
        assert [r.converged for r in rows] == [True, False, True]
        assert rows[1].failure == ("free flow, InversionFailureError: "
                                   "gamma is not invertible")
        assert rows[1].fail_time == pytest.approx(2e-3, rel=1e-12)
        assert rows[1].times == pytest.approx((0.0, 1e-3), rel=1e-12)
        assert all(len(v) == 2 for v in rows[1].series.values())
        assert rows == tuple(run_single(cfg, k) for k in cfg.k_list)

    def test_fixed_flow_failure_closes_every_row(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path, k_list=(100.0, 200.0, 400.0),
                           T=3e-3, n_outputs=4)
        segment = cfg.T / (cfg.n_outputs - 1)
        calls = self.count_fixed_steps(monkeypatch, fail_from=0.99 * segment)
        rows = run_sweep(cfg).rows
        for row in rows:
            assert not row.converged
            # the fixed flow's own time: its step from t = segment failed
            assert row.fail_time == pytest.approx(segment, rel=1e-12)
            assert row.failure == ("fixed flow, SolverError: "
                                   "fixed flow breaks down")
            assert row.times == pytest.approx((0.0, segment), rel=1e-12)
            assert all(len(v) == len(row.times) for v in row.series.values())
        # segment 1 once, then the failing call of segment 2 once
        assert len(calls) == 2

    def test_oracle_compare_rows(self, tmp_path):
        cfg = small_config(tmp_path)
        record = oracle_compare(cfg)
        assert record.converged and len(record.times) == 6
        assert record.times[0] == 0.0
        assert record.times[-1] == pytest.approx(cfg.T, rel=1e-12)
        assert all(gap >= 0.0 for gap in record.series["eta_gap_H1"])

    def test_oracle_steps_each_integrator_under_its_own_bound(
            self, monkeypatch):
        # at k = 100 on the 16-angle oracle grid one Lawson step spans a
        # 0.01 segment; explicit RK4 takes five
        free = count_calls(monkeypatch, run_module.step_free_boundary)
        unsplit = count_calls(monkeypatch, run_module.step_unsplit)
        record = oracle_compare(ExperimentConfig())
        assert [args[1] for args in free] == pytest.approx([0.01] * 5,
                                                           rel=1e-12)
        assert [args[2] for args in unsplit] == pytest.approx([0.002] * 25,
                                                              rel=1e-12)
        assert record.times == pytest.approx(
            [0.01 * j for j in range(6)], rel=1e-12)

    def test_oracle_derivative_passes(self, monkeypatch):
        # 1,157 (with 682 forward transforms) before the record inverted
        # gamma = beta^-1 (one map_jacobian pass per output time) in
        # place of composing with beta in every RHS; 1,169 before the
        # pressure solve handed back grad q and the Sobolev norms took
        # every component in one pass, 1,031 (with
        # 1,168 and 1,152 transforms) while hodge_Q took its gradient
        # from the modes and the pressure solve filtered its residual by
        # transforms; 666 inverse transforms while the pressure solve took
        # its boundary scale from a round trip of its boundary data; 1,163
        # while the unsplit pressure took D eta (map_jacobian) and D w
        # in two passes, not one stacked pass
        from captension.diskfield import calculus
        passes = count_calls(monkeypatch, calculus.grad_values)
        ffts = count_ffts(monkeypatch)
        oracle_compare(ExperimentConfig())
        assert len(passes) == 1063
        assert ffts == {"rfft": 673, "irfft": 546}

    def test_oracle_names_a_free_flow_failure(self, monkeypatch):
        break_free_flow(monkeypatch, 0.015)
        record = oracle_compare(ExperimentConfig())
        assert not record.converged
        assert record.failure == ("free flow, SolverError: "
                                  "free flow breaks down")
        # the free flow's time: its step from t = 0.02 failed
        assert record.fail_time == pytest.approx(0.02, rel=1e-12)
        assert record.times == pytest.approx((0.0, 0.01, 0.02), rel=1e-12)
        assert all(len(v) == 3 for v in record.series.values())

    def test_oracle_grid_is_half_the_config_with_at_least_12_angles(
            self, monkeypatch):
        class Built(Exception):
            pass

        def record(n_theta, n_r):
            raise Built((n_theta, n_r))

        monkeypatch.setattr(run_module, "make_grid", record)
        seen = []
        for n_theta, n_r in [(32, 16), (16, 8), (12, 8), (10, 8), (16, 16),
                             (48, 8)]:
            with pytest.raises(Built) as built:
                oracle_compare(ExperimentConfig(n_theta=n_theta, n_r=n_r))
            seen.append(built.value.args[0])
        assert seen == [(16, 8), (12, 8), (12, 8), (10, 8), (12, 8), (24, 8)]
        # fewer than 10 angles is rejected before any grid is built
        with pytest.raises(ConfigError, match="n_theta >= 10"):
            oracle_compare(ExperimentConfig(n_theta=8, n_r=8))


class TestCli:
    def test_unknown_flag_exits_3(self, capsys):
        assert main(["sweep", "--bogus"]) == 3
        assert "bogus" in capsys.readouterr().err

    def test_bad_config_exits_3(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("n_theta = 3\n")
        assert main(["run", "--config", str(p)]) == 3
        assert "n_theta" in capsys.readouterr().err

    def test_infinite_k_exits_3(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("n_theta = 16\nn_r = 8\nk_list = inf\n")
        assert main(["run", "--config", str(p)]) == 3
        assert "every k must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "oracle-compare"])
    @pytest.mark.parametrize("k", ["inf", "nan", "-1", "0"])
    def test_bad_k_flag_exits_3(self, tmp_path, capsys, command, k):
        p = tmp_path / "tiny.cfg"
        p.write_text(f"n_theta = 16\nn_r = 8\nout_dir = {tmp_path}\n")
        assert main([command, "--config", str(p), f"--k={k}"]) == 3
        assert "config error: every k must be finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_oracle_compare_on_a_16x8_config_exits_0(self, tmp_path, capsys):
        # halved to 8x8 its unsplit stage maps drift past det_tol
        p = tmp_path / "tiny.cfg"
        p.write_text(f"n_theta = 16\nn_r = 8\nout_dir = {tmp_path}\n")
        assert main(["oracle-compare", "--config", str(p)]) == 0
        assert (tmp_path / "oracle_gap.csv").exists()
        assert "wrote" in capsys.readouterr().out

    def test_oracle_compare_on_an_8_angle_config_exits_3(self, tmp_path,
                                                          capsys):
        p = tmp_path / "tiny.cfg"
        p.write_text(f"n_theta = 8\nn_r = 8\nout_dir = {tmp_path}\n")
        assert main(["oracle-compare", "--config", str(p)]) == 3
        assert "n_theta >= 10" in capsys.readouterr().err
        assert not (tmp_path / "oracle_gap.csv").exists()

    def test_overrides_skip_none(self, tmp_path):
        # a flag not given keeps the config's value; --t-final sets T
        args = build_parser().parse_args(
            ["run", "--t-final", "0.2", "--out-dir", str(tmp_path)])
        cfg = _load_config(args)
        assert (cfg.n_theta, cfg.T, cfg.out_dir, cfg.k_list) == (
            32, 0.2, str(tmp_path), ExperimentConfig().k_list)
        args = build_parser().parse_args(
            ["oracle-compare", "--n-theta", "16", "--k", "50",
             "--out-dir", str(tmp_path)])
        cfg = _load_config(args)
        assert (cfg.n_theta, cfg.T, cfg.k_list) == (16, 0.1, (50.0,))

    def test_a_stream_mode_at_half_the_angles_exits_3(self, tmp_path, capsys,
                                                      monkeypatch):
        # on 16 angles r^18 cos 18 theta would run as r^18 cos 2 theta
        p = tmp_path / "tiny.cfg"
        p.write_text("n_theta = 16\nn_r = 8\nT = 2e-3\nstream_mode = 18\n"
                     f"out_dir = {tmp_path}\n")
        calls = count_calls(monkeypatch, run_single)
        assert main(["run", "--config", str(p)]) == 3
        assert ("stream_mode must be >= 0 and < n_theta / 2"
                in capsys.readouterr().err)
        assert calls == []
        assert not list(tmp_path.glob("*.csv"))

    def test_oracle_compare_checks_stream_mode_on_its_halved_grid(
            self, tmp_path, capsys):
        # mode 10 fits the config's 32 angles, not the oracle's 16
        p = tmp_path / "tiny.cfg"
        p.write_text("n_theta = 32\nn_r = 8\nstream_mode = 10\n"
                     f"out_dir = {tmp_path}\n")
        assert main(["oracle-compare", "--config", str(p)]) == 3
        assert ("oracle-compare runs on 16 angles and needs stream_mode < 8"
                in capsys.readouterr().err)
        assert not (tmp_path / "oracle_gap.csv").exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "oracle-compare"])
    def test_unusable_out_dir_exits_3_before_any_work(self, tmp_path, capsys,
                                                      monkeypatch, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        p = tmp_path / "tiny.cfg"
        p.write_text("n_theta = 16\nn_r = 8\nT = 2e-3\n")
        calls = [count_calls(monkeypatch, fn) for fn in
                 (run_single, run_sweep, oracle_compare)]
        assert main([command, "--config", str(p),
                     "--out-dir", str(blocker / "sub")]) == 3
        assert "cannot create out_dir" in capsys.readouterr().err
        assert calls == [[], [], []]

    @pytest.mark.parametrize("command, key", [
        ("oracle-compare", "dt_fixed"), ("oracle-compare", "n_outputs")])
    def test_a_key_the_command_does_not_read_exits_3(
            self, tmp_path, capsys, monkeypatch, command, key):
        p = tmp_path / "tiny.cfg"
        p.write_text(f"n_theta = 16\nn_r = 8\nT = 2e-3\n{key} = 2\n"
                     f"out_dir = {tmp_path}\n")
        calls = [count_calls(monkeypatch, fn) for fn in
                 (run_single, run_sweep, oracle_compare)]
        assert main([command, "--config", str(p)]) == 3
        assert f"{key!r} is not read by this command" in capsys.readouterr().err
        assert calls == [[], [], []]
        # the file itself is valid: the other commands read the key
        assert getattr(ExperimentConfig.from_file(p), key) == 2

    @pytest.mark.parametrize("command", ["run", "sweep", "oracle-compare"])
    def test_c_cfl_is_an_unknown_key_exits_3(self, tmp_path, capsys,
                                             monkeypatch, command):
        # the RK4 bound's fraction is the constant 0.5 of dt_max
        p = tmp_path / "tiny.cfg"
        p.write_text(f"n_theta = 16\nn_r = 8\nT = 2e-3\nc_cfl = 0.25\n"
                     f"out_dir = {tmp_path}\n")
        calls = [count_calls(monkeypatch, fn) for fn in
                 (run_single, run_sweep, oracle_compare)]
        assert main([command, "--config", str(p)]) == 3
        assert ("unknown configuration key 'c_cfl'"
                in capsys.readouterr().err)
        assert calls == [[], [], []]

    def test_run_writes_series_csv(self, tmp_path, capsys):
        p = tmp_path / "tiny.cfg"
        p.write_text("n_theta = 16\nn_r = 8\nT = 2e-3\nn_outputs = 2\n"
                     "amplitude = 0.01\nk_list = 100\n"
                     f"out_dir = {tmp_path}\n")
        assert main(["run", "--config", str(p), "--k", "100"]) == 0
        out = tmp_path / "run_k100.csv"
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header.startswith("time,")
        assert "drift" in capsys.readouterr().out

    def test_mid_run_breakdown_exits_2_with_partial_series(self, tmp_path,
                                                           capsys):
        # amplitude 2 at k = 1 drives the free flow off the volume
        # constraint (VolumeDefectError near t = 0.256) while the
        # fixed-disk flow still runs clean
        p = tmp_path / "wild.cfg"
        p.write_text("n_theta = 16\nn_r = 8\nt_final = 0.5\nk_list = 1\n"
                     "amplitude = 2.0\nn_outputs = 6\n"
                     f"out_dir = {tmp_path}\n")
        assert main(["run", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith(
            "solver failed at t = 0.256 (free flow, VolumeDefectError: ")
        lines = (tmp_path / "run_k1.csv").read_text().splitlines()
        assert lines[0].startswith("time,")
        assert 2 <= len(lines) < 7

    def test_a_non_finite_record_exits_2_without_writing_it(
            self, tmp_path, capsys, monkeypatch):
        # the energy of the second output time reads NaN: the row closes
        # there, and no NaN reaches the CSV
        original, calls = run_module.energy_report, []

        def nan_at_second(state, derivatives):
            calls.append(None)
            report = original(state, derivatives)
            if len(calls) == 2:
                return report._replace(E=float("nan"))
            return report

        monkeypatch.setattr(run_module, "energy_report", nan_at_second)
        p = tmp_path / "small.cfg"
        p.write_text("n_theta = 16\nn_r = 8\nt_final = 0.002\nk_list = 100\n"
                     f"n_outputs = 3\nout_dir = {tmp_path}\n")
        assert main(["run", "--config", str(p)]) == 2
        assert capsys.readouterr().err == (
            "solver failed at t = 0.001 (free flow, NonFiniteError: "
            "non-finite energy_drift)\n")
        lines = (tmp_path / "run_k100.csv").read_text().splitlines()
        assert lines[0].startswith("time,")
        assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0]

    def test_oracle_breakdown_exits_2_with_the_rows_before_it(
            self, tmp_path, capsys):
        # at amplitude 1 the unsplit stage maps leave det = 1 in the third
        # segment (VolumeDefectError near t = 0.024)
        p = tmp_path / "wild.cfg"
        p.write_text(f"amplitude = 1.0\nout_dir = {tmp_path}\n")
        assert main(["oracle-compare", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith(
            "solver failed at t = 0.024 (unsplit flow, VolumeDefectError: ")
        lines = (tmp_path / "oracle_gap.csv").read_text().splitlines()
        assert lines[0] == "time,eta_gap_H1,etadot_gap_H1"
        assert [float(line.split(",")[0]) for line in lines[1:]] == (
            pytest.approx([0.0, 0.01, 0.02], rel=1e-12))

    def test_oracle_free_flow_breakdown_exits_2_with_the_rows_before_it(
            self, tmp_path, capsys, monkeypatch):
        break_free_flow(monkeypatch, 0.015)
        assert main(["oracle-compare", "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "solver failed at t = 0.02 (free flow, SolverError: "
            "free flow breaks down)\n")
        lines = (tmp_path / "oracle_gap.csv").read_text().splitlines()
        assert lines[0] == "time,eta_gap_H1,etadot_gap_H1"
        assert [float(line.split(",")[0]) for line in lines[1:]] == (
            pytest.approx([0.0, 0.01, 0.02], rel=1e-12))

    @staticmethod
    def run_module(*argv):
        src = os.path.dirname(os.path.dirname(captension.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        return subprocess.run([sys.executable, *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_python_m_captension_starts_without_warning(self):
        done = self.run_module("-W", "error::RuntimeWarning", "-m",
                               "captension", "--help")
        assert done.returncode == 0, done.stderr
        assert "oracle-compare" in done.stdout

    def test_python_m_harness_cli_starts_without_warning(self):
        done = self.run_module("-W", "error::RuntimeWarning", "-m",
                               "captension.harness.cli", "--help")
        assert done.returncode == 0, done.stderr
        assert "oracle-compare" in done.stdout

    def test_importing_the_cli_loads_no_module_a_run_does_not_need(self):
        # beyond numpy and argparse: no dataclasses (records are
        # NamedTuples) and no numpy.polynomial (the Gauss rule is eigh)
        done = self.run_module("-c", (
            "import sys, numpy, argparse\n"
            "before = set(sys.modules)\n"
            "import captension.harness.cli\n"
            "print(*sorted(m for m in set(sys.modules) - before\n"
            "              if m.split('.')[0] != 'captension'))"))
        assert done.returncode == 0, done.stderr
        assert set(done.stdout.split()) == {"copy"}

    def test_python_m_harness_cli_runs_the_cli(self, tmp_path):
        done = self.run_module("-m", "captension.harness.cli", "run",
                               "--config", str(tmp_path / "absent.cfg"))
        assert done.returncode == 3, done.stderr
        assert "config error" in done.stderr
