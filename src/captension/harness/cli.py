"""Command line entry points: run, sweep, selftest, oracle-compare."""

import argparse
import os
import sys

import numpy as np

from ..errors import ConfigError, SolverError
from .config import ExperimentConfig
from .emit import emit_csv, emit_plot
from .rates import fit_rate
from .run import SWEEP_QUANTITIES, oracle_compare, run_single, run_sweep

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which is reserved for
    # solver failures here; surface usage problems as config errors.
    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _Parser(prog="captension",
                     description="capillary free-surface flow on the disk")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--n-theta", type=int, default=None,
                       help="override angular resolution")
        p.add_argument("--t-final", type=float, default=None,
                       help="override final time")
        p.add_argument("--out-dir", default=None,
                       help="override output directory")

    p_run = sub.add_parser("run", help="integrate a single surface tension k")
    common(p_run)
    p_run.add_argument("--k", type=float, default=None,
                       help="surface tension (default: first of k_list)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run every k in k_list and fit rates")
    common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_self = sub.add_parser("selftest", help="fast built-in consistency checks")
    common(p_self)
    p_self.set_defaults(func=_cmd_selftest)

    p_oc = sub.add_parser("oracle-compare",
                          help="split integrator vs one-piece Lagrangian law")
    common(p_oc)
    p_oc.add_argument("--k", type=float, default=None,
                      help="surface tension (default: first of k_list)")
    p_oc.set_defaults(func=_cmd_oracle)
    return parser


def _load_config(args):
    cfg = (ExperimentConfig.from_file(args.config) if args.config
           else ExperimentConfig())
    # a --k run is a one-k config, so --k meets the k_list rules
    k = getattr(args, "k", None)
    return cfg.with_overrides(n_theta=args.n_theta, t_final=args.t_final,
                              out_dir=args.out_dir,
                              k_list=None if k is None else (k,))


def _write_series(record, path):
    names = ("nabla_f_L2", "nabla_f_H1", "eta_gap_H1", "etadot_gap_H1",
             "energy_drift")
    lines = ["time," + ",".join(names)]
    for i, t in enumerate(record.times):
        lines.append(",".join([repr(float(t))]
                              + [repr(float(record.series[n][i]))
                                 for n in names]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_run(args):
    cfg = _load_config(args)
    k = cfg.k_list[0]
    record = run_single(cfg, k)
    os.makedirs(cfg.out_dir, exist_ok=True)
    series_path = os.path.join(cfg.out_dir, "run_k%g.csv" % k)
    _write_series(record, series_path)
    print("k = %g  steps to T = %g  (%d output times)"
          % (k, cfg.T, len(record.times)))
    print("  sup |nabla f|_L2      = %.6e" % record.sup_nabla_f_L2)
    print("  sup |nabla f|_H1      = %.6e" % record.sup_nabla_f_H1)
    print("  sup |eta gap|_H1      = %.6e" % record.sup_eta_gap_H1)
    print("  sup |etadot gap|_H1   = %.6e" % record.sup_etadot_gap_H1)
    print("  max relative E drift  = %.6e" % record.energy_drift)
    print("  series -> %s" % series_path)
    if not record.converged:
        print("solver failed at t = %s" % record.fail_time, file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args):
    cfg = _load_config(args)
    result = run_sweep(cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "sweep.csv")
    emit_csv(result.rows, csv_path)

    slope = quality = None
    if "sup_nabla_f_L2" in result.fitted_exponents:
        slope, quality = result.fitted_exponents["sup_nabla_f_L2"]
    svg_path = os.path.join(cfg.out_dir, "sweep.svg")
    emit_plot([(r.k, r.sup_nabla_f_L2) for r in result.rows if r.converged],
              svg_path, title="sup |nabla f|_L2 vs k",
              slope=slope, quality=quality)

    for r in result.rows:
        print("k = %-8g sup|nabla f|_L2 = %.6e  eta gap H1 = %.6e  %s"
              % (r.k, r.sup_nabla_f_L2, r.sup_eta_gap_H1,
                 "ok" if r.converged else "FAILED at t=%s" % r.fail_time))
    for name in SWEEP_QUANTITIES:
        if name in result.fitted_exponents:
            s, q = result.fitted_exponents[name]
            print("rate %-20s slope = %.3f  quality = %.4f" % (name, s, q))
        else:
            print("rate %-20s (no fit)" % name)
    print("wrote %s and %s" % (csv_path, svg_path))
    if any(not r.converged for r in result.rows):
        return 2
    return 0


def _cmd_oracle(args):
    cfg = _load_config(args)
    k = cfg.k_list[0]
    rows = oracle_compare(cfg, k)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "oracle_gap.csv")
    lines = ["time,eta_gap_H1,etadot_gap_H1"]
    print("split vs one-piece law at k = %g" % k)
    for t, ge, gd in rows:
        print("  t = %-8.4f eta gap H1 = %.6e  etadot gap H1 = %.6e"
              % (t, ge, gd))
        lines.append("%s,%s,%s" % (repr(float(t)), repr(float(ge)),
                                   repr(float(gd))))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print("wrote %s" % path)
    return 0


def _cmd_selftest(args):
    cfg = _load_config(args)
    checks = []

    def check(name, fn):
        try:
            detail = fn()
            checks.append((name, True, detail))
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            checks.append((name, False, "%s: %s" % (type(exc).__name__, exc)))

    from ..diskfield import (BoundaryFunction, DiskMap, ScalarField,
                             VectorField, divergence, gradient, jacobian_det,
                             make_grid, l2_norm_disk, sobolev_norm_disk)
    from ..projections import hodge_Q
    from ..shape import curvature_exact, curvature_expansion, solve_volume_constraint
    from ..dynamics import FreeBoundaryState, dt_max, step_free_boundary

    grid = make_grid(24, 12)

    def quadrature():
        one = ScalarField.from_function(grid, lambda x, y: np.ones_like(x))
        err = abs(grid.integrate(one.values) - np.pi)
        assert err < 1e-12, err
        return "|area - pi| = %.2e" % err

    def projections():
        w = VectorField(
            ScalarField.from_function(grid, lambda x, y: 0.3 + x * y - 0.2 * y ** 2),
            ScalarField.from_function(grid, lambda x, y: x - 0.1 * x ** 2 + 0.4 * y))
        q = hodge_Q(w)
        p = w - q
        recon = l2_norm_disk(p + q - w)
        div_p = l2_norm_disk(divergence(p))
        flux = BoundaryFunction.from_samples(
            grid, p.x.values[-1] * grid.cos_t[0] + p.y.values[-1] * grid.sin_t[0])
        ortho = abs(grid.l2_inner(p.x.values, q.x.values)
                    + grid.l2_inner(p.y.values, q.y.values))
        worst = max(recon, div_p, flux.max_abs(), ortho)
        assert worst < 1e-8, worst
        return "worst identity residual = %.2e" % worst

    def volume():
        h = BoundaryFunction.single_mode(grid, 2, 0.05)
        pot = solve_volume_constraint(h)
        det = jacobian_det(DiskMap(gradient(pot.f), kind="embedding")).values
        err = float(np.max(np.abs(det[:-1, :] - 1.0)))
        assert err < 1e-7, err
        return "sup |J - 1| = %.2e" % err

    def curvature():
        h = BoundaryFunction.single_mode(grid, 2, 0.05)
        pot = solve_volume_constraint(h)
        exact = curvature_exact(pot).samples()
        m5 = curvature_expansion(pot).M5.samples()
        err = float(np.max(np.abs((m5 + 1.0) - exact)))
        assert err < 1e-9, err
        return "max |(M5+1) - kappa| = %.2e" % err

    def rest():
        state = FreeBoundaryState.from_velocity(grid, VectorField.zeros(grid), 10.0)
        state = step_free_boundary(state, 0.9 * dt_max(10.0, grid.n_theta))
        moved = max(sobolev_norm_disk(gradient(state.f), 0),
                    sobolev_norm_disk(state.v, 0))
        assert moved < 1e-12, moved
        return "post-step motion = %.2e" % moved

    def rates():
        pts = [(k, 2.5 * k ** -3.0) for k in (100.0, 200.0, 400.0, 800.0)]
        slope, quality = fit_rate(pts)
        assert abs(slope - 3.0) < 1e-10 and quality > 1.0 - 1e-12
        return "slope = %.3f quality = %.4f" % (slope, quality)

    check("quadrature", quadrature)
    check("projections", projections)
    check("volume-constraint", volume)
    check("curvature-expansion", curvature)
    check("rest-state", rest)
    check("rate-fit", rates)

    failed = 0
    for name, ok, detail in checks:
        print("%s %-20s %s" % ("PASS" if ok else "FAIL", name, detail))
        failed += 0 if ok else 1
    if failed:
        print("%d of %d selftests failed" % (failed, len(checks)),
              file=sys.stderr)
        return 2
    print("all %d selftests passed" % len(checks))
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 3
    except SolverError as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return 2
