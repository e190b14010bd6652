"""Command line entry points: run, sweep, oracle-compare."""

import argparse
import os
import sys

from ...errors import ConfigError, SolverError
from ..config import ExperimentConfig
from ..emit import emit_csv, emit_plot, write_csv
from ..run import SWEEP_QUANTITIES, oracle_compare, run_single, run_sweep

__all__ = ["main", "build_parser"]

# config keys a command never reads: given to it they would change nothing
_UNREAD_KEYS = {"oracle-compare": ("dt_fixed", "n_outputs")}


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

    p_oc = sub.add_parser("oracle-compare",
                          help="split integrator vs one-piece Lagrangian law")
    common(p_oc)
    p_oc.add_argument("--k", type=float, default=None,
                      help="surface tension (default: first of k_list)")
    p_oc.set_defaults(func=_cmd_oracle)
    return parser


def _load_config(args):
    unread = _UNREAD_KEYS.get(args.command, ())
    cfg = (ExperimentConfig.from_file(args.config, unread=unread)
           if args.config else ExperimentConfig())
    # the flags given, typed by argparse; a --k run is a one-k config,
    # so --k meets the k_list rules
    k = getattr(args, "k", None)
    flags = {"n_theta": args.n_theta, "T": args.t_final,
             "out_dir": args.out_dir, "k_list": None if k is None else (k,)}
    cfg = cfg._replace(**{key: v for key, v in flags.items() if v is not None})
    # before any work, so an unusable directory costs no run
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create out_dir {cfg.out_dir}: {exc}") from exc
    return cfg


def _write_series(record, path, names=None):
    names = names or tuple(record.series)
    rows = tuple(zip(record.times, *(record.series[n] for n in names)))
    write_csv(path, ",".join(("time", *names)), rows)
    return rows


def _status(record):
    if record.converged:
        return 0
    print("solver failed at t = %.6g (%s)"
          % (record.fail_time, record.failure), file=sys.stderr)
    return 2


def _cmd_run(args):
    cfg = _load_config(args)
    k = cfg.k_list[0]
    record = run_single(cfg, k)
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
    return _status(record)


def _cmd_sweep(args):
    cfg = _load_config(args)
    result = run_sweep(cfg)
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
                 "ok" if r.converged
                 else "FAILED at t = %.6g (%s)" % (r.fail_time, r.failure)))
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
    record = oracle_compare(cfg)
    path = os.path.join(cfg.out_dir, "oracle_gap.csv")
    rows = _write_series(record, path, ("eta_gap_H1", "etadot_gap_H1"))
    print("split vs one-piece law at k = %g" % cfg.k_list[0])
    for t, ge, gd in rows:
        print("  t = %-8.4f eta gap H1 = %.6e  etadot gap H1 = %.6e"
              % (t, ge, gd))
    print("wrote %s" % path)
    return _status(record)


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
