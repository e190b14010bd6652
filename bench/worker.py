"""One repetition of a benchmark workload, in a fresh process.

    python3 bench/worker.py --workload W --config FILE --out DIR [--trace]

run.py starts it and measures it from outside.  A repetition runs the
workload through the program's public entry points, writes its outputs
into DIR, and writes rep.json there.  With --trace
it runs under the outside tracer and also writes spans.csv and the
per-layer metrics.  Without --trace it records in rep.json the moment
the first integrator step starts (`first_step_clock`, CLOCK_MONOTONIC,
which every process on the machine shares), so that run.py can
time set-up from the process start to that step.  It also runs the
speed probe (speed.py) from just after the numpy import to the end, and
records the machine's `slowdown` and the CPU time the probe took;
`workload_s` leaves that time out.  The exit status is the program's.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from speed import SpeedProbe  # noqa: E402
from workloads import ORACLE_K  # noqa: E402

# the integrators; set-up ends when the first of them is called
FIRST_STEP = ("step_free_boundary", "step_fixed_euler", "step_unsplit")


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def stamp_first_step(rep, probe=None):
    """Wrap the integrators so the first call of any of them stores the
    clock in rep["first_step_clock"], and the CPU time the speed probe
    had taken by then in rep["first_step_probe_cpu_s"]; later calls pass
    straight on.  Returns what tracer.unbind needs to undo it."""
    import captension.dynamics
    from tracer import rebind

    def stamped(fn):
        def wrapper(*args, **kwargs):
            if "first_step_clock" not in rep:
                rep["first_step_clock"] = monotonic()
                if probe is not None:
                    rep["first_step_probe_cpu_s"] = probe.cpu_s()
            return fn(*args, **kwargs)
        return wrapper

    return rebind({getattr(captension.dynamics, n): stamped(getattr(
        captension.dynamics, n)) for n in FIRST_STEP})


def run_lagrangian(config_path, out_dir):
    """Criterion 06's path: the Lagrangian fixed-disk flow beside the
    vorticity-particle oracle, with their H1 particle-map gap per step."""
    from captension.harness import ExperimentConfig
    from captension.diskfield import identity_map, make_grid, sobolev_norm_disk
    from captension.dynamics import (FixedEulerState, step_fixed_euler,
                                     stream_initial_velocity,
                                     stream_initial_vorticity,
                                     vorticity_particle_step)

    cfg = ExperimentConfig.from_file(config_path)
    grid = make_grid(cfg.n_theta, cfg.n_r)
    state = FixedEulerState.from_velocity(
        grid, stream_initial_velocity(grid, cfg.stream_mode, cfg.amplitude))
    omega = stream_initial_vorticity(grid, cfg.stream_mode, cfg.amplitude)
    phi = identity_map(grid)
    n = max(1, round(cfg.T / cfg.dt_fixed))
    dt = cfg.T / n
    lines = ["step,time,particle_gap_H1", "0,0.0,0.0"]
    for i in range(1, n + 1):
        state = step_fixed_euler(state, dt)
        omega, phi = vorticity_particle_step(omega, phi, dt)
        gap = sobolev_norm_disk(state.zeta.displacement - phi.displacement, 1)
        lines.append("%d,%r,%r" % (i, float(state.time), float(gap)))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "particle_gap.csv"), "w",
              encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def run_workload(workload, config_path, out_dir):
    if workload == "lagrangian_oracle":
        return run_lagrangian(config_path, out_dir)
    from captension.harness.cli import main
    if workload == "sweep":
        return main(["sweep", "--config", config_path, "--out-dir", out_dir])
    return main(["oracle-compare", "--config", config_path,
                 "--out-dir", out_dir, "--k", "%g" % ORACLE_K])


def numpy_build():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = "unknown"
    return np.__version__, blas


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    rep = {}
    probe = None
    if not args.trace:
        # from here to the end, chunks sample the machine's speed
        probe = SpeedProbe()
        probe.start()
    import captension.harness.cli  # noqa: F401  (import is setup, not work)
    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        with tracer:
            t0 = time.perf_counter()
            rc = run_workload(args.workload, args.config, args.out)
            wall = time.perf_counter() - t0
        tracer.write_spans(os.path.join(args.out, "spans.csv"))
        rep["layers"] = layer_metrics(tracer, wall)
    else:
        stamp_first_step(rep, probe)
        t0 = time.perf_counter()
        probe0 = probe.cpu_s()
        rc = run_workload(args.workload, args.config, args.out)
        wall = time.perf_counter() - t0 - (probe.cpu_s() - probe0)
    rep["workload_s"] = wall
    rep["numpy"], rep["blas"] = numpy_build()
    if probe is not None:
        probe.stop()
        rep["probe_chunks"] = len(probe.cpu)
        rep["probe_cpu_s"] = probe.cpu_s()
        rep["slowdown"] = probe.slowdown()
    with open(os.path.join(args.out, "rep.json"), "w", encoding="utf-8") as fh:
        json.dump(rep, fh, indent=1, sort_keys=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
