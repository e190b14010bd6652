"""captension benchmark runner.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  W is one of sweep, lagrangian_oracle,
unsplit_oracle (README.md says why each exists).  It writes the
seeded config, then repeats the workload, each repetition in a fresh
process (worker.py), until S seconds have passed.  Set-up is timed in
every untraced repetition, from the process start to its first step.
It gates every repetition's output, checks that all repetitions of the
seed wrote byte-identical output, and prints
each metric with its unit, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
untraced.  wall_s and cpu_s are seconds at reference machine speed: a
repetition's times, less the CPU time of the speed probe that ran in
it, divided by the slowdown the probe measured (speed.py says why).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics.  Everything is written under
.bench_work/<workload>/seed<N>[-trace]/, including result.json with
the environment and every sample.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

CHILD_TIMEOUT_S = 150.0
THREAD_ENV = ("CAPTENSION_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS")
# One BLAS thread per process.  With the library default, idle BLAS
# threads spin on the second core: on a 2-vCPU VM, one busy core
# elsewhere stretched a lagrangian_oracle repetition from 2.8 s to 6.2 s;
# with one thread it stayed at 2.5 s.  The sweep runs its k values one
# after another on the main thread, beside the speed probe (speed.py).
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "CAPTENSION_THREADS": "1"}


def spawn(args, log_path):
    """Run worker.py to the end: (exit code, CLOCK_MONOTONIC at the start,
    wall s, CPU s, peak RSS MiB).

    CPU time and peak RSS come from the child's own rusage, so they
    cover every thread of that process and nothing else.
    """
    env = dict(os.environ)
    env.update(CHILD_ENV)
    with open(log_path, "wb") as log:
        clock0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=ROOT,
                                env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, clock0, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def src_files():
    out = []
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        out += [os.path.join(dirpath, f) for f in sorted(filenames)
                if f.endswith(".py")]
    return out


def src_identity():
    """(sha256 over src/**/*.py, their line count)."""
    h = hashlib.sha256()
    lines = 0
    for path in src_files():
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(os.path.relpath(path, ROOT).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return h.hexdigest(), lines


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(seed, src_sha, src_lines, rep):
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha,
        "src_lines": src_lines,
        "numpy": rep.get("numpy"),
        "blas": rep.get("blas"),
        "nproc": os.cpu_count(),
        "cpus_allowed": affinity,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "thread_env_found": {k: os.environ.get(k) for k in THREAD_ENV},
        "thread_env_set": CHILD_ENV,
    }


class DigestStore:
    """Output digests of earlier runs in this checkout, keyed by source
    tree, workload and seed, so the determinism check spans runs too."""

    def __init__(self, path):
        self.path = path
        try:
            with open(path, encoding="utf-8") as fh:
                self.known = json.load(fh)
        except (OSError, ValueError):
            self.known = {}

    def check(self, key, digest):
        """True when digest matches what this key produced before."""
        first = self.known.setdefault(key, digest)
        return first == digest

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.known, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def run_rep(workload, config, out_dir, traced):
    os.makedirs(out_dir)
    args = ["--workload", workload, "--config", config, "--out", out_dir]
    if traced:
        args.append("--trace")
    rc, clock0, wall, cpu, rss = spawn(args,
                                       os.path.join(out_dir, "worker.log"))
    rep = {}
    try:
        with open(os.path.join(out_dir, "rep.json"), encoding="utf-8") as fh:
            rep = json.load(fh)
    except (OSError, ValueError):
        pass
    problems = [] if rc == 0 else ["worker exit status %d" % rc]
    problems += wl.gate(workload, out_dir)
    # times in seconds at the probe's reference speed, without the
    # probe's own work; set-up is interpreter start, imports, config
    # parse, grid and initial state
    setup = wall_ref = cpu_ref = None
    slow = rep.get("slowdown")
    if not traced:
        if slow is None:
            problems.append("no speed sample was taken")
        else:
            wall_ref = (wall - rep["probe_cpu_s"]) / slow
            cpu_ref = (cpu - rep["probe_cpu_s"]) / slow
        if "first_step_clock" not in rep:
            problems.append("no integrator step was taken")
        elif slow is not None:
            setup = (rep["first_step_clock"] - clock0
                     - rep["first_step_probe_cpu_s"]) / slow
    return {"traced": traced, "rc": rc, "wall_s": wall_ref, "cpu_s": cpu_ref,
            "raw_wall_s": wall, "raw_cpu_s": cpu,
            "slowdown": slow, "peak_rss_mib": rss,
            "setup_s": setup, "problems": problems,
            "digest": wl.digest(workload, out_dir), "rep": rep}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    ap = argparse.ArgumentParser(description="captension benchmark")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "captension", "__init__.py")):
        print("no captension source under %s" % SRC, file=sys.stderr)
        return 2
    end_to_end, per_layer = load_spec()
    traced = bool(args.trace)
    src_sha, src_lines = src_identity()

    base = os.path.join(ROOT, ".bench_work")
    work = os.path.join(base, args.workload,
                        "seed%d%s" % (args.seed, "-trace" if traced else ""))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config = os.path.join(work, "input.cfg")
    wl.write_config(args.workload, args.seed, config)

    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < args.seconds:
        rep_dir = os.path.join(work, "rep%d" % len(reps))
        reps.append(run_rep(args.workload, config, rep_dir, False))
        if traced:
            reps.append(run_rep(args.workload, config,
                                rep_dir + "-traced", True))

    # determinism: every repetition, traced or not, and every earlier run
    # of this seed on this source tree wrote the same bytes
    store = DigestStore(os.path.join(base, "digests.json"))
    key = "%s/%s/%d" % (src_sha, args.workload, args.seed)
    for r in reps:
        if r["digest"] is not None and not store.check(key, r["digest"]):
            r["problems"].append("output differs from the first run of "
                                 "this seed")
    store.save()

    failed = sum(1 for r in reps if r["problems"])
    plain = [r for r in reps if not r["traced"]]

    def median(values):
        """Median of the values that were measured; None when none was."""
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None

    if traced:
        layered = [r["rep"]["layers"] for r in reps
                   if r["traced"] and "layers" in r["rep"]]
        metrics = {}
        for name in per_layer:
            if name == "fail_ratio":
                metrics[name] = failed / len(reps)
            elif name == "trace.overhead_ratio":
                # workload time only: process start-up and the writing of
                # spans after the workload are left out on both sides
                on = median(r["rep"].get("workload_s") for r in reps
                            if r["traced"])
                off = median(r["rep"].get("workload_s") for r in plain)
                if on is not None and off is not None:
                    metrics[name] = on / off
            elif layered:
                metrics[name] = statistics.median(m[name] for m in layered)
        units = per_layer
    else:
        metrics = {name: median(r[name] for r in plain)
                   for name in ("wall_s", "cpu_s", "setup_s",
                                "peak_rss_mib")}
        metrics = {k: v for k, v in metrics.items() if v is not None}
        units = end_to_end
    missing = sorted(set(units) - set(metrics))

    env = environment(args.seed, src_sha, src_lines, reps[0]["rep"])
    result = {
        "correct": failed == 0 and not missing,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"result": result, "environment": env, "reps": reps},
                  fh, indent=1)

    print("captension benchmark: workload %s, seed %d, %d repetitions (%s)"
          % (args.workload, args.seed, len(reps),
             "traced and untraced" if traced else "untraced"))
    print("environment: %s" % json.dumps(env, sort_keys=True))
    for r in reps:
        for p in r["problems"]:
            print("FAILED repetition: %s" % p)
    for name in missing:
        print("MISSING metric %s" % name)
    for name, m in result["metrics"].items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    for name in ("raw_wall_s", "raw_cpu_s", "slowdown"):
        value = median(r[name] for r in plain)
        if value is not None:
            print("  %-32s %14.6g (as measured; not a metric)" % (name, value))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
