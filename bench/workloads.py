"""Workload inputs, correctness gates and output digests.

Plain Python, no numpy: run.py uses this module without importing
the program.  Every input is drawn from the workload seed; the program
sees only the generated config file.  See README.md for why each
workload exists.
"""

import hashlib
import math
import os
import random

WORKLOADS = ("sweep", "lagrangian_oracle", "unsplit_oracle")

SWEEP_KS = (100.0, 200.0, 400.0, 800.0)
ORACLE_K = 100.0

# output file each workload is gated and digested on
OUTPUT = {
    "sweep": "sweep.csv",
    "lagrangian_oracle": "particle_gap.csv",
    "unsplit_oracle": "oracle_gap.csv",
}

# gate bounds, taken from the acceptance scorecard
ENERGY_DRIFT_MAX = 1e-4        # criterion 05
PARTICLE_GAP_MAX = 1e-3        # criterion 06
ETA_GAP_MAX = 1e-2             # criterion 09


def make_config(workload, seed):
    """The generated config as ordered (key, value) pairs."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "sweep":
        # T and n_outputs are cut so a sweep takes seconds, yet the step
        # count still grows with k (4, 5, 7 and 10 free steps)
        return [("n_theta", 32), ("n_r", 16), ("t_final", 0.0025),
                ("n_outputs", 2),
                ("k_list", ", ".join("%g" % k for k in SWEEP_KS)),
                ("amplitude", repr(0.05 * (1.0 + rng.uniform(-0.1, 0.1))))]
    if workload == "lagrangian_oracle":
        # criterion 06's finest refinement: T = 0.1 in 20 steps
        return [("n_theta", 32), ("n_r", 16), ("t_final", 0.1),
                ("dt_fixed", 0.005),
                ("amplitude", repr(0.4 * (1.0 + rng.uniform(-0.05, 0.05))))]
    # criterion 09's arbitration run; oracle-compare halves the grid
    return [("n_theta", 32), ("n_r", 16), ("t_final", 0.05),
            ("k_list", "%g" % ORACLE_K),
            ("amplitude", repr(0.05 * (1.0 + rng.uniform(-0.1, 0.1))))]


def write_config(workload, seed, path):
    lines = ["# %s, seed %d" % (workload, seed)]
    lines += ["%s = %s" % kv for kv in make_config(workload, seed)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_table(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    if not lines:
        raise ValueError("%s is empty" % os.path.basename(path))
    names = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(names):
            raise ValueError("ragged row %r" % ln)
        rows.append(dict(zip(names, parts)))
    return rows


def _floats(rows, name):
    vals = [float(r[name]) for r in rows]
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("non-finite %s" % name)
    return vals


def _gate_sweep(rows):
    problems = []
    ks = _floats(rows, "k")
    if ks != list(SWEEP_KS):
        problems.append("k column %r, expected %r" % (ks, list(SWEEP_KS)))
    if not all(r["converged"] == "true" for r in rows):
        problems.append("a row did not converge")
    drift = max(_floats(rows, "energy_drift"))
    if not drift < ENERGY_DRIFT_MAX:
        problems.append("energy drift %.3e >= %g" % (drift, ENERGY_DRIFT_MAX))
    # criterion 08's monotonicity, without its exponent >= 1: at this
    # short T the correct program fits a smaller exponent
    for name in ("sup_nabla_f_L2", "sup_eta_gap_H1", "sup_etadot_gap_H1"):
        vals = _floats(rows, name)
        if not all(b < a for a, b in zip(vals, vals[1:])):
            problems.append("%s not strictly decreasing in k" % name)
    return problems


def _gate_lagrangian(rows):
    if len(rows) < 2:
        return ["particle gap has %d rows" % len(rows)]
    gap = max(_floats(rows, "particle_gap_H1"))
    if not gap < PARTICLE_GAP_MAX:
        return ["H1 particle-map gap %.3e >= %g" % (gap, PARTICLE_GAP_MAX)]
    return []


def _gate_unsplit(rows):
    if len(rows) < 2:
        return ["oracle gap has %d rows" % len(rows)]
    _floats(rows, "etadot_gap_H1")
    gap = max(_floats(rows, "eta_gap_H1"))
    if not gap < ETA_GAP_MAX:
        return ["eta H1 gap %.3e >= %g" % (gap, ETA_GAP_MAX)]
    return []


_GATES = {
    "sweep": _gate_sweep,
    "lagrangian_oracle": _gate_lagrangian,
    "unsplit_oracle": _gate_unsplit,
}


def gate(workload, out_dir):
    """Problems found in a workload's output; empty when it passes."""
    path = os.path.join(out_dir, OUTPUT[workload])
    try:
        return _GATES[workload](_read_table(path))
    except (OSError, KeyError, ValueError) as exc:
        return ["%s unreadable: %s: %s" % (OUTPUT[workload],
                                           type(exc).__name__, exc)]


def digest(workload, out_dir):
    """sha256 of the gated output file, or None when it is missing."""
    try:
        with open(os.path.join(out_dir, OUTPUT[workload]), "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None
