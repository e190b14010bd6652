"""Outside tracer: spans and counts around captension's public functions.

Nothing under src/ knows about it.  `Tracer.install()` replaces every
public function of the layer modules with a timing wrapper, and rebinds
it under every name that refers to it in any loaded `captension.*`
module: callers bind with `from ... import`, so wrapping only the
defining module would miss calls such as the `hodge_P` inside
`solve_L1_inverse`.  `numpy.fft.rfft`/`irfft` are counted, not spanned,
because the program looks them up through `np.fft` on every call and
they are too many to span cheaply.  `uninstall()` puts every original
back.

Spans are kept in memory, one list per thread (the sweep pool runs
`run_single` on worker threads), and written out by `write_spans` when
the run ends.  Each span carries its self time: its duration minus the
part covered by its child spans on the same thread.
"""

import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from typing import NamedTuple

from workloads import SWEEP_KS

# bottom-up layer modules; the span name is "<label>.<function>"
LAYER_MODULES = (
    ("calculus", "captension.diskfield.calculus"),
    ("elliptic", "captension.diskfield.elliptic"),
    ("norms", "captension.diskfield.norms"),
    ("projections", "captension.projections"),
    ("shape", "captension.shape"),
    ("pressure", "captension.dynamics.pressure"),
    ("evolution", "captension.dynamics.evolution"),
    ("fixed", "captension.dynamics.fixed"),
    ("unsplit", "captension.dynamics.unsplit"),
    ("run", "captension.harness.run"),
    ("cli", "captension.harness.cli"),
    ("emit", "captension.harness.emit"),
)

FFT_NAMES = ("rfft", "irfft")

# iteration counts derived from child calls: an open span of the key
# counts every call of the value made anywhere beneath it
WATCHES = {
    "projections.solve_L1_inverse": "projections.hodge_P",
    "projections.solve_pulled_back_laplacian": "elliptic.solve_dirichlet",
    "shape.solve_volume_constraint": "elliptic.solve_dirichlet",
    "fixed.invert_disk_map": "calculus.evaluate_vector_at",
}
_WATCHED = frozenset(WATCHES.values())

# spans that record one argument: the point count of an evaluation, the k
# of a run
_PROBES = {
    "calculus.evaluate_at": lambda args, kwargs: len(args[1]),
    "calculus.evaluate_vector_at": lambda args, kwargs: len(args[1]),
    "run.run_single": lambda args, kwargs: float(args[1]),
}
# spans that also record the CPU time of their own thread
_CPU_SPANS = frozenset({"run.run_single"})


def rebind(wrappers):
    """Bind wrappers[fn] in place of fn under every name that refers to
    fn in a loaded `captension.*` module.  Returns (module, name,
    original) triples that undo it."""
    restore = []
    for modname, module in sorted(sys.modules.items()):
        if module is None or not (modname == "captension"
                                  or modname.startswith("captension.")):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                restore.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    return restore


def unbind(restore):
    """Undo rebind: put every original back, emptying the list."""
    while restore:
        module, attr, original = restore.pop()
        setattr(module, attr, original)


class Span(NamedTuple):
    name: str
    span_id: int
    parent_id: int      # -1 for a span with no parent on its thread
    thread: int
    start: float
    end: float
    self_s: float
    watched: int        # watched calls beneath it (see WATCHES), or None
    arg: object         # the probed argument (see _PROBES), or None
    cpu_s: float        # thread CPU time (see _CPU_SPANS), or None

    @property
    def duration(self):
        return self.end - self.start


class _ThreadLog:
    def __init__(self, index, is_main):
        self.index = index
        self.is_main = is_main
        self.stack = []
        self.spans = []
        self.fft_calls = 0


class Tracer:
    """Wraps the layer functions while installed; use as a context manager."""

    def __init__(self):
        self._local = threading.local()
        self._logs = []
        self._logs_lock = threading.Lock()
        self._ids = itertools.count()
        self._restore = []
        self._main_ident = threading.get_ident()
        self.t0 = None

    # ---- per-thread state --------------------------------------------

    def _log(self):
        log = getattr(self._local, "log", None)
        if log is None:
            with self._logs_lock:
                log = _ThreadLog(len(self._logs),
                                 threading.get_ident() == self._main_ident)
                self._logs.append(log)
            self._local.log = log
        return log

    # ---- wrappers ------------------------------------------------------

    def _span_wrapper(self, fn, name):
        watches = WATCHES.get(name)
        is_watched = name in _WATCHED
        probe = _PROBES.get(name)
        cpu = name in _CPU_SPANS
        perf = time.perf_counter
        thread_time = time.thread_time

        def wrapper(*args, **kwargs):
            log = self._log()
            stack = log.stack
            if is_watched:
                for frame in stack:
                    if frame[4] == name:
                        frame[5] += 1
            parent_id = stack[-1][1] if stack else -1
            arg = probe(args, kwargs) if probe is not None else None
            # name, id, start, child time, watched name, watched count
            frame = [name, next(self._ids), 0.0, 0.0, watches, 0]
            stack.append(frame)
            c0 = thread_time() if cpu else 0.0
            t0 = perf()
            frame[2] = t0
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                cpu_s = thread_time() - c0 if cpu else None
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][3] += dur
                log.spans.append(Span(
                    name, frame[1], parent_id, log.index, t0, t1,
                    dur - frame[3], frame[5] if watches else None, arg,
                    cpu_s))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _count_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            self._log().fft_calls += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- install / uninstall ---------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        import numpy.fft

        # public means no leading underscore, not a name in __all__:
        # calculus.map_jacobian is public but missing from its __all__
        wrappers = {}
        for label, modname in LAYER_MODULES:
            module = importlib.import_module(modname)
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == modname):
                    wrappers[fn] = self._span_wrapper(
                        fn, "%s.%s" % (label, attr))
        self._restore = rebind(wrappers)

        for attr in FFT_NAMES:
            original = getattr(numpy.fft, attr)
            self._restore.append((numpy.fft, attr, original))
            setattr(numpy.fft, attr, self._count_wrapper(original))
        self.t0 = time.perf_counter()
        return self

    def uninstall(self):
        unbind(self._restore)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- results -------------------------------------------------------

    @property
    def spans(self):
        return [s for log in self._logs for s in log.spans]

    @property
    def fft_calls(self):
        return sum(log.fft_calls for log in self._logs)

    @property
    def main_spans(self):
        """Spans of the thread that created the tracer and ran the workload."""
        return [s for log in self._logs if log.is_main for s in log.spans]

    def write_spans(self, path):
        """One CSV line per span, times in seconds from install()."""
        t0 = self.t0 or 0.0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("name,span_id,parent_id,thread,start_s,end_s,self_s,"
                     "watched_calls,arg,thread_cpu_s\n")
            for s in sorted(self.spans, key=lambda s: s.span_id):
                fh.write("%s,%d,%d,%d,%.9f,%.9f,%.9f,%s,%s,%s\n" % (
                    s.name, s.span_id, s.parent_id, s.thread, s.start - t0,
                    s.end - t0, s.self_s,
                    "" if s.watched is None else s.watched,
                    "" if s.arg is None else repr(s.arg),
                    "" if s.cpu_s is None else "%.9f" % s.cpu_s))


# ---- per-layer metrics ----------------------------------------------------

_DERIV = frozenset("calculus." + n for n in (
    "dx_values", "dy_values", "gradient", "divergence", "laplacian",
    "hessian", "jacobian_det", "map_jacobian", "normal_derivative_boundary"))
_EVAL = frozenset({"calculus.evaluate_at", "calculus.evaluate_vector_at"})
_HODGE = frozenset({"projections.hodge_P", "projections.hodge_Q",
                    "projections.hodge_split"})
_ELLIPTIC = frozenset({"elliptic.solve_dirichlet", "elliptic.solve_neumann",
                       "elliptic.harmonic_extension"})
_CURVATURE = frozenset({"shape.curvature_exact", "shape.curvature_expansion"})
# what run_single calls at each output time to record its diagnostics
_RECORD = frozenset({"calculus.gradient", "evolution.reconstruct_eta",
                     "norms.sobolev_norm_disk", "evolution.energy_report"})


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer, wall_s):
    """Per-layer counts and times of one traced run.

    wall_s is the traced wall time of the workload on the thread that
    ran it; the self times of that thread's spans account for it, and
    what they leave is trace.remainder_s.  Self times of a layer are
    summed over all threads, so on the sweep they include time the pool
    threads spent waiting for the interpreter lock.
    """
    spans = tracer.spans
    by_id = {s.span_id: s for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(names):
        return [s for n in names for s in by_name.get(n, ())]

    def count(names):
        return len(named(names))

    def self_s(names):
        return sum(s.self_s for s in named(names))

    def outermost_s(names):
        """Wall time inside the group, nested group calls counted once."""
        total = 0.0
        for s in named(names):
            p = s.parent_id
            while p != -1 and by_id[p].name not in names:
                p = by_id[p].parent_id
            if p == -1:
                total += s.duration
        return total

    def watched_minus(name, offset):
        return sum(s.watched - offset for s in by_name.get(name, ()))

    def ms(name):
        return [1e3 * s.duration for s in by_name.get(name, ())]

    def prefixed(prefix):
        return frozenset(n for n in by_name if n.startswith(prefix))

    singles = by_name.get("run.run_single", [])
    sweeps = by_name.get("run.run_sweep", [])
    inverts = by_name.get("fixed.invert_disk_map", [])
    main_self = sum(s.self_s for s in tracer.main_spans)

    m = {
        "grid.fft_calls": tracer.fft_calls,
        "calculus.deriv_calls": count(_DERIV),
        "calculus.deriv_self_s": self_s(_DERIV),
        "calculus.eval_calls": count(_EVAL),
        "calculus.eval_points": sum(s.arg for s in named(_EVAL)),
        "calculus.eval_self_s": self_s(_EVAL | {"calculus.compose"}),
        # one evaluate_vector_at per Newton pass; none on a cache hit
        "fixed.newton_iters": watched_minus("fixed.invert_disk_map", 0),
        "fixed.invert_calls": len(inverts),
        "fixed.invert_cache_hits": sum(1 for s in inverts if s.watched == 0),
        # every projection computes exactly one hodge_Q (P = I - Q)
        "projections.hodge_calls": count({"projections.hodge_Q"}),
        "projections.hodge_self_s": self_s(_HODGE),
        "projections.L1_solves": count({"projections.solve_L1_inverse"}),
        # one hodge_P pre-projects the target, then one per iteration
        "projections.L1_iters": watched_minus("projections.solve_L1_inverse",
                                              1),
        "projections.L1_s": outermost_s({"projections.solve_L1_inverse"}),
        "projections.pbl_solves":
            count({"projections.solve_pulled_back_laplacian"}),
        # one solve_dirichlet builds the first guess, then one per correction
        "projections.pbl_iters":
            watched_minus("projections.solve_pulled_back_laplacian", 1),
        "projections.pbl_s":
            outermost_s({"projections.solve_pulled_back_laplacian"}),
        "shape.volume_solves": count({"shape.solve_volume_constraint"}),
        # the first guess is a harmonic extension, so every solve_dirichlet
        # is a correction
        "shape.volume_iters": watched_minus("shape.solve_volume_constraint",
                                            0),
        "shape.volume_s": outermost_s({"shape.solve_volume_constraint"}),
        "shape.curvature_s": outermost_s(_CURVATURE),
        "elliptic.solves": count(_ELLIPTIC),
        "elliptic.self_s": self_s(_ELLIPTIC),
        "pressure.self_s": self_s(prefixed("pressure.")),
        "evolution.free_steps": count({"evolution.step_free_boundary"}),
        "evolution.free_step_ms_p50": _quantile(
            ms("evolution.step_free_boundary"), 50),
        "evolution.free_step_ms_p95": _quantile(
            ms("evolution.step_free_boundary"), 95),
        "evolution.rhs_calls": count({"evolution.rhs_free_boundary"}),
        "evolution.rhs_self_s": self_s({"evolution.rhs_free_boundary"}),
        "fixed.steps": count({"fixed.step_fixed_euler"}),
        "fixed.step_ms_p50": _quantile(ms("fixed.step_fixed_euler"), 50),
        "fixed.step_ms_p95": _quantile(ms("fixed.step_fixed_euler"), 95),
        "fixed.vorticity_step_ms": _quantile(
            ms("fixed.vorticity_particle_step"), 50),
        "unsplit.steps": count({"unsplit.step_unsplit"}),
        "unsplit.step_ms": _quantile(ms("unsplit.step_unsplit"), 50),
        "unsplit.accel_s": outermost_s({"unsplit.unsplit_acceleration"}),
        "run.single_wait_s": sum(s.duration - s.cpu_s for s in singles),
        "run.record_self_s": sum(
            s.duration for s in named(_RECORD)
            if s.parent_id != -1 and by_id[s.parent_id].name == "run.run_single"),
        "run.sweep_overlap": (sum(s.duration for s in singles)
                              / sum(s.duration for s in sweeps)
                              if sweeps else 0.0),
        "norms.calls": count(prefixed("norms.")),
        "norms.self_s": self_s(prefixed("norms.")),
        "emit.s": outermost_s(prefixed("emit.")),
        "trace.wall_s": wall_s,
        "trace.span_self_s": main_self,
        "trace.remainder_s": wall_s - main_self,
    }
    for k in SWEEP_KS:
        m["run.single_s_k%g" % k] = sum(s.duration for s in singles
                                        if s.arg == k)
    return m
