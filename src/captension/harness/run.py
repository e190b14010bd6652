"""Single runs, k-sweeps and the unsplit oracle, all one comparison loop."""

import math
from typing import NamedTuple

from ..errors import (ConfigError, NonFiniteError, NonpositiveValueError,
                      SolverError)
from ..diskfield import identity_map, make_grid, sobolev_norm_disk
from ..dynamics import (
    FixedEulerState,
    FreeBoundaryState,
    dt_free_max,
    dt_max,
    energy_report,
    output_derivatives,
    reconstruct_eta,
    step_fixed_euler,
    step_free_boundary,
    step_unsplit,
    stream_initial_velocity,
)
from .rates import fit_rate

__all__ = ["RunRecord", "SweepResult", "run_single", "run_sweep",
           "oracle_compare", "SWEEP_QUANTITIES"]

SWEEP_QUANTITIES = ("sup_nabla_f_L2", "sup_nabla_f_H1",
                    "sup_eta_gap_H1", "sup_etadot_gap_H1")


class RunRecord(NamedTuple):
    """Norms and energy of one k along the shared output time grid, and
    their series, one value per output time, keyed by quantity."""

    k: float
    times: tuple
    sup_nabla_f_L2: float
    sup_nabla_f_H1: float
    sup_eta_gap_H1: float
    sup_etadot_gap_H1: float
    energy_drift: float
    converged: bool
    series: dict
    fail_time: float = None
    failure: str = None


class SweepResult(NamedTuple):
    rows: tuple
    fitted_exponents: dict


def _substeps(segment, bound):
    n = max(1, math.ceil(segment / bound))
    return n, segment / n


class _Reference:
    """The reference flow, named `name`, at the output times of a run.

    It is stepped from `state` by `step(state, dt)`, `substeps` = (n,
    dt) per output segment.  Output time j is stepped to on its first
    request; what a record reads of it, `read(state)` = (displacement,
    velocity), is kept, and of the states only the last, to step from:
    no record needs a state's maps or the fixed flow's Eulerian
    velocity.  Its time is the sum of its dt.  A solver failure is
    kept as well, in `failure` with the time of the state the failing
    step started from, and raised again for every later request past it.
    """

    def __init__(self, name, state, step, read, substeps):
        self.name, self._step, self._read = name, step, read
        self._n_sub, self._dt = substeps
        self._state, self._time = state, 0.0
        self._outputs = [read(state)]
        self.failure = None  # (time, error)

    def at(self, j):
        """(displacement, velocity) at output time j."""
        while len(self._outputs) <= j:
            if self.failure is not None:
                raise self.failure[1]
            state, time = self._state, self._time
            try:
                for _ in range(self._n_sub):
                    state = self._step(state, self._dt)
                    time += self._dt
            except SolverError as exc:
                self.failure = (time, exc)
                raise
            self._state, self._time = state, time
            self._outputs.append(self._read(state))
        return self._outputs[j]


def _fixed_flow(config):
    """The fixed-disk Euler flow of one config.  It starts from the same
    u0 as every free run and does not depend on k, so one instance
    serves all k of a sweep."""
    grid = make_grid(config.n_theta, config.n_r)
    u0 = stream_initial_velocity(grid, config.stream_mode, config.amplitude)
    # the lambda looks step_fixed_euler up per call, so a rebound one runs
    return _Reference(
        "fixed", FixedEulerState.from_velocity(grid, u0),
        lambda state, dt: step_fixed_euler(state, dt),
        lambda state: (state.zeta.displacement, state.zetadot),
        _substeps(config.T / (config.n_outputs - 1), config.dt_fixed))


class _Row:
    """The records of one k along the output times, until a failure
    closes it."""

    def __init__(self):
        self.times = []
        self.series = {q: [] for q in ("nabla_f_L2", "nabla_f_H1",
                                       "eta_gap_H1", "etadot_gap_H1",
                                       "energy_drift")}
        self.e0 = self.k = self.fail_time = self.failure = None

    def record(self, f_state, ref_displacement, ref_velocity):
        # every value is computed and checked before any is stored, so
        # a failure leaves the series as long as times; the first
        # record's energy is the e0 of the drift
        derivatives = output_derivatives(f_state)
        gf = derivatives[0]
        eta, etadot = reconstruct_eta(f_state, derivatives)
        energy = energy_report(f_state, derivatives).E
        e0 = energy if self.e0 is None else self.e0
        row = {
            "nabla_f_L2": sobolev_norm_disk(gf, 0),
            "nabla_f_H1": sobolev_norm_disk(gf, 1),
            "eta_gap_H1": sobolev_norm_disk(
                eta.displacement - ref_displacement, 1),
            "etadot_gap_H1": sobolev_norm_disk(etadot - ref_velocity, 1),
            "energy_drift": abs(energy - e0) / max(abs(e0), 1e-30),
        }
        bad = [q for q, value in row.items() if not math.isfinite(value)]
        if bad:
            raise NonFiniteError("non-finite " + ", ".join(bad))
        for q, value in row.items():
            self.series[q].append(value)
        self.times.append(f_state.time)
        self.e0, self.k = e0, f_state.k

    def close(self, flow, time, exc):
        self.fail_time = time
        self.failure = "%s flow, %s: %s" % (flow, type(exc).__name__, exc)

    def result(self):
        series = self.series
        return RunRecord(
            k=self.k,
            times=tuple(self.times),
            sup_nabla_f_L2=max(series["nabla_f_L2"]),
            sup_nabla_f_H1=max(series["nabla_f_H1"]),
            sup_eta_gap_H1=max(series["eta_gap_H1"]),
            sup_etadot_gap_H1=max(series["etadot_gap_H1"]),
            energy_drift=max(series["energy_drift"]),
            converged=self.failure is None,
            fail_time=self.fail_time,
            failure=self.failure,
            series={q: tuple(v) for q, v in series.items()},
        )


def _members(free):
    """The one-member states of free, one per member."""
    if free.f.members is None:
        return [free]
    return [free.take(i) for i in range(free.f.members)]


def _compare(free, reference, n_outputs, substeps):
    """Step the free flow beside `reference` over n_outputs - 1 segments
    of substeps = (n, dt), and record both at each output time.  Returns
    one RunRecord per member of free, one if it has no member axis.

    Every member is stepped by one step_free_boundary call per substep.
    A solver failure in that call steps every member of it again, one
    by one, from the state before it, and each goes on alone.  A solver
    failure in either flow closes the records it reaches early, with
    converged = False, the failing flow's time in fail_time and, in
    failure, that flow's name, the error class and its message.
    """
    rows = [_Row() for _ in _members(free)]
    for row, member in zip(rows, _members(free)):
        row.record(member, *reference.at(0))
    _advance(free, rows, reference, 1, 0, n_outputs, substeps)
    return tuple(row.result() for row in rows)


def _advance(free, rows, reference, j, sub, n_outputs, substeps):
    """_compare's loop from substep `sub` of output segment j on; rows[i]
    records member i of free."""
    n_free, dt_free = substeps
    while j < n_outputs:
        for sub in range(sub, n_free):
            try:
                stepped = step_free_boundary(free, dt_free)
            except SolverError as exc:
                if free.f.members is None:
                    rows[0].close("free", free.time, exc)
                else:
                    for row, member in zip(rows, _members(free)):
                        _advance(member, [row], reference, j, sub, n_outputs,
                                 substeps)
                return
            free = stepped
        sub = 0
        try:
            ref = reference.at(j)
        except SolverError as exc:
            for row in rows:
                row.close(reference.name, reference.failure[0], exc)
            return
        going = []
        for i, (row, member) in enumerate(zip(rows, _members(free))):
            try:
                row.record(member, *ref)
                going.append(i)
            except SolverError as exc:
                row.close("free", free.time, exc)
        if len(going) < len(rows):
            if not going:
                return
            free = free.take(going if len(going) > 1 else going[0])
            rows = [rows[i] for i in going]
        j += 1


def _free_substeps(config, k):
    """(n, dt) of the free flow per output segment at k: under dt_fixed
    and dt_free_max."""
    return _substeps(config.T / (config.n_outputs - 1),
                     min(config.dt_fixed, dt_free_max(k, config.n_theta)))


def run_single(config, k):
    """Integrate the free-surface flow at one k and compare it with the
    fixed-disk flow from the same u0.

    Both trajectories share the output time grid, and both substep each
    segment under the configured dt_fixed; the free solver's step is
    also capped by dt_free_max, under which its integrating factor
    turns the fastest capillary mode by at most pi.  A failing flow is
    named "free" or "fixed" in the record's failure.
    """
    return _records(config, (k,), _fixed_flow(config))[0]


def _records(config, ks, fixed_flow):
    """The records of every k in ks, in order, compared with fixed_flow.
    The k that share their free substeps are stepped together, as the
    members of one state, and a k alone as a state without members."""
    grid = make_grid(config.n_theta, config.n_r)
    u0 = stream_initial_velocity(grid, config.stream_mode, config.amplitude)
    groups = {}
    for k in ks:
        groups.setdefault(_free_substeps(config, k), []).append(k)
    by_k = {}
    for substeps, group in groups.items():
        free = FreeBoundaryState.from_velocity(
            grid, u0, group if len(group) > 1 else group[0])
        for row in _compare(free, fixed_flow, config.n_outputs, substeps):
            by_k[row.k] = row
    return [by_k[float(k)] for k in ks]


def run_sweep(config):
    """The rows of run_single for every k, compared with one fixed-disk
    flow integrated once for this call; fit decay exponents over the
    converged rows (three or more needed for a fit).  Each row has the
    bits of run_single at its k, though the k that share their free
    substeps are stepped together."""
    rows = _records(config, config.k_list, _fixed_flow(config))

    fitted = {}
    good = [r for r in rows if r.converged]
    if len(good) >= 3:
        for name in SWEEP_QUANTITIES:
            try:
                fitted[name] = fit_rate([(r.k, getattr(r, name)) for r in good])
            except NonpositiveValueError:
                pass  # identically-zero series (e.g. rigid rotation) has no rate
    return SweepResult(rows=tuple(rows), fitted_exponents=fitted)


def oracle_compare(config):
    """Integrate the free flow against the unsplit Lagrangian law.

    Runs both at the first k from the same initial velocity at half the
    configured resolution, with at least 12 angles but never more than
    the config's own, and returns their RunRecord at t = 0 and after
    each of five segments up to min(T, 0.05), the free step substepped
    under dt_free_max and the unsplit one under dt_max.  The unsplit
    route uses no decomposition and no projection, so agreement
    arbitrates the split's terms.  Rejected: under 10 angles (on 8 the
    unsplit stage maps drift off det = 1), and a stream_mode the halved
    grid cannot hold.  A failing flow is named "free" or "unsplit".
    """
    if config.n_theta < 10:
        raise ConfigError("oracle-compare needs n_theta >= 10, "
                          f"got {config.n_theta}")
    n_theta = min(config.n_theta, max(12, (config.n_theta // 2) & ~1))
    if config.stream_mode >= n_theta // 2:
        raise ConfigError(f"oracle-compare runs on {n_theta} angles and "
                          f"needs stream_mode < {n_theta // 2}")
    k = config.k_list[0]
    grid = make_grid(n_theta, max(8, config.n_r // 2))
    u0 = stream_initial_velocity(grid, config.stream_mode, config.amplitude)
    free = FreeBoundaryState.from_velocity(grid, u0, k)
    segment = min(config.T, 0.05) / 5
    unsplit = _Reference(
        "unsplit", (identity_map(grid, kind="embedding"), free.v),
        lambda state, dt: step_unsplit(*state, dt, k),
        lambda state: (state[0].displacement, state[1]),
        _substeps(segment, dt_max(k, n_theta)))
    return _compare(free, unsplit, 6,
                    _substeps(segment, dt_free_max(k, n_theta)))[0]
