"""Single runs, k-sweeps and the unsplit oracle, all one comparison loop."""

import math
from dataclasses import dataclass, field

from ..errors import ConfigError, NonpositiveValueError, SolverError
from ..diskfield import DiskMap, VectorField, make_grid, sobolev_norm_disk
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


@dataclass(frozen=True)
class RunRecord:
    """Norms and energy of one k along the shared output time grid."""

    k: float
    times: tuple
    sup_nabla_f_L2: float
    sup_nabla_f_H1: float
    sup_eta_gap_H1: float
    sup_etadot_gap_H1: float
    energy_drift: float
    converged: bool
    fail_time: float = None
    failure: str = None
    series: dict = field(default_factory=dict, repr=False)


@dataclass(frozen=True)
class SweepResult:
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
    a state's maps carry cached inverses and evaluation plans that no
    record needs.  Its time is the sum of its dt.  A solver failure is
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


def _compare(free, reference, n_outputs, segment, free_bound):
    """Step the free flow beside `reference` over n_outputs - 1 segments,
    the free step substepped under free_bound, and record both at each
    output time.  A solver failure in either flow closes the record
    early with converged = False, the failing flow's time in fail_time
    and, in failure, that flow's name, the error class and its message.
    """
    n_free, dt_free = _substeps(segment, free_bound)
    times = [0.0]
    series = {q: [] for q in ("nabla_f_L2", "nabla_f_H1", "eta_gap_H1",
                              "etadot_gap_H1", "energy_drift")}

    def record(f_state, ref_displacement, ref_velocity, e0):
        # every value is computed before any is stored, so a failure
        # leaves the series as long as times; returns the energy, and
        # the first record's energy is the e0 of the drift
        derivatives = output_derivatives(f_state)
        gf = derivatives[0]
        eta, etadot = reconstruct_eta(f_state, derivatives)
        energy = energy_report(f_state, derivatives).E
        e0 = energy if e0 is None else e0
        row = {
            "nabla_f_L2": sobolev_norm_disk(gf, 0),
            "nabla_f_H1": sobolev_norm_disk(gf, 1),
            "eta_gap_H1": sobolev_norm_disk(
                eta.displacement - ref_displacement, 1),
            "etadot_gap_H1": sobolev_norm_disk(etadot - ref_velocity, 1),
            "energy_drift": abs(energy - e0) / max(abs(e0), 1e-30),
        }
        for q, value in row.items():
            series[q].append(value)
        return energy

    e0 = record(free, *reference.at(0), None)
    fail_time = failure = None
    for j in range(1, n_outputs):
        try:
            for _ in range(n_free):
                free = step_free_boundary(free, dt_free)
            record(free, *reference.at(j), e0)
        except SolverError as exc:
            flow, fail_time = "free", free.time
            if reference.failure is not None and exc is reference.failure[1]:
                flow, fail_time = reference.name, reference.failure[0]
            failure = "%s flow, %s: %s" % (flow, type(exc).__name__, exc)
            break
        times.append(free.time)

    return RunRecord(
        k=free.k,
        times=tuple(times),
        sup_nabla_f_L2=max(series["nabla_f_L2"]),
        sup_nabla_f_H1=max(series["nabla_f_H1"]),
        sup_eta_gap_H1=max(series["eta_gap_H1"]),
        sup_etadot_gap_H1=max(series["etadot_gap_H1"]),
        energy_drift=max(series["energy_drift"]),
        converged=failure is None,
        fail_time=fail_time,
        failure=failure,
        series={q: tuple(v) for q, v in series.items()},
    )


def run_single(config, k, fixed_flow=None):
    """Integrate the free-surface flow at one k and compare it with the
    fixed-disk flow from the same u0.

    Both trajectories share the output time grid, and both substep each
    segment under the configured dt_fixed; the free solver's step is
    also capped by dt_free_max, under which its integrating factor
    turns the fastest capillary mode by at most pi.  `fixed_flow` is
    the k-independent fixed-disk flow that `run_sweep` shares between
    its k values; alone, run_single integrates its own.  A failing flow
    is named "free" or "fixed" in the record's failure.
    """
    if fixed_flow is None:
        fixed_flow = _fixed_flow(config)
    grid = make_grid(config.n_theta, config.n_r)
    u0 = stream_initial_velocity(grid, config.stream_mode, config.amplitude)
    return _compare(
        FreeBoundaryState.from_velocity(grid, u0, k), fixed_flow,
        config.n_outputs, config.T / (config.n_outputs - 1),
        min(config.dt_fixed, dt_free_max(k, config.n_theta)))


def run_sweep(config):
    """run_single per k, one after another, all compared with one fixed-disk
    flow integrated once for this call; fit decay exponents over the
    converged rows (three or more needed for a fit)."""
    fixed_flow = _fixed_flow(config)
    rows = [run_single(config, k, fixed_flow) for k in config.k_list]

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
    eta = DiskMap(VectorField.zeros(grid), kind="embedding")
    unsplit = _Reference(
        "unsplit", (eta, free.v),
        lambda state, dt: step_unsplit(*state, dt, k),
        lambda state: (state[0].displacement, state[1]),
        _substeps(segment, dt_max(k, n_theta)))
    return _compare(free, unsplit, 6, segment, dt_free_max(k, n_theta))
