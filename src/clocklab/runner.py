"""Scenario execution: dispatch a validated config to the physics modules,
write CSV rows, and self-check the run against the module tolerances.

Check names are stable identifiers for the invariants they verify:
``product_ratio`` (weighing cancellation), ``dirac_table`` (canonical
bracket table), ``dirac_flow`` (the equations of motion against the Dirac
flow of the total Hamiltonian), ``reduced_pair`` (the Dirac bracket of the
reduced pair (T, E)), trajectory constraint/conservation/rate checks,
``motion_residual`` (the covariant equation of motion, for unheld clocks),
``tau_final`` (a free clock's closed-form tau, to 1e-9 of its advance where
that is below 1), ``commutator``, ``uncertainty_floor``,
``variance_law``/``mean_linearity`` (exact reading statistics),
``tau_window`` (share of a reading in the outer band of the proper-time
window), and ``sw_bound``/``sw_bound_floor``/``sw_saturation`` (clock-bound
checks).

The JSON run report also carries ``diagnostics`` (quantum runs: the grid
sizes n_e and n_p, the largest over sweep members; classical trajectories:
``rk4_steps`` and ``rhs_evals`` over all batches and clocks, the latter one
per batch for a ``stationary_flow``, and ``batch_members``, the largest batch),
``timings`` (``compute_s`` and ``write_s``, the CSV's and the snapshot's
write; classical trajectories also
``integrate_s`` and ``audit_s``, the phases inside ``compute_s``, summed over
batches; quantum runs ``build_s``, ``moments_s`` and ``read_s``, the state
builds, the t = 0 moment passes and the evolved readings, summed over
members) and the clocklab, numpy and Python ``versions``.  Every clock state
a quantum run reads, each optimizer trial's too, is built, timed and refused
in one place, ``_clock_state``; ``search`` only searches.
"""
from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from . import __version__
from .brackets import (
    dirac_table,
    expected_dirac_table,
    flow_residuals,
    flow_tolerance,
    random_points,
)
from .config import ConfigError, ScenarioConfig, SweepSpec
from .csvio import emit_csv
from .dynamics import (
    constraint_drift,
    geodesic_lorentz_residual,
    integrate,
    motion_rounding_floor,
    moving_clock,
    proper_time_residual,
    rate_rounding_floor,
    relative_drift,
    stationary_flow,
    total_hamiltonian,
    whole_steps,
)
from .gedanken import BoxExperiment, EFieldExperiment, box_uncertainties, efield_uncertainties
from .metric import LapseHorizonError, StaticMetric, uniform_lapse_metric
from .moments import SPREAD_FLOOR, StateMoments, state_moments, tau_moments_simulated
from .operators import (
    TAU_WINDOW_LIMIT,
    TipClearanceError,
    check_tip_clearance,
    commutator_residual,
)
from .search import OptimizerBracketError, default_bracket, optimize_clock_width
from .states import (
    GaussianClockSpec,
    GridAxisError,
    GridSizeError,
    gaussian_state,
    probability_marginals,
)
from .units import NATURAL_UNITS, SI_UNITS, UnitSystem, convert_units

TOLERANCES = {
    "product_ratio": 1e-12,
    "dirac_table": 1e-6,
    "dirac_flow": 0.0,  # flow_tolerance(brackets.h_step), passed as the floor
    "reduced_pair": 1e-6,
    "constraint_drift": 1e-9,
    "h_conservation": 1e-9,
    "m_conservation": 1e-9,
    "proper_time_residual": 1e-8,
    "motion_residual": 1e-6,
    "tau_final": 1e-9,
    "variance_law": 1e-7,
    "mean_linearity": 1e-8,
    "uncertainty_floor": 1e-6,
    "commutator": 1e-8,
    "tau_window": TAU_WINDOW_LIMIT,
    "sw_bound": 0.0,
    "sw_bound_floor": 1e-3,
    "sw_saturation": 0.05,
}

PEAKED_SHARPNESS = 0.05


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    member: int | None = None  # on a sweep, the member the merged check came from
    sweep_value: float | None = None


@dataclass(frozen=True)
class RunReport:
    scenario: ScenarioConfig
    rows_written: int
    checks: tuple[CheckResult, ...]
    diagnostics: dict[str, int]  # grid sizes or RK4 work, empty for the other kinds
    timings: dict[str, float]    # compute_s (everything before the files), phases in it, write_s

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


class _Member(NamedTuple):
    """One member's output: its (name, output dimension) columns, its table
    (one 1-D array per column, csvio.emit_csv), checks, diagnostics and phase
    timings, and for a quantum moments run with quantum.snapshot the
    snapshot's path and tables, which ``run`` writes with the CSV, every
    member's in one file."""
    cols: list
    table: Any
    checks: list
    diagnostics: dict
    phases: dict
    snapshot: tuple[str, list] | None = None


class _MemberError(ConfigError):
    """A config error that one member's values cause; on a sweep ``run``
    names the member and its swept value, as a failing check line does."""

    def __init__(self, violation: str, member: int):
        super().__init__([violation])
        self.member = member


def _check(name: str, measured: float, floor: float = 0.0, scale: float = 1.0) -> CheckResult:
    """Check against the tolerance of ``name`` times ``scale``, or against
    ``floor`` where the audit's own rounding bound is larger; no check passes
    against a tolerance that is not finite."""
    tol = max(TOLERANCES[name] * scale, float(floor))
    return CheckResult(name=name, passed=bool(measured <= tol) and math.isfinite(tol),
                       measured=float(measured), tolerance=tol)


def _si_factor(dim: str) -> float | None:
    """Natural-to-SI factor of an output column tagged ``dim`` (e.g.
    "time^2"); None for an untagged column."""
    if not dim:
        return None
    base, _, power = dim.partition("^")
    return convert_units(1.0, base, NATURAL_UNITS, SI_UNITS) ** (int(power) if power else 1)


def _each(fn: Callable) -> Callable:
    """A scenario that runs its members one at a time, reporting no phases."""
    return lambda members, seed: [_Member(*fn(params, seed), {}) for params in members]


def _each_quantum(fn: Callable) -> Callable:
    """A quantum scenario that runs its members one at a time; every member
    reports the build, moments and reading phases of the whole call, and a
    config error a member's values cause names that member."""
    def run_members(members: list[dict[str, Any]], seed: int) -> list:
        phases = dict.fromkeys(("build_s", "moments_s", "read_s"), 0.0)
        results = []
        for j, params in enumerate(members):
            try:
                results.append(fn(params, phases))
            except ConfigError as err:
                raise _MemberError(err.violations[0], j) from None
        return results
    return run_members


def _timed(phases: dict[str, float], phase: str, fn: Callable, *args, **kwargs):
    """fn(*args, **kwargs), its wall time added to ``phases[phase]``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    phases[phase] += time.perf_counter() - start
    return result


# --- gedanken -------------------------------------------------------------

def _run_gedanken(params: dict[str, Any], seed: int):
    """One weighing: the box (third column g) or the moved clock (third column v)."""
    if "box.dq" in params:
        exp = BoxExperiment(delta_q=params["box.dq"], t=params["box.t"], g=params["box.g"])
        rep, knob, value = box_uncertainties(exp, NATURAL_UNITS), ("g", "acceleration"), exp.g
    else:
        exp = EFieldExperiment(delta_q=params["efield.dq"], t=params["efield.t"],
                               v=params["efield.v"])
        rep, knob, value = efield_uncertainties(exp, NATURAL_UNITS), ("v", "speed"), exp.v
    cols = [("delta_q", "length"), ("t", "time"), knob, ("delta_p", "momentum"),
            ("delta_m", "mass"), ("delta_tau", "time"), ("product_ratio", ""),
            ("product_ratio_half_hbar", "")]
    row = [exp.delta_q, exp.t, value, rep.delta_p, rep.delta_m, rep.delta_tau,
           rep.product_ratio, rep.product_ratio_half_hbar]
    return cols, np.array([row]).T, [_check("product_ratio", abs(rep.product_ratio - 1.0))], {}


# --- classical ------------------------------------------------------------

_TRAJ_COLS = [("t", "time"), ("tau", "time"), ("p_tau", "energy"), ("M", "energy"),
              ("p_M", "time"), ("x1", "length"), ("x2", "length"), ("x3", "length"),
              ("p1", "momentum"), ("p2", "momentum"), ("p3", "momentum"),
              ("phi1", "energy"), ("phi2", "time"), ("H", "energy")]


# Members that agree on these keys share their dynamics and integrate as one batch.
_DYNAMICS_KEYS = ("classical.lapse_g", "classical.a0_slope", "classical.charge",
                  "classical.t_end", "classical.dt", "classical.hold")


def _run_classical_trajectory(members: list[dict[str, Any]], seed: int):
    """Integrate the members that share their dynamics as one batch each."""
    batches: dict[tuple, list[int]] = {}
    for j, params in enumerate(members):
        batches.setdefault(tuple(params[key] for key in _DYNAMICS_KEYS), []).append(j)
    # every member reports the RK4 work and the phase timings of the whole call
    diagnostics = {"rk4_steps": 0, "rhs_evals": 0,
                   "batch_members": max(map(len, batches.values()))}
    phases = {"integrate_s": 0.0, "audit_s": 0.0}
    results: list = [None] * len(members)
    for indices in batches.values():
        batch = [members[j] for j in indices]
        params = batch[0]
        metric = StaticMetric(params["classical.lapse_g"], params["classical.a0_slope"])
        charge = params["classical.charge"]
        hold = params["classical.hold"] != 0.0
        clocks = np.array([moving_clock(p["classical.m"], [p[f"classical.p{i}"] for i in "123"],
                                        [p[f"classical.x{i}"] for i in "123"])
                           for p in batch])
        # every member's rows, (members, samples, columns), in one allocation that
        # also receives the integrated states
        t_end, dt = params["classical.t_end"], params["classical.dt"]
        n_steps = whole_steps(t_end, dt)
        table = np.empty((len(batch), n_steps + 1, len(_TRAJ_COLS)))
        start = time.perf_counter()
        try:
            states = integrate(clocks, metric, charge, t_end, dt, hold_x=hold,
                               out=np.moveaxis(table[..., 1:11], 0, 1))
            integrated = time.perf_counter()
            # H takes the lapse at every sample, the last one too, where no stage ran
            H = total_hamiltonian(states, metric, charge)
        except LapseHorizonError:  # the exact motion never reaches the horizon
            k, err = _first_crossing(clocks, metric, charge, t_end, dt, hold)
            raise _MemberError(f"classical.dt: too coarse, a step crossed the lapse horizon "
                               f"({err})", indices[k]) from None
        diagnostics["rk4_steps"] += n_steps
        free = stationary_flow(metric, charge) and not hold
        diagnostics["rhs_evals"] += 1 if free or hold else 4 * n_steps * len(batch)
        table[..., 0] = dt * np.arange(n_steps + 1)
        table[..., 11] = table[..., 3] - table[..., 2]  # phi1 = M - p_tau
        table[..., 12], table[..., 13] = table[..., 4], H.T  # phi2 = p_M
        audits = {"constraint_drift": np.maximum(*constraint_drift(states)),
                  "h_conservation": relative_drift(H),
                  "m_conservation": relative_drift(states[..., 2])}
        # a clock whose tau stalls divides by a zero rate: its values and
        # bounds read inf or nan, which fail their checks
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = proper_time_residual(states, dt, metric)
            rate_floor = rate_rounding_floor(states, dt)
            if not hold:  # a held clock is pushed off its free motion by the mount
                motion = geodesic_lorentz_residual(states, dt, metric, charge)
                floor = motion_rounding_floor(states, dt)
        phases["integrate_s"] += integrated - start
        phases["audit_s"] += time.perf_counter() - integrated
        for k, (j, p) in enumerate(zip(indices, batch)):
            checks = [_check(name, values[k]) for name, values in audits.items()]
            checks.append(_check("proper_time_residual", rates[k], rate_floor[k]))
            if not hold:
                checks.append(_check("motion_residual", motion[k], floor[k]))
            if free:
                m, p_vec = p["classical.m"], clocks[k, 7:10]
                advance = t_end * m / math.sqrt(m * m + float(p_vec @ p_vec))
                error = abs(states[-1, k, 0] - advance)
                # to a share of the advance itself, so that a tau standing still fails
                checks.append(_check("tau_final", error, scale=min(1.0, advance)))
            # tau starts at 0; states is a view, so the offset comes after every check
            table[k, :, 1] += p["classical.tau0"]
            results[j] = _Member(_TRAJ_COLS, table[k].T, checks, diagnostics, phases)
    return results


def _first_crossing(clocks: np.ndarray, metric: StaticMetric, charge: float, t_end: float,
                    dt: float, hold: bool) -> tuple[int, LapseHorizonError]:
    """The first clock of a batch that crosses the lapse horizon integrated
    alone, and its error.  A batch's samples are bitwise those of each clock
    alone, so one of its clocks does; only a batch that crossed pays this."""
    for k, clock in enumerate(clocks):
        try:
            total_hamiltonian(integrate(clock, metric, charge, t_end, dt, hold_x=hold),
                              metric, charge)
        except LapseHorizonError as err:
            return k, err
    raise AssertionError("no clock of the batch crosses the lapse horizon alone")


# The flow check's background: a lapse and a scalar potential acting on a
# charged clock, so that every term of the rates is compared.  Its states have
# |x1| <= 1, where the lapse stays between 0.8 and 1.2 for any step h_step < 1.
_FLOW_METRIC = uniform_lapse_metric(0.1, a0_slope=0.3)
_FLOW_CHARGE = 1.0


def _run_classical_brackets(params: dict[str, Any], seed: int):
    """The Dirac table at the probe states, then the flow and reduced-pair
    checks at the probes taken onto the constraint surface.  Those are divided
    by brackets.scale first: with coordinates of order 1 at every scale, no
    square in H overflows or underflows."""
    scale, h_step = params["brackets.scale"], params["brackets.h_step"]
    states = random_points(seed, params["brackets.points"], scale)
    table = dirac_table(states, h_step)
    expected = expected_dirac_table()
    wanted = np.array(list(expected.values()))
    errors = np.abs(table - wanted)
    # one row per (point, pair), the pairs of a point in the table's order
    n = len(states)
    columns = [np.repeat(np.arange(n), len(expected)),
               np.tile([f"{a}|{b}" for a, b in expected], n), table.ravel(),
               np.tile(wanted, n), errors.ravel()]
    surface = states / scale
    surface[:, 1] = surface[:, 2]  # p_tau = M
    surface[:, 3] = 0.0            # p_M = 0
    flow, pair = flow_residuals(surface, _FLOW_METRIC, _FLOW_CHARGE, h_step)
    checks = [_check("dirac_table", errors.max()),
              _check("dirac_flow", flow, flow_tolerance(h_step)),
              _check("reduced_pair", pair)]
    cols = [(name, "") for name in ("point", "pair", "value", "expected", "error")]
    return cols, columns, checks, {}


# --- quantum ----------------------------------------------------------------

_MOMENT_COLS = [("t", "time"), ("mean_tau", "time"), ("var_tau_sim", "time^2"),
                ("var_tau_law", "time^2"), ("quad", ""), ("lin", "time"),
                ("const", "time^2"), ("bound", "time^2"), ("satisfied", ""),
                ("sharpness", "")]


def _clock_state(params: dict[str, Any], sigma_e: float, t_max: float, time_key: str,
                 width_key: str, phases: dict[str, float], sizes: dict[str, int],
                 moments: bool = True):
    """The one build of a clock state for a reading: the member's Gaussian
    of width sigma_e at tau0 = 0, sized for readings up to t_max, and its
    t = 0 moments (None unless ``moments``).  The build and the moments are
    timed into ``phases``, ``sizes`` keeps the largest grid sizes, and the
    cone tip is checked once per state, by ``state_moments`` where it runs.
    A refused state is a config error naming the time key (an E grid or p
    quadrature too large for t_max), the width key (an E grid too large even
    at t = 0, where no time enters, or an E window that does not resolve the
    state), quantum.sigma_p (a p axis that does not) or quantum.e0 (support
    at the cone tip)."""
    spec = GaussianClockSpec(e0=params["quantum.e0"], sigma_e=sigma_e,
                             p0=params["quantum.p0"], sigma_p=params["quantum.sigma_p"])
    floors = {"n_e": params["grid.e.n"], "n_p": params["grid.p.n"]}
    try:
        state = _timed(phases, "build_s", gaussian_state, spec, t_max=t_max, **floors)
        record = _timed(phases, "moments_s", state_moments, state) if moments else None
        if record is None:
            check_tip_clearance(state)
        elif isinstance(record.dilation, str):
            raise TipClearanceError(record.dilation)
    except GridSizeError as err:
        if t_max > 0.0:  # no time enters at t = 0: a tip there names e0, a grid too big the width
            _clock_state(params, sigma_e, 0.0, time_key, width_key, phases, sizes, moments=False)
        raise ConfigError([f"{time_key if t_max > 0.0 else width_key}: {err}"]) from None
    except GridAxisError as err:
        key = width_key if err.axis == "E" else "quantum.sigma_p"
        raise ConfigError([f"{key}: {err}"]) from None
    except TipClearanceError as err:
        raise ConfigError([f"quantum.e0: {err}"]) from None
    for name, n in (("n_e", state.e_grid.n), ("n_p", state.p_grid.n)):
        sizes[name] = max(sizes.get(name, n), n)
    return state, record


def _moment_row(state, moments: StateMoments, t: float, tau0: float,
                phases: dict[str, float]):
    """CSV row and reading at time t, from at most one evolution of the
    state; the clock bound is checked for t > 0.  The row's mean_tau is the
    reading's plus the offset tau0, which no check reads."""
    law = moments.law
    sim = moments.reading if t == 0.0 else _timed(phases, "read_s", tau_moments_simulated,
                                                  state, t)
    bound = moments.clock_bound(t) if t > 0.0 else 0.0
    return ([t, tau0 + sim.mean_tau, sim.var_tau, law.predict(t), law.quad, law.lin,
             law.const, bound, t <= 0.0 or sim.var_tau >= bound, moments.sharpness], sim)


def _snapshot_tables(state) -> list:
    """The state's E and p marginals, one table per axis of the snapshot CSV
    (the p marginal at the p axis's nodes, as ``probability_marginals``
    takes it)."""
    e_nodes, e_density, p_nodes, p_density = probability_marginals(state)
    return [[np.full(len(nodes), axis), nodes, density]
            for axis, nodes, density in (("E", e_nodes, e_density), ("p", p_nodes, p_density))]


def _run_quantum_moments(params: dict[str, Any], phases: dict[str, float]):
    times = params["quantum.times"]
    if not any(times):  # the laws come from the t = 0 reading: only a later one tests them
        raise ConfigError(["quantum.times: needs a time other than 0, got only t = 0"])
    sizes: dict[str, int] = {}
    state, moments = _clock_state(params, params["quantum.sigma_e"], max(abs(t) for t in times),
                                  "quantum.times", "quantum.sigma_e", phases, sizes)
    path = params.get("quantum.snapshot")
    snapshot = (path, _snapshot_tables(state)) if path else None
    law, start = moments.law, moments.reading
    rows = []
    law_dev = 0.0
    lin_dev = 0.0
    window = start.tau_window
    for t in times:
        row, sim = _moment_row(state, moments, t, params["quantum.tau0"], phases)
        rows.append(row)
        law_dev = max(law_dev, abs(sim.var_tau - law.predict(t)) / max(law.predict(t), 1e-300))
        expected_mean = start.mean_tau + moments.d_mean * t
        lin_dev = max(lin_dev, abs(sim.mean_tau - expected_mean) / max(abs(expected_mean), 1.0))
        window = max(window, sim.tau_window)
    checks = [
        _check("variance_law", law_dev),
        _check("mean_linearity", lin_dev),
        _check("tau_window", window),
        _check("uncertainty_floor", SPREAD_FLOOR - moments.spread_product),
        _check("commutator", commutator_residual(state)),
    ]
    return _Member(_MOMENT_COLS, [np.array(column) for column in zip(*rows)], checks, sizes,
                   phases, snapshot)


def _run_quantum_bound(params: dict[str, Any], phases: dict[str, float]):
    t = params["quantum.t"]
    sizes: dict[str, int] = {}
    state, moments = _clock_state(params, params["quantum.sigma_e"], t, "quantum.t",
                                  "quantum.sigma_e", phases, sizes)
    row, sim = _moment_row(state, moments, t, params["quantum.tau0"], phases)
    checks = [
        _check("sw_bound", (moments.clock_bound(t) - sim.var_tau)
               if moments.sharpness <= PEAKED_SHARPNESS else 0.0),
        _check("tau_window", sim.tau_window),
        _check("uncertainty_floor", SPREAD_FLOOR - moments.spread_product),
    ]
    return _Member(_MOMENT_COLS, [np.array([cell]) for cell in row], checks, sizes, phases)


def _run_quantum_optimize(params: dict[str, Any], phases: dict[str, float]):
    # a trial width comes from the bracket, so the E axis's refusals name its lower end
    t, keys, sizes = params["quantum.t"], ("quantum.t", "optimize.sigma_lo"), {}
    lo, hi = params["optimize.sigma_lo"], params["optimize.sigma_hi"]
    if lo == hi == 0.0:  # the default bracket, which the config has checked
        lo, hi = default_bracket(params["quantum.e0"], params["quantum.p0"], t)

    def var_at(sigma_e: float) -> float:
        state, _ = _clock_state(params, sigma_e, t, *keys, phases, sizes, moments=False)
        return _timed(phases, "read_s", tau_moments_simulated, state, t).var_tau

    try:
        result = optimize_clock_width(var_at, (lo, hi))
    except OptimizerBracketError as err:  # the two keys set the bracket, the default one too
        raise ConfigError([f"optimize.sigma_{err.edge}: {err}"]) from None
    bound = _clock_state(params, result.sigma_e_opt, t, *keys, phases, sizes)[1].clock_bound(t)
    checks = [
        _check("sw_bound_floor", bound - result.min_var),
        _check("sw_saturation", result.min_var / bound - 1.0),
    ]
    cols = [("eval", ""), ("sigma_e", "energy"), ("var_tau", "time^2")]
    columns = [np.arange(len(result.trace)), *np.array(result.trace).T]
    return _Member(cols, columns, checks, sizes, phases)


# kind -> runner(member params, seed) -> one _Member per member
_RUNNERS: dict[str, Callable] = {
    "GEDANKEN_BOX": _each(_run_gedanken),
    "GEDANKEN_EFIELD": _each(_run_gedanken),
    "CLASSICAL_TRAJECTORY": _run_classical_trajectory,
    "CLASSICAL_BRACKETS": _each(_run_classical_brackets),
    "QUANTUM_MOMENTS": _each_quantum(_run_quantum_moments),
    "QUANTUM_BOUND_SWEEP": _each_quantum(_run_quantum_bound),
    "QUANTUM_OPTIMIZE": _each_quantum(_run_quantum_optimize),
}


def _merge_checks(all_checks: list[list[CheckResult]],
                  sweep: SweepSpec | None) -> list[CheckResult]:
    """One check per name, the worst member's: a failure first, then the
    largest share of the tolerance (the reading itself against a tolerance of
    0, nan as inf), so that a sweep passes only when every member passes.  On
    a sweep each check names its member and the member's swept value."""
    def severity(c: CheckResult) -> tuple[bool, float]:
        share = c.measured / c.tolerance if c.tolerance > 0.0 else c.measured
        return not c.passed, math.inf if math.isnan(share) else share

    tagged = [c if sweep is None else replace(c, member=j, sweep_value=sweep.values[j])
              for j, checks in enumerate(all_checks) for c in checks]
    return [max((c for c in tagged if c.name == name), key=severity)
            for name in dict.fromkeys(c.name for c in tagged)]


def _merge_diagnostics(all_diagnostics: list[dict[str, float]]) -> dict[str, float]:
    """The largest value of each name over the members."""
    merged: dict[str, float] = {}
    for diagnostics in all_diagnostics:
        for name, value in diagnostics.items():
            merged[name] = max(merged.get(name, value), value)
    return merged


def _to_si(table, factors: list[float | None]):
    """The table, each column scaled in place by its natural-to-SI factor."""
    for column, factor in zip(table, factors):
        if factor is not None:
            column *= factor
    return table


def run(config: ScenarioConfig) -> RunReport:
    """Execute a scenario: write the CSV (and a JSON run report next to it),
    returning the per-invariant check results.  A single run is a sweep of
    one member without the sweep_value column."""
    start = time.perf_counter()
    try:
        results = _RUNNERS[config.kind](config.members, config.seed)
    except _MemberError as err:
        if config.sweep is None:
            raise
        tag = f"member={err.member} {config.sweep.param}={config.sweep.values[err.member]!r}"
        raise ConfigError([f"{err.violations[0]} {tag}"]) from None
    cols = results[0].cols
    header = [name for name, _ in cols]
    # one factor per column, not per cell: SI trajectories have 10k rows
    factors = [_si_factor(dim) for _, dim in cols] if config.units is UnitSystem.SI else []
    tables = [[_to_si(r.table, factors)] for r in results]
    # a sweep's members share the snapshot path: the file holds each member's state
    snapshot = results[0].snapshot
    snapshot_header = ["axis", "coordinate", "density"]
    snapshot_tables = [r.snapshot[1] for r in results] if snapshot is not None else []
    if config.sweep is not None:  # the swept value, as given, is one more constant column
        header, snapshot_header = ["sweep_value", *header], ["sweep_value", *snapshot_header]
        tables = _led_by(config.sweep.values, tables)
        snapshot_tables = _led_by(config.sweep.values, snapshot_tables)
    checks = _merge_checks([r.checks for r in results], config.sweep)
    diagnostics = _merge_diagnostics([r.diagnostics for r in results])
    phases = _merge_diagnostics([r.phases for r in results])

    written = time.perf_counter()
    if snapshot is not None:
        path = snapshot[0]
        _emit(sum(snapshot_tables, []), snapshot_header, path, "quantum.snapshot", "the snapshot")
    try:
        count = _emit(sum(tables, []), header, config.output, "output", "the CSV")
    except ConfigError:
        if snapshot is not None:  # a run that exits on its output leaves no file behind
            Path(path).unlink()
        raise
    timings = {"compute_s": written - start, **phases, "write_s": time.perf_counter() - written}
    report = RunReport(scenario=config, rows_written=count, checks=tuple(checks),
                       diagnostics=diagnostics, timings=timings)
    _write_json_report(report)
    return report


def _led_by(values, per_member: list[list]) -> list[list]:
    """Each member's tables, every one led by the member's swept value as
    one more constant column."""
    return [[[np.full(len(table[0]), value), *table] for table in member]
            for value, member in zip(values, per_member)]


def _emit(tables, header: list[str], path: str, key: str, what: str) -> int:
    """csvio.emit_csv, where a path the writer cannot open is a config error
    naming its key."""
    try:
        return emit_csv(tables, header, path)
    except OSError as err:
        raise ConfigError([f"{key}: cannot write {what}: {err}"]) from None


def _write_json_report(report: RunReport) -> None:
    payload = {
        "scenario": report.scenario.echo(),
        "rows_written": report.rows_written,
        "checks": [{key: value for key, value in asdict(c).items() if value is not None}
                   for c in report.checks],
        "all_passed": report.all_passed,
        "diagnostics": report.diagnostics,
        "timings": report.timings,
        "versions": {"clocklab": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
    }
    path = Path(report.scenario.output).with_suffix(".report.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
