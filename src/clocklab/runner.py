"""Scenario execution: dispatch a validated config to the physics modules,
write CSV rows, and self-check the run against the module tolerances.

Check names are stable identifiers for the invariants they verify:
``product_ratio`` (weighing cancellation), ``dirac_table`` (canonical
bracket table), trajectory constraint/conservation/rate checks and
``motion_residual`` (the covariant equation of motion, for unheld clocks),
``commutator``, ``uncertainty_floor``, ``variance_law``/``mean_linearity``
(exact reading statistics), ``tau_window`` (share of a reading in the
outer band of the proper-time window), and ``sw_bound``/``sw_bound_floor``/
``sw_saturation`` (clock-bound checks).

The JSON run report also carries ``diagnostics`` (quantum runs: the grid
sizes n_e and n_p, the largest over sweep members; classical trajectories:
``rk4_steps`` and ``rhs_evals`` over all batches and clocks, and
``batch_members``, the largest batch),
``timings`` (``compute_s`` and ``write_s``; classical trajectories also
``integrate_s`` and ``audit_s``, the phases inside ``compute_s``, summed over
batches) and the clocklab, numpy and Python ``versions``.
"""
from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .brackets import dirac_table, expected_dirac_table, random_points
from .config import ConfigError, ScenarioConfig
from .csvio import FloatBlock, emit_csv
from .dynamics import (
    ExtendedPhaseSpacePoint,
    constraint_drift,
    geodesic_lorentz_residual,
    hamiltonian_series,
    integrate,
    motion_rounding_floor,
    proper_time_residual,
    relative_drift,
    whole_steps,
)
from .gedanken import BoxExperiment, EFieldExperiment, box_uncertainties, efield_uncertainties
from .metric import flat_metric, uniform_lapse_metric
from .moments import (
    SPREAD_FLOOR,
    StateMoments,
    salecker_wigner_check,
    state_moments,
    tau_moments_simulated,
)
from .operators import TAU_WINDOW_LIMIT, TipClearanceError, commutator_residual
from .search import optimize_clock_width
from .states import GaussianClockSpec, GridAxisError, GridSizeError, gaussian_state
from .units import NATURAL_UNITS, SI_UNITS, UnitSystem, convert_units

TOLERANCES = {
    "product_ratio": 1e-12,
    "dirac_table": 1e-6,
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


@dataclass(frozen=True)
class RunReport:
    scenario: ScenarioConfig
    rows_written: int
    checks: tuple[CheckResult, ...]
    diagnostics: dict[str, int]  # grid sizes or RK4 work, empty for the other kinds
    timings: dict[str, float]    # compute_s (everything before the CSV), phases in it, write_s

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name: str, measured: float, floor: float = 0.0) -> CheckResult:
    """Check against the tolerance of ``name``, or against ``floor`` where the
    audit's own rounding bound is larger."""
    tol = max(TOLERANCES[name], float(floor))
    return CheckResult(name=name, passed=bool(measured <= tol), measured=float(measured),
                       tolerance=tol)


def _si_factor(dim: str) -> float | None:
    """Natural-to-SI factor of an output column tagged ``dim`` (e.g.
    "time^2"); None for an untagged column."""
    if not dim:
        return None
    base, _, power = dim.partition("^")
    return convert_units(1.0, base, NATURAL_UNITS, SI_UNITS) ** (int(power) if power else 1)


def _each(fn: Callable) -> Callable:
    """A scenario that runs its members one at a time, reporting no phases."""
    return lambda members, seed: [(*fn(params, seed), {}) for params in members]


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
    return cols, [row], [_check("product_ratio", abs(rep.product_ratio - 1.0))], {}


# --- classical ------------------------------------------------------------

_TRAJ_COLS = [("t", "time"), ("tau", "time"), ("p_tau", "energy"), ("M", "energy"),
              ("p_M", "time"), ("x1", "length"), ("x2", "length"), ("x3", "length"),
              ("p1", "momentum"), ("p2", "momentum"), ("p3", "momentum"),
              ("phi1", "energy"), ("phi2", "time"), ("H", "energy")]


# Members that agree on these keys share their dynamics and integrate as one batch.
_DYNAMICS_KEYS = ("classical.metric", "classical.lapse_g", "classical.a0_slope",
                  "classical.charge", "classical.t_end", "classical.dt", "classical.hold")


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
        a0_slope = params["classical.a0_slope"]
        if params["classical.metric"] == "uniform_lapse":
            metric = uniform_lapse_metric(params["classical.lapse_g"], a0_slope=a0_slope)
        else:
            metric = flat_metric(a0_slope)
        charge = params["classical.charge"]
        hold = params["classical.hold"] != 0.0
        points = [ExtendedPhaseSpacePoint(
            tau=p["classical.tau0"], p_tau=p["classical.m"], M=p["classical.m"], p_M=0.0,
            x=[p["classical.x1"], p["classical.x2"], p["classical.x3"]],
            p=[p["classical.p1"], p["classical.p2"], p["classical.p3"]]) for p in batch]
        # every member's rows, (members, samples, columns), in one allocation that
        # also receives the integrated states
        n_steps = whole_steps(params["classical.t_end"], params["classical.dt"])
        table = np.empty((len(batch), n_steps + 1, len(_TRAJ_COLS)))
        start = time.perf_counter()
        traj = integrate(points, metric, charge, params["classical.t_end"],
                         params["classical.dt"], hold_x=hold,
                         out=np.moveaxis(table[..., 1:11], 0, 1))
        integrated = time.perf_counter()
        diagnostics["rk4_steps"] += n_steps
        diagnostics["rhs_evals"] += traj.rhs_evals
        H = hamiltonian_series(traj, metric, charge)
        table[..., 0] = traj.times
        phi1, phi2 = traj.constraint_values()
        table[..., 11], table[..., 12], table[..., 13] = phi1.T, phi2.T, H.T
        audits = {
            "constraint_drift": np.maximum(*constraint_drift(traj)),
            "h_conservation": relative_drift(H),
            "m_conservation": relative_drift(traj.states[..., 2]),
            "proper_time_residual": proper_time_residual(traj, metric),
        }
        if not hold:  # a held clock is pushed off its free motion by the mount
            motion = geodesic_lorentz_residual(traj, metric, charge)
            floor = motion_rounding_floor(traj)
        phases["integrate_s"] += integrated - start
        phases["audit_s"] += time.perf_counter() - integrated
        for k, (j, p) in enumerate(zip(indices, batch)):
            checks = [_check(name, values[k]) for name, values in audits.items()]
            if not hold:
                checks.append(_check("motion_residual", motion[k], floor[k]))
            if params["classical.metric"] == "flat" and charge == 0.0 and not hold:
                m, p_vec = p["classical.m"], points[k].p
                h0 = math.sqrt(m * m + float(p_vec @ p_vec))
                expected_tau = p["classical.tau0"] + p["classical.t_end"] * m / h0
                checks.append(_check("tau_final", abs(traj.tau[-1, k] - expected_tau)))
            results[j] = (_TRAJ_COLS, table[k], checks, diagnostics, phases)
    return results


def _run_classical_brackets(params: dict[str, Any], seed: int):
    points = random_points(seed, params["brackets.points"], params["brackets.scale"])
    expected = expected_dirac_table()
    rows = []
    worst = 0.0
    for i, pt in enumerate(points):
        table = dirac_table(pt, params["brackets.h_step"])
        for (a, b), value in table.items():
            err = abs(value - expected[(a, b)])
            worst = max(worst, err)
            rows.append([i, f"{a}|{b}", value, expected[(a, b)], err])
    cols = [(name, "") for name in ("point", "pair", "value", "expected", "error")]
    return cols, rows, [_check("dirac_table", worst)], {}


# --- quantum ----------------------------------------------------------------

_MOMENT_COLS = [("t", "time"), ("mean_tau", "time"), ("var_tau_sim", "time^2"),
                ("var_tau_law", "time^2"), ("quad", ""), ("lin", "time"),
                ("const", "time^2"), ("bound", "time^2"), ("satisfied", ""),
                ("sharpness", "")]


def _clock_state(params: dict[str, Any], t_max: float, time_key: str):
    """The member's clock state and its t = 0 moments.  A state the runtime
    refuses is a config error naming the time key (an E grid too large for
    t_max), the grid key of an axis that does not resolve the state, or
    quantum.e0 (support at the cone tip)."""
    spec = GaussianClockSpec(
        e0=params["quantum.e0"], sigma_e=params["quantum.sigma_e"], tau0=params["quantum.tau0"],
        p0=params["quantum.p0"], sigma_p=params["quantum.sigma_p"], x0=params["quantum.x0"])
    try:
        state = gaussian_state(spec, t_max=t_max, n_e=params["grid.e.n"], n_p=params["grid.p.n"])
    except GridSizeError as err:
        raise ConfigError([f"{time_key}: {err}"]) from None
    except GridAxisError as err:
        raise ConfigError([f"grid.{err.axis.lower()}.n: {err}"]) from None
    moments = state_moments(state)
    if isinstance(moments.dilation, str):
        raise ConfigError([f"quantum.e0: {moments.dilation}"])
    return state, moments


def _moment_row(state, moments: StateMoments, t: float):
    """CSV row, reading and (for t > 0) bound check at time t, from at most
    one evolution of the state."""
    law = moments.law
    if t > 0.0:
        sim = tau_moments_simulated(state, t)
        bc = salecker_wigner_check(moments, sim)
        bound, satisfied = bc.rhs, bc.satisfied
    else:
        sim = moments.reading if t == 0.0 else tau_moments_simulated(state, t)
        bc, bound, satisfied = None, 0.0, True
    return ([t, sim.mean_tau, sim.var_tau, law.predict(t), law.quad, law.lin,
             law.const, bound, satisfied, moments.sharpness], sim, bc)


def _grid_sizes(state) -> dict[str, int]:
    return {"n_e": state.e_grid.n, "n_p": state.p_grid.n}


def _write_snapshot(state, path: str) -> None:
    from .states import probability_marginals
    e_nodes, e_density, p_nodes, p_density = probability_marginals(state)
    rows = [["E", float(x), float(d)] for x, d in zip(e_nodes, e_density)]
    rows += [["p", float(x), float(d)] for x, d in zip(p_nodes, p_density)]
    emit_csv(rows, ["axis", "coordinate", "density"], path)


def _run_quantum_moments(params: dict[str, Any], seed: int):
    times = params["quantum.times"]
    state, moments = _clock_state(params, max(abs(t) for t in times), "quantum.times")
    if params.get("quantum.snapshot"):
        _write_snapshot(state, params["quantum.snapshot"])
    law, start = moments.law, moments.reading
    rows = []
    law_dev = 0.0
    lin_dev = 0.0
    window = start.tau_window
    for t in times:
        row, sim, _ = _moment_row(state, moments, t)
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
    return _MOMENT_COLS, rows, checks, _grid_sizes(state)


def _run_quantum_bound(params: dict[str, Any], seed: int):
    t = params["quantum.t"]
    state, moments = _clock_state(params, t, "quantum.t")
    row, sim, bc = _moment_row(state, moments, t)
    checks = [
        _check("sw_bound", (-bc.margin) if moments.sharpness <= PEAKED_SHARPNESS else 0.0),
        _check("tau_window", sim.tau_window),
        _check("uncertainty_floor", SPREAD_FLOOR - moments.spread_product),
    ]
    return _MOMENT_COLS, [row], checks, _grid_sizes(state)


def _run_quantum_optimize(params: dict[str, Any], seed: int):
    lo, hi = params["optimize.sigma_lo"], params["optimize.sigma_hi"]
    bounds = None if lo == hi == 0.0 else (lo, hi)  # both 0: the default bracket
    try:
        result = optimize_clock_width(
            e0=params["quantum.e0"], p0=params["quantum.p0"],
            sigma_p=params["quantum.sigma_p"], t=params["quantum.t"],
            sigma_bounds=bounds, n_e=params["grid.e.n"], n_p=params["grid.p.n"])
    except GridSizeError as err:
        raise ConfigError([f"quantum.t: {err}"]) from None
    except GridAxisError as err:
        raise ConfigError([f"grid.{err.axis.lower()}.n: {err}"]) from None
    except TipClearanceError as err:
        raise ConfigError([f"quantum.e0: {err}"]) from None
    rows = [[i, sigma, var] for i, (sigma, var) in enumerate(result.trace)]
    checks = [
        _check("sw_bound_floor", result.bound - result.min_var),
        _check("sw_saturation", result.min_var / result.bound - 1.0),
    ]
    n_e, n_p = result.grid_sizes
    cols = [("eval", ""), ("sigma_e", "energy"), ("var_tau", "time^2")]
    return cols, rows, checks, {"n_e": n_e, "n_p": n_p}


# kind -> runner(member params, seed) -> one (columns, rows, checks,
# diagnostics, phase timings) per member; columns are (name, output dimension)
# pairs, rows are a float matrix or a list of mixed rows
_RUNNERS: dict[str, Callable] = {
    "GEDANKEN_BOX": _each(_run_gedanken),
    "GEDANKEN_EFIELD": _each(_run_gedanken),
    "CLASSICAL_TRAJECTORY": _run_classical_trajectory,
    "CLASSICAL_BRACKETS": _each(_run_classical_brackets),
    "QUANTUM_MOMENTS": _each(_run_quantum_moments),
    "QUANTUM_BOUND_SWEEP": _each(_run_quantum_bound),
    "QUANTUM_OPTIMIZE": _each(_run_quantum_optimize),
}


def _merge_checks(all_checks: list[list[CheckResult]]) -> list[CheckResult]:
    merged: dict[str, CheckResult] = {}
    for checks in all_checks:
        for c in checks:
            prev = merged.get(c.name)
            if prev is None or c.measured > prev.measured:
                merged[c.name] = c
    return list(merged.values())


def _merge_diagnostics(all_diagnostics: list[dict[str, float]]) -> dict[str, float]:
    """The largest value of each name over the members."""
    merged: dict[str, float] = {}
    for diagnostics in all_diagnostics:
        for name, value in diagnostics.items():
            merged[name] = max(merged.get(name, value), value)
    return merged


def _to_si(rows, factors: list[float | None]):
    """Rows with each float cell scaled by its column's natural-to-SI factor;
    a float matrix is scaled in place."""
    if isinstance(rows, np.ndarray):
        rows *= np.array([1.0 if factor is None else factor for factor in factors])
        return rows
    return [[value * factor if factor is not None and isinstance(value, float) else value
             for value, factor in zip(row, factors)] for row in rows]


def run(config: ScenarioConfig) -> RunReport:
    """Execute a scenario: write the CSV (and a JSON run report next to it),
    returning the per-invariant check results.  A single run is a sweep of
    one member without the sweep_value column."""
    start = time.perf_counter()
    results = _RUNNERS[config.kind](config.members, config.seed)
    cols = results[0][0]
    header, leads = [name for name, _ in cols], [()]
    if config.sweep is not None:  # the swept value, as given, leads each row
        header, leads = ["sweep_value"] + header, [(value,) for value in config.sweep.values]
    # one factor per column, not per cell: SI trajectories have 10k rows
    factors = ([_si_factor(dim) for _, dim in cols]
               if config.units is UnitSystem.SI else None)
    rows = []
    for lead, (_, member_rows, *_) in zip(leads, results):
        if factors is not None:
            member_rows = _to_si(member_rows, factors)
        rows += ([FloatBlock(lead, member_rows)] if isinstance(member_rows, np.ndarray)
                 else [[*lead, *row] for row in member_rows])
    checks = _merge_checks([r[2] for r in results])
    diagnostics = _merge_diagnostics([r[3] for r in results])
    phases = _merge_diagnostics([r[4] for r in results])

    written = time.perf_counter()
    count = emit_csv(rows, header, config.output)
    timings = {"compute_s": written - start, **phases, "write_s": time.perf_counter() - written}
    report = RunReport(scenario=config, rows_written=count, checks=tuple(checks),
                       diagnostics=diagnostics, timings=timings)
    _write_json_report(report)
    return report


def _write_json_report(report: RunReport) -> None:
    payload = {
        "scenario": report.scenario.echo(),
        "rows_written": report.rows_written,
        "checks": [{"name": c.name, "passed": c.passed, "measured": c.measured,
                    "tolerance": c.tolerance} for c in report.checks],
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
