"""Per-layer figures: derived from a traced run, plus fixed-size micro-timings
of the hot paths the ROADMAP names.

The traced run is one pass over the workload's operations followed by the
reference list (each scenario kind once at its default config), so every
layer reports a figure on every workload; the reference list's share is the
same on every workload and seed.
"""
from __future__ import annotations

import os
import statistics
import time
import weakref
from pathlib import Path

from tracer import Tracer

# The runner's seven scenario kinds, as the operation labels name them.
KINDS = ("gedanken-box", "gedanken-efield", "classical-trajectory", "classical-brackets",
         "quantum-moments", "quantum-bound", "quantum-optimize")
# One FFT and one inverse FFT per spectral derivative, each reading and
# writing every complex128 cell once.
FFT_BYTES_PER_CELL = 2 * 2 * 16
EVOLVE_GRIDS = ((1024, 256, 100.0), (8192, 256, 1000.0))

UNITS = {
    "config.parse_s": "s",
    "runner.glue_s": "s",
    "runner.sweep_overlap": "1",
    "runner.cpu_per_wall": "1",
    **{f"runner.{kind}.run_s": "s" for kind in KINDS},
    "csvio.emit_s": "s",
    "csvio.rows": "count",
    "csvio.row_us": "us",
    "csvio.overwrite_ms": "ms",
    "units.convert_calls": "count",
    "gedanken.calls": "count",
    "gedanken.us_per_call": "us",
    "metric.inverse_metric3.calls": "count",
    "dynamics.integrate_s": "s",
    "dynamics.rk4_steps": "count",
    "dynamics.rk4_step_us": "us",
    "dynamics.rhs_us": "us",
    "dynamics.audit_s": "s",
    "dynamics.total_hamiltonian.calls": "count",
    "brackets.dirac_table_s": "s",
    "brackets.points": "count",
    "brackets.point_ms": "ms",
    "brackets.poisson_bracket.calls": "count",
    "states.gaussian_state_s": "s",
    "states.gaussian_state.calls": "count",
    "states.grid_cells_max": "count",
    "grids.spectral_derivative.calls": "count",
    "grids.fft_cells": "count",
    "grids.fft_bytes_computed": "B",
    "operators.evolve_s": "s",
    "operators.evolve.calls": "count",
    "operators.tau_statistics_s": "s",
    "operators.tau_statistics.calls": "count",
    "operators.commutator_residual_s": "s",
    "operators.ns_per_cell": "ns",
    **{f"operators.evolve_measure_ms.{n_e}x{n_p}": "ms" for n_e, n_p, _ in EVOLVE_GRIDS},
    "moments.tau_moments_simulated.calls": "count",
    "moments.tau_moments_simulated_s": "s",
    "moments.variance_law_predict.calls": "count",
    "moments.variance_law_predict_s": "s",
    "moments.salecker_wigner_check_s": "s",
    "moments.evolve_useful_ratio": "1",
    "search.optimize_s": "s",
    "search.evals": "count",
    "search.eval_ms": "ms",
    "trace.overhead_s": "s",
}


def _first(args: tuple, kwargs: dict):
    return args[0] if args else next(iter(kwargs.values()))


def make_hooks() -> dict:
    """Per-call accounting for the wrappers; fresh state for each traced run."""
    seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def evolve(tracer: Tracer, args, kwargs, result) -> None:
        state = _first(args, kwargs)
        t = args[1] if len(args) > 1 else kwargs["t"]
        tracer.add("operators.evolve.cells", state.values.size)
        times = seen.setdefault(state, set())
        if t > 0.0 and t not in times:
            times.add(t)
            tracer.add("moments.evolve_useful", 1)

    return {
        "operators.evolve": evolve,
        "operators.tau_statistics": lambda tracer, args, kwargs, result: tracer.add(
            "operators.tau_statistics.cells", _first(args, kwargs).values.size),
        "grids.spectral_derivative_array": lambda tracer, args, kwargs, result: tracer.add(
            "grids.fft_cells", _first(args, kwargs).size),
        "states.gaussian_state": lambda tracer, a, k, result: tracer.peak(
            "states.grid_cells_max", result.values.size),
        "csvio.emit_csv": lambda tracer, a, k, result: tracer.add("csvio.rows", result),
        "dynamics.integrate": lambda tracer, a, k, result: tracer.add(
            "dynamics.rk4_steps", len(result) - 1),
        "search.optimize_clock_width": lambda tracer, a, k, result: tracer.add(
            "search.evals", len(result.trace)),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def from_trace(tracer: Tracer) -> dict[str, float]:
    """Layer figures of one traced run."""
    calls, tallies, total = tracer.calls, tracer.tallies, tracer.total
    children = tracer.children()
    op_walls: dict[str, list[float]] = {kind: [] for kind in KINDS}
    glue = 0.0
    swept_wall = swept_inside = 0.0
    for idx, label, swept in tracer.operations:
        op_walls[label].append(tracer.duration(idx))
        glue += tracer.self_time(idx, children)
        if swept:
            swept_wall += tracer.duration(idx)
            swept_inside += sum(tracer.duration(c) for c in children.get(idx, ()))

    gedanken_calls = calls["gedanken.box_uncertainties"] + calls["gedanken.efield_uncertainties"]
    gedanken_s = total("gedanken.box_uncertainties") + total("gedanken.efield_uncertainties")
    emit_s, rows = total("csvio.emit_csv"), tallies["csvio.rows"]
    integrate_s, steps = total("dynamics.integrate"), tallies["dynamics.rk4_steps"]
    dirac_s, points = total("brackets.dirac_table"), calls["brackets.dirac_table"]
    evolve_s, tau_s = total("operators.evolve"), total("operators.tau_statistics")
    optimize_s, evals = total("search.optimize_clock_width"), tallies["search.evals"]
    fft_cells = tallies["grids.fft_cells"]

    out = {
        "config.parse_s": total("config.parse_config"),
        "runner.glue_s": glue,
        "runner.sweep_overlap": _ratio(swept_inside, swept_wall),
    }
    for kind in KINDS:
        walls = op_walls[kind]
        out[f"runner.{kind}.run_s"] = statistics.median(walls) if walls else 0.0
    out.update({
        "csvio.emit_s": emit_s,
        "csvio.rows": rows,
        "csvio.row_us": 1e6 * _ratio(emit_s, rows),
        "units.convert_calls": calls["units.convert_units"],
        "gedanken.calls": gedanken_calls,
        "gedanken.us_per_call": 1e6 * _ratio(gedanken_s, gedanken_calls),
        "metric.inverse_metric3.calls": calls["metric.inverse_metric3"],
        "dynamics.integrate_s": integrate_s,
        "dynamics.rk4_steps": steps,
        "dynamics.rk4_step_us": 1e6 * _ratio(integrate_s, steps),
        "dynamics.audit_s": (total("dynamics.constraint_drift")
                             + total("dynamics.conservation_drift")
                             + total("dynamics.proper_time_residual")),
        "dynamics.total_hamiltonian.calls": calls["dynamics.total_hamiltonian"],
        "brackets.dirac_table_s": dirac_s,
        "brackets.points": points,
        "brackets.point_ms": 1e3 * _ratio(dirac_s, points),
        "brackets.poisson_bracket.calls": calls["brackets.poisson_bracket"],
        "states.gaussian_state_s": total("states.gaussian_state"),
        "states.gaussian_state.calls": calls["states.gaussian_state"],
        "states.grid_cells_max": tallies["states.grid_cells_max"],
        "grids.spectral_derivative.calls": calls["grids.spectral_derivative_array"],
        "grids.fft_cells": fft_cells,
        "grids.fft_bytes_computed": FFT_BYTES_PER_CELL * fft_cells,
        "operators.evolve_s": evolve_s,
        "operators.evolve.calls": calls["operators.evolve"],
        "operators.tau_statistics_s": tau_s,
        "operators.tau_statistics.calls": calls["operators.tau_statistics"],
        "operators.commutator_residual_s": total("operators.commutator_residual"),
        "operators.ns_per_cell": 1e9 * _ratio(
            evolve_s + tau_s,
            tallies["operators.evolve.cells"] + tallies["operators.tau_statistics.cells"]),
        "moments.tau_moments_simulated.calls": calls["moments.tau_moments_simulated"],
        "moments.tau_moments_simulated_s": total("moments.tau_moments_simulated"),
        "moments.variance_law_predict.calls": calls["moments.variance_law_predict"],
        "moments.variance_law_predict_s": total("moments.variance_law_predict"),
        "moments.salecker_wigner_check_s": total("moments.salecker_wigner_check"),
        "moments.evolve_useful_ratio": _ratio(tallies["moments.evolve_useful"],
                                              calls["operators.evolve"]),
        "search.optimize_s": optimize_s,
        "search.evals": evals,
        "search.eval_ms": 1e3 * _ratio(optimize_s, evals),
    })
    return out


def _median_time(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def micro_timings() -> dict[str, float]:
    """Fixed-size timings, independent of the workload: one Hamilton
    right-hand side, and evolve plus tau_statistics at two grid sizes."""
    from clocklab.dynamics import hamilton_rhs, moving_clock
    from clocklab.metric import uniform_lapse_metric
    from clocklab.operators import evolve, tau_statistics
    from clocklab.states import GaussianClockSpec, make_gaussian_state, suggest_grids

    metric = uniform_lapse_metric(0.05)
    point = moving_clock(1.0, (0.3, 0.0, 0.0), x=(1.0, 0.0, 0.0))
    batch = 2000

    def rhs_batch() -> None:
        for _ in range(batch):
            hamilton_rhs(point, metric)

    out = {"dynamics.rhs_us": 1e6 * _median_time(rhs_batch, 5) / batch}
    spec = GaussianClockSpec(e0=10.0, sigma_e=0.5, sigma_p=0.5)
    for n_e, n_p, t in EVOLVE_GRIDS:
        state = make_gaussian_state(spec, *suggest_grids(spec, n_e=n_e, n_p=n_p))
        if state.values.shape != (n_e, n_p):
            raise RuntimeError(f"grid sizing moved: {state.values.shape} for {n_e}x{n_p}")
        out[f"operators.evolve_measure_ms.{n_e}x{n_p}"] = 1e3 * _median_time(
            lambda: tau_statistics(evolve(state, t)), 5)
    return out


def overwrite_ms(workdir: Path, reps: int = 3) -> float:
    """Time to open for writing a trajectory-sized output path that has
    already been written twice, as on a third run to the same path.  The
    second write truncated the file, so the file system starts writing the
    new contents back when it is closed, and the third open waits for that."""
    payload = b"0.00000000000000e+00," * 150_000
    samples = []
    for i in range(reps):
        path = workdir / f"overwrite-{i}.csv"
        path.write_bytes(payload)
        path.write_bytes(payload)
        t0 = time.perf_counter()
        with open(path, "w"):
            pass
        samples.append(time.perf_counter() - t0)
        os.unlink(path)
    return 1e3 * statistics.median(samples)
