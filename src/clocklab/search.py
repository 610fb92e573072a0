"""Golden-section search and the clock-width optimizer.

The optimizer scans the rest-energy spread sigma_e of a Gaussian clock on a
log axis and minimizes the simulated variance of the reading at a fixed
coordinate time, reporting the minimum next to the clock bound hbar t/<H>.
Each trial state is built on freshly sized grids so long evolutions stay
resolved.  The code runs at hbar = c = 1; the formulas keep the symbols.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

from .moments import state_moments, tau_moments_simulated
from .operators import check_tip_clearance
from .states import GaussianClockSpec, gaussian_state

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
LOG_TOL = 5e-3  # the width of the final log sigma_e bracket


class OptimizerBracketError(RuntimeError):
    """The minimum sits at a bracket edge; the search interval is wrong.

    ``sigma_e`` is the width the search stopped at and ``bounds`` the
    (lo, hi) bracket it searched.
    """

    def __init__(self, sigma_e: float, bounds: tuple[float, float]):
        self.sigma_e = sigma_e
        self.bounds = bounds
        super().__init__(
            f"variance minimum sits at the bracket edge (sigma_e = {sigma_e:.4g}); "
            "widen the bracket")


def golden_section_min(fn: Callable[[float], float], lo: float, hi: float,
                       tol: float = 1e-3) -> tuple[float, float, int]:
    """Minimize a unimodal function on [lo, hi], in at most 200 shrinking
    steps; returns (x, fn(x), n_evals)."""
    if hi <= lo:
        raise ValueError("need lo < hi")
    a, b = lo, hi
    h = b - a
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = fn(c), fn(d)
    evals = 2
    for _ in range(200):
        if h <= tol:
            break
        if yc < yd:
            b, d, yd = d, c, yc
            h = b - a
            c = a + _INV_PHI2 * h
            yc = fn(c)
        else:
            a, c, yc = c, d, yd
            h = b - a
            d = a + _INV_PHI * h
            yd = fn(d)
        evals += 1
    x = c if yc < yd else d
    y = min(yc, yd)
    return x, y, evals


@dataclass(frozen=True)
class ClockWidthResult:
    sigma_e_opt: float
    min_var: float
    bound: float
    energy_scale: float
    sharpness: float
    n_evals: int
    trace: tuple[tuple[float, float], ...]
    grid_sizes: tuple[int, int]  # largest (n_e, n_p) over the evaluated states
    timings: dict[str, float]    # build_s, moments_s and read_s, summed over the states


def optimize_clock_width(e0: float, p0: float, sigma_p: float, t: float,
                         sigma_bounds: tuple[float, float] | None = None,
                         n_e: int = 8, n_p: int = 8) -> ClockWidthResult:
    """Minimize the simulated reading variance at time t over sigma_e.

    The default bracket spans a factor of ten either side of the
    sharp-energy estimate sqrt(hbar <H> / (2 t)) of the best width.  A trial
    state whose support reaches the cone tip raises TipClearanceError.
    """
    if t <= 0.0:
        raise ValueError("need t > 0")
    if sigma_bounds is None:
        center = math.sqrt(math.hypot(e0, p0) / (2.0 * t))
        sigma_bounds = (center / 10.0, center * 10.0)
    lo, hi = sigma_bounds
    if not (0.0 < lo < hi):
        raise ValueError("sigma bounds must satisfy 0 < lo < hi")

    trace: list[tuple[float, float]] = []
    grid_sizes = (n_e, n_p)
    timings = dict.fromkeys(("build_s", "moments_s", "read_s"), 0.0)

    def timed(phase: str, fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        timings[phase] += time.perf_counter() - start
        return result

    def build(sigma_e: float):
        spec = GaussianClockSpec(e0=e0, sigma_e=sigma_e, p0=p0, sigma_p=sigma_p)
        return timed("build_s", gaussian_state, spec, t_max=t, n_e=n_e, n_p=n_p)

    def var_at(log_sigma: float) -> float:
        nonlocal grid_sizes
        sigma_e = math.exp(log_sigma)
        state = build(sigma_e)
        check_tip_clearance(state)
        grid_sizes = (max(grid_sizes[0], state.e_grid.n), max(grid_sizes[1], state.p_grid.n))
        var = timed("read_s", tau_moments_simulated, state, t).var_tau
        trace.append((sigma_e, var))
        return var

    log_lo, log_hi = math.log(lo), math.log(hi)
    log_opt, min_var, evals = golden_section_min(var_at, log_lo, log_hi, tol=LOG_TOL)
    span = log_hi - log_lo
    if min(log_opt - log_lo, log_hi - log_opt) < 0.02 * span:
        raise OptimizerBracketError(math.exp(log_opt), (lo, hi))
    sigma_opt = math.exp(log_opt)
    best = timed("moments_s", state_moments, build(sigma_opt))
    return ClockWidthResult(
        sigma_e_opt=sigma_opt,
        min_var=min_var,
        bound=best.clock_bound(t),
        energy_scale=best.h_mean,
        sharpness=best.sharpness,
        n_evals=evals,
        trace=tuple(trace),
        grid_sizes=grid_sizes,
        timings=timings,
    )
