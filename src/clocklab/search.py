"""Golden-section search and the clock-width optimizer.

The optimizer scans the rest-energy spread sigma_e of a clock on a log axis
and minimizes a reading variance at a fixed coordinate time that the caller
supplies as a function of sigma_e.  It builds no state: the runner builds,
times and refuses each trial state (``runner._clock_state``) and reads the
clock bound hbar t/<H> from the best one.  The code runs at hbar = c = 1;
the formulas keep the symbols.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0
LOG_TOL = 5e-3  # the width of the final log sigma_e bracket


class OptimizerBracketError(RuntimeError):
    """The minimum sits at a bracket edge; the search interval is wrong.

    ``sigma_e`` is the width the search stopped at and ``edge`` the end of
    the bracket it sits at, "lo" or "hi".
    """

    def __init__(self, sigma_e: float, edge: str):
        self.sigma_e = sigma_e
        self.edge = edge
        super().__init__(
            f"variance minimum sits at the bracket edge (sigma_e = {sigma_e:.4g}); "
            "widen the bracket")


def golden_section_min(fn: Callable[[float], float], lo: float, hi: float,
                       tol: float = 1e-3) -> tuple[float, float]:
    """Minimize a unimodal function on [lo, hi], in at most 200 shrinking
    steps; returns (x, fn(x))."""
    if hi <= lo:
        raise ValueError("need lo < hi")
    a, b = lo, hi
    h = b - a
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = fn(c), fn(d)
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
    x = c if yc < yd else d
    y = min(yc, yd)
    return x, y


@dataclass(frozen=True)
class ClockWidthResult:
    sigma_e_opt: float
    min_var: float
    trace: tuple[tuple[float, float], ...]  # (sigma_e, variance) of each evaluation, in order


def default_bracket(e0: float, p0: float, t: float) -> tuple[float, float]:
    """A factor of ten either side of the sharp-energy estimate
    sqrt(hbar <H> / (2 t)) of the best width, <H> taken as |(e0, p0)|.
    Extreme inputs round an end to 0 or inf, which the caller refuses."""
    if t <= 0.0:
        raise ValueError("need t > 0")
    center = math.sqrt(math.hypot(e0, p0) / (2.0 * t))
    return center / 10.0, center * 10.0


def optimize_clock_width(var_at: Callable[[float], float],
                         sigma_bounds: tuple[float, float]) -> ClockWidthResult:
    """Minimize the reading variance ``var_at(sigma_e)`` over sigma_e in
    ``sigma_bounds``, by golden section on log sigma_e.  A minimum within
    2% of the log bracket's span of an edge raises OptimizerBracketError."""
    lo, hi = sigma_bounds
    if not 0.0 < lo < hi < math.inf:
        raise ValueError("sigma bounds must satisfy 0 < lo < hi < inf")
    trace: list[tuple[float, float]] = []

    def var_at_log(log_sigma: float) -> float:
        sigma_e = math.exp(log_sigma)
        var = var_at(sigma_e)
        trace.append((sigma_e, var))
        return var

    log_lo, log_hi = math.log(lo), math.log(hi)
    log_opt, min_var = golden_section_min(var_at_log, log_lo, log_hi, tol=LOG_TOL)
    below, above = log_opt - log_lo, log_hi - log_opt
    if min(below, above) < 0.02 * (log_hi - log_lo):
        raise OptimizerBracketError(math.exp(log_opt), "lo" if below < above else "hi")
    return ClockWidthResult(sigma_e_opt=math.exp(log_opt), min_var=min_var, trace=tuple(trace))
