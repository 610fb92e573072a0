"""Proper-time statistics of evolved clock states.

The reading of the clock after coordinate time t is governed exactly by
tau(t) = D t + tau with D the dilation-rate observable, so its variance is
the quadratic

    var_tau(t) = quad t^2 + lin t + const,
    quad  = <D^2> - <D>^2,
    lin   = <[D, tau]_+> - 2 <D> <tau>,
    const = <tau^2> - <tau>^2.

``tau_moments_simulated`` measures the left side by evolving the state and
``variance_law_predict`` computes the coefficients at t = 0; agreement of
the two independent routes is one of the main self-checks of this module.

Readings are taken in a frame that moves with the clock.  The evolved state
is translated in tau by -t v with the E-only phase exp(+i t v E / hbar),
where v = ``states.frame_velocity`` is the dilation rate at the centre node
of the grids; the frame mean plus t v is the lab-frame mean, and the
variance is the same in every frame.  The proper-time window of the E grid
then has to hold only the residual drift t (D - v), not the whole drift
t D, so ``suggest_grids`` keeps the E grid small at long times.  v is a
property of the grids, not an expectation of the state, so the runner's
``mean_linearity`` check against <D> stays independent of the frame.  Each
reading carries the share of it that lies near the edge of the window
(``TauMoments.tau_window``).

The sharp-energy approximation replaces D by E / <H>; its quality is
reported, not assumed.  The clock bound var_tau(t) >= hbar t / <H> is that
approximation's estimate, not a consequence of the exact law: it holds
where dD/dE ~ 1/<H>, as for strongly boosted clocks.  A clock at rest has D
pinned near 1 whatever its energy spread, so a sharp rest clock
(sigma_e = 0.5, sigma_p = 0.05, t = 100: var = 1.0 < 10) falls below it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (
    _diagonal_expectation,
    dilation_multiplier,
    energy_multiplier,
    evolve,
    tau_statistics,
)
from .states import MomentumSpaceState, frame_velocity

DISCRIMINANT_TOL = 1e-8
SLOW_CLOCK_MOMENTUM_FRACTION = 0.01


@dataclass(frozen=True)
class TauMoments:
    t: float
    mean_tau: float
    var_tau: float
    tau_window: float  # share of the reading in the outer band of the tau window

    def __post_init__(self) -> None:
        if self.var_tau < -1e-12:
            raise ValueError("variance must be nonnegative")


@dataclass(frozen=True)
class VarianceLawCoefficients:
    quad: float
    lin: float
    const: float

    def __post_init__(self) -> None:
        if self.quad < -1e-12 or self.const < -1e-12:
            raise ValueError("quad and const must be nonnegative")
        if self.lin**2 > 4.0 * max(self.quad, 0.0) * max(self.const, 0.0) + DISCRIMINANT_TOL:
            raise ValueError("cross coefficient violates the Cauchy-Schwarz bound")

    def predict(self, t: float) -> float:
        return self.quad * t * t + self.lin * t + self.const


@dataclass(frozen=True)
class PeakedApproximationReport:
    exact_quad: float
    approx_quad: float
    exact_lin: float
    approx_lin: float
    sharpness: float
    energy_scale: float


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    satisfied: bool
    margin: float
    rhs_rest_energy: float
    slow_clock: bool
    sharpness: float
    reading: TauMoments  # the simulated reading at t; lhs is its variance


@dataclass(frozen=True)
class UncertaintyProduct:
    d_tau: float
    d_e: float
    d_m: float
    product: float
    lower: float


def tau_moments_simulated(state: MomentumSpaceState, t: float,
                          strict: bool = False) -> TauMoments:
    """Evolve to coordinate time t, then measure the clock reading in the
    co-moving frame and return it in the lab frame.  A reading that reaches
    the edge of the proper-time window warns, or raises AliasingError under
    ``strict``."""
    evolved = evolve(state, t)
    shift = t * frame_velocity(state)
    if shift != 0.0:
        evolved = evolved.rephased(
            np.exp((1j * shift / state.units.hbar) * state.e_grid.nodes)[:, None])
    stats = tau_statistics(evolved, strict=strict)
    return TauMoments(t=t, mean_tau=stats.mean + shift,
                      var_tau=stats.second - stats.mean * stats.mean,
                      tau_window=stats.window)


def variance_law_predict(state: MomentumSpaceState) -> VarianceLawCoefficients:
    """Coefficients of the exact quadratic variance growth, from t = 0 data."""
    d = dilation_multiplier(state)
    d_mean = _diagonal_expectation(state, d)
    tau_mean, tau_sq, tpsi, _ = tau_statistics(state)
    anti = 2.0 * float((np.conj(d * state.values) * tpsi).sum().real * state.cell_measure())
    return VarianceLawCoefficients(
        # centred: <D^2> - <D>^2 loses every digit of Var D below 1e-16 when
        # D is pinned near 1, as for a clock at rest
        quad=_diagonal_expectation(state, (d - d_mean) ** 2),
        lin=anti - 2.0 * d_mean * tau_mean,
        const=tau_sq - tau_mean**2,
    )


def energy_sharpness(state: MomentumSpaceState) -> tuple[float, float]:
    """(<H>, dH/<H>) for the total-energy multiplier."""
    h = energy_multiplier(state)
    h_mean = _diagonal_expectation(state, h)
    h_var = _diagonal_expectation(state, h * h) - h_mean**2
    if h_mean <= 0.0:
        raise ValueError("total energy expectation must be positive")
    return h_mean, math.sqrt(max(h_var, 0.0)) / h_mean


def peaked_approximation_report(state: MomentumSpaceState) -> PeakedApproximationReport:
    """Exact variance-growth coefficients next to their sharp-energy
    estimates quad ~ (dE)^2/EE^2 and lin ~ (<[E,tau]_+> - 2<E><tau>)/EE,
    with EE = <H>.  The sharpness dH/<H> governs how far to trust them."""
    coeffs = variance_law_predict(state)
    e_scale, sharp = energy_sharpness(state)
    E = state.e_grid.nodes[:, None]
    e_mean = _diagonal_expectation(state, E)
    e2_mean = _diagonal_expectation(state, E * E)
    tau_mean, _, tpsi, _ = tau_statistics(state)
    anti_e = 2.0 * float((np.conj(E * state.values) * tpsi).sum().real * state.cell_measure())
    return PeakedApproximationReport(
        exact_quad=coeffs.quad,
        approx_quad=(e2_mean - e_mean**2) / e_scale**2,
        exact_lin=coeffs.lin,
        approx_lin=(anti_e - 2.0 * e_mean * tau_mean) / e_scale,
        sharpness=sharp,
        energy_scale=e_scale,
    )


def salecker_wigner_check(state: MomentumSpaceState, t: float) -> BoundCheck:
    """Compare the simulated variance of the reading at time t against the
    clock bound hbar t / <H>; for slow clocks the bound is also reported in
    its rest-energy form hbar t / <E>."""
    if t <= 0.0:
        raise ValueError("the bound applies for t > 0")
    e_scale, sharp = energy_sharpness(state)
    reading = tau_moments_simulated(state, t)
    lhs = reading.var_tau
    hbar = state.units.hbar
    rhs = hbar * t / e_scale
    E = state.e_grid.nodes[:, None]
    P = state.p_grid.nodes[None, :]
    e_mean = _diagonal_expectation(state, E)
    p2c2 = _diagonal_expectation(state, (state.units.c * P) ** 2)
    slow = p2c2 < SLOW_CLOCK_MOMENTUM_FRACTION * e_mean**2
    rhs_rest = hbar * t / e_mean if e_mean > 0.0 else math.inf
    return BoundCheck(lhs=lhs, rhs=rhs, satisfied=lhs >= rhs, margin=lhs - rhs,
                      rhs_rest_energy=rhs_rest, slow_clock=bool(slow), sharpness=sharp,
                      reading=reading)


def uncertainty_product(state: MomentumSpaceState) -> UncertaintyProduct:
    """Spread product d_tau * d_E against its floor hbar/2."""
    tau_mean, tau_sq, _, _ = tau_statistics(state)
    d_tau = math.sqrt(max(tau_sq - tau_mean**2, 0.0))
    E = state.e_grid.nodes[:, None]
    e_mean = _diagonal_expectation(state, E)
    e2_mean = _diagonal_expectation(state, E * E)
    d_e = math.sqrt(max(e2_mean - e_mean**2, 0.0))
    c = state.units.c
    return UncertaintyProduct(d_tau=d_tau, d_e=d_e, d_m=d_e / c**2,
                              product=d_tau * d_e, lower=0.5 * state.units.hbar)
