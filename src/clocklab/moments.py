"""Proper-time statistics of evolved clock states.

The reading of the clock after coordinate time t is governed exactly by
tau(t) = D t + tau with D the dilation-rate observable, so its variance is
the quadratic

    var_tau(t) = quad t^2 + lin t + const,
    quad  = <D^2> - <D>^2,
    lin   = <[D, tau]_+> - 2 <D> <tau>,
    const = <tau^2> - <tau>^2.

``tau_moments_simulated`` measures the left side by evolving the state;
``state_moments`` takes the coefficients from t = 0 data, and agreement of
the two routes is one of the main self-checks of this module.  It is the
one place where a state's t = 0 statistics are taken, from one |psi|^2,
one E, H and D multiplier each and one tau psi, into a frozen
``StateMoments`` record; the bound check and the peaked-energy report are
arithmetic on that record.  The code runs at hbar = c = 1; the formulas
keep the symbols.

As in ``operators``, the kernels write only into arrays that the same call
allocated, never into the state's values: ``state_moments`` takes each
anti-commutator in one buffer and every diagonal mean in one reused
buffer, and ``tau_moments_simulated`` multiplies the frame shift into the
array that ``evolve`` allocated for it.

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

from .operators import _axes, dilation_multiplier, energy_multiplier, evolve, tau_statistics
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


@dataclass(frozen=True)
class BoundCheck:
    lhs: float
    rhs: float
    satisfied: bool
    margin: float
    rhs_rest_energy: float
    slow_clock: bool
    sharpness: float


@dataclass(frozen=True)
class StateMoments:
    """Every t = 0 statistic of one state.  ``law`` and ``d_mean`` need the
    dilation rate D: where the support reaches the cone tip, D is undefined
    and reading them raises the tip-clearance ValueError."""

    reading: TauMoments            # the reading at t = 0
    dilation: tuple[VarianceLawCoefficients, float] | str  # (law, <D>), or why D is undefined
    e_mean: float                  # <E>
    e_var: float                   # <E^2> - <E>^2
    e_lin: float                   # <[E, tau]_+> - 2 <E> <tau>
    h_mean: float                  # <H>, the energy scale of the clock bound
    sharpness: float               # dH / <H>
    p2c2: float                    # <c^2 p^2>
    d_e: float
    d_m: float                     # d_e / c^2
    spread_product: float          # d_tau d_E, at least spread_floor = hbar / 2
    spread_floor: float

    def _dilation(self) -> tuple[VarianceLawCoefficients, float]:
        if isinstance(self.dilation, str):
            raise ValueError(self.dilation)
        return self.dilation

    @property
    def law(self) -> VarianceLawCoefficients:
        return self._dilation()[0]

    @property
    def d_mean(self) -> float:
        return self._dilation()[1]


def tau_moments_simulated(state: MomentumSpaceState, t: float,
                          strict: bool = False) -> TauMoments:
    """Evolve to coordinate time t, then measure the clock reading in the
    co-moving frame and return it in the lab frame.  A reading that reaches
    the edge of the proper-time window warns, or raises AliasingError under
    ``strict``."""
    evolved = evolve(state, t)
    shift = t * frame_velocity(state)
    if shift != 0.0:  # so t != 0, and evolve allocated evolved's values
        np.multiply(np.exp((1j * shift) * state.e_grid.nodes)[:, None], evolved.values,
                    out=evolved.values)
    stats = tau_statistics(evolved, strict=strict)
    return TauMoments(t=t, mean_tau=stats.mean + shift,
                      var_tau=stats.second - stats.mean * stats.mean,
                      tau_window=stats.window)


def state_moments(state: MomentumSpaceState) -> StateMoments:
    """The t = 0 statistics of a state: its reading, the coefficients of
    the exact variance law, and the E, H, D and c^2 p^2 moments they and
    the clock bound rest on."""
    try:
        d = dilation_multiplier(state)
    except ValueError as err:  # the support reaches the cone tip
        d, dilation = None, str(err)
    E, P = _axes(state)
    cell = state.cell_measure()
    tau_mean, tau_second, tpsi, window = tau_statistics(state)

    def anti(mult: np.ndarray) -> float:
        """<[mult, tau]_+> of a real diagonal multiplier."""
        prod = mult * state.values
        np.conj(prod, out=prod)
        prod *= tpsi
        return 2.0 * float(prod.sum().real * cell)

    # tau psi and the complex temporaries come and go before |psi|^2 and H
    # exist, which keeps the memory peak, and the pages faulted back after
    # each trim of the heap, low
    anti_e = anti(E)
    anti_d = None if d is None else anti(d)
    del tpsi
    rho = state.density()
    weighted = np.empty_like(rho)

    def mean(mult: np.ndarray) -> float:
        return float(np.multiply(mult, rho, out=weighted).sum() * cell)

    const = tau_second - tau_mean**2
    if d is not None:
        d_mean = mean(d)
        # centred: <D^2> - <D>^2 loses every digit of Var D below 1e-16
        # when D is pinned near 1, as for a clock at rest
        d -= d_mean
        dilation = (VarianceLawCoefficients(
            quad=mean(np.square(d, out=d)),
            lin=anti_d - 2.0 * d_mean * tau_mean,
            const=const,
        ), d_mean)
    del d  # before H exists, for the same reason
    h = energy_multiplier(state)
    e_mean = mean(E)
    e_var = mean(E * E) - e_mean**2
    h_mean = mean(h)
    h_spread = math.sqrt(max(mean(np.square(h, out=h)) - h_mean**2, 0.0))
    d_e = math.sqrt(max(e_var, 0.0))
    return StateMoments(
        # the shift is signed as tau_moments_simulated signs it at t = 0
        reading=TauMoments(t=0.0, mean_tau=tau_mean + 0.0 * frame_velocity(state),
                           var_tau=tau_second - tau_mean * tau_mean,
                           tau_window=window),
        dilation=dilation,
        e_mean=e_mean,
        e_var=e_var,
        e_lin=anti_e - 2.0 * e_mean * tau_mean,
        h_mean=h_mean,
        sharpness=h_spread / h_mean,
        p2c2=mean(P**2),
        d_e=d_e,
        d_m=d_e,
        spread_product=math.sqrt(max(const, 0.0)) * d_e,
        spread_floor=0.5,
    )


def peaked_approximation_report(moments: StateMoments) -> PeakedApproximationReport:
    """Exact variance-growth coefficients next to their sharp-energy
    estimates quad ~ (dE)^2/EE^2 and lin ~ (<[E,tau]_+> - 2<E><tau>)/EE,
    with EE = <H>.  The sharpness dH/<H> governs how far to trust them."""
    return PeakedApproximationReport(
        exact_quad=moments.law.quad,
        approx_quad=moments.e_var / moments.h_mean**2,
        exact_lin=moments.law.lin,
        approx_lin=moments.e_lin / moments.h_mean,
        sharpness=moments.sharpness,
    )


def salecker_wigner_check(moments: StateMoments, reading: TauMoments) -> BoundCheck:
    """Compare the simulated variance of a reading at time t > 0 against the
    clock bound hbar t / <H> of the state it was evolved from; for slow
    clocks the bound is also reported in its rest-energy form hbar t / <E>."""
    t = reading.t
    if t <= 0.0:
        raise ValueError("the bound applies for t > 0")
    lhs = reading.var_tau
    rhs = t / moments.h_mean
    slow = moments.p2c2 < SLOW_CLOCK_MOMENTUM_FRACTION * moments.e_mean**2
    rhs_rest = t / moments.e_mean if moments.e_mean > 0.0 else math.inf
    return BoundCheck(lhs=lhs, rhs=rhs, satisfied=lhs >= rhs, margin=lhs - rhs,
                      rhs_rest_energy=rhs_rest, slow_clock=bool(slow),
                      sharpness=moments.sharpness)
