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
one E, H and D multiplier each and one transform pair along E, into a
frozen ``StateMoments`` record; the clock bound is arithmetic on that
record (``StateMoments.clock_bound``).  The spread product d_tau d_E it
carries is at least ``SPREAD_FLOOR`` = hbar / 2.  The code runs at
hbar = c = 1; the formulas keep the symbols.

A reading takes one forward transform along E and no inverse: <tau> and
<tau^2> are Parseval sums over the spectrum (``operators.tau_statistics``).
``state_moments`` alone turns that same spectrum into tau psi, with one
inverse, for the cross term <[D, tau]_+>.

As in ``operators``, the kernels write only into arrays that the same call
allocated, never into the state's values: ``state_moments`` forms tau psi
in the spectrum ``tau_statistics`` allocated and takes the anti-commutator
in one buffer, every diagonal mean in one reused buffer
and the centred D and H spreads in the buffers of their multipliers, and
``tau_moments_simulated`` multiplies the frame shift into the array that
``evolve`` allocated for it.

Readings are taken in a frame that moves with the clock.  The evolved state
is translated in tau by -t v with the E-only phase exp(+i t v E / hbar),
where v = ``states.frame_velocity`` is the dilation rate at the centre of
the state's axes, (e0, p0) for suggested ones; the frame mean plus t v is
the lab-frame mean, and the variance is the same in every frame.  The
proper-time window of the E grid then has to hold only the residual drift
t (D - v), not the whole drift t D, so ``suggest_grids`` keeps the E grid
small at long times.  v is a property of the grids, not an expectation of
the state, so the runner's ``mean_linearity`` check against <D> stays
independent of the frame.  Each reading carries the share of it that lies
near the edge of the window (``TauMoments.tau_window``).

The evolved state lacks the p-only phase exp(-i t H_c(p) / hbar) that
``operators.evolve`` drops; no statistic here sees it, since each is
diagonal in p or a transform along E.  The p axis is a quadrature whose
weights the state's values carry (``states``), so every mean below is a
plain sum over the grid array times the E step.

The sharp-energy approximation replaces D by E / <H>; its quality, the
sharpness dH / <H>, is reported, not assumed.  The clock bound
var_tau(t) >= hbar t / <H> is that approximation's estimate, not a
consequence of the exact law: it holds where dD/dE ~ 1/<H>, as for
strongly boosted clocks.  A clock at rest has D pinned near 1 whatever its
energy spread, so a sharp rest clock (sigma_e = 0.5, sigma_p = 0.05,
t = 100: var = 1.0 < 10) falls below it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import wavenumbers
from .operators import _axes, dilation_multiplier, energy_multiplier, evolve, tau_statistics
from .states import MomentumSpaceState, frame_velocity

DISCRIMINANT_TOL = 1e-8
SPREAD_FLOOR = 0.5  # hbar / 2, the least d_tau d_E of any state


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
class StateMoments:
    """Every t = 0 statistic of one state.  ``law`` and ``d_mean`` need the
    dilation rate D: where the support reaches the cone tip, D is undefined
    and reading them raises the tip-clearance ValueError."""

    reading: TauMoments            # the reading at t = 0
    dilation: tuple[VarianceLawCoefficients, float] | str  # (law, <D>), or why D is undefined
    e_mean: float                  # <E>
    e_var: float                   # <(E - <E>)^2>
    h_mean: float                  # <H>, the energy scale of the clock bound
    sharpness: float               # dH / <H>
    d_e: float
    spread_product: float          # d_tau d_E, at least SPREAD_FLOOR

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

    def clock_bound(self, t: float) -> float:
        """The clock bound hbar t / <H> on the variance of a reading at time t > 0."""
        if t <= 0.0:
            raise ValueError("the bound applies for t > 0")
        return t / self.h_mean


def tau_moments_simulated(state: MomentumSpaceState, t: float) -> TauMoments:
    """Evolve to coordinate time t, then measure the clock reading in the
    co-moving frame and return it in the lab frame.  A reading that reaches
    the edge of the proper-time window warns."""
    evolved = evolve(state, t)
    shift = t * frame_velocity(state)
    if shift != 0.0:  # so t != 0, and evolve allocated evolved's values
        np.multiply(np.exp((1j * shift) * state.e_grid.nodes)[:, None], evolved.values,
                    out=evolved.values)
    stats = tau_statistics(evolved)
    return TauMoments(t=t, mean_tau=stats.mean + shift,
                      var_tau=stats.second - stats.mean * stats.mean,
                      tau_window=stats.window)


def state_moments(state: MomentumSpaceState) -> StateMoments:
    """The t = 0 statistics of a state: its reading, the coefficients of
    the exact variance law, and the E, H and D moments they and the clock
    bound rest on."""
    try:
        d = dilation_multiplier(state)
    except ValueError as err:  # the support reaches the cone tip
        d, dilation = None, str(err)
    E, _ = _axes(state)
    cell = state.cell_measure()
    tau_mean, tau_second, spec, window = tau_statistics(state)
    # tau psi and the complex temporary of <[D, tau]_+> come and go before
    # H exists, which keeps the memory peak, and the pages faulted back
    # after each trim of the heap, low (|psi|^2 is the state's, from its build)
    if d is not None:
        # D is measured from the frame rate v: lin = <[D - v, tau]_+> -
        # 2 <D - v> <tau>, whose rounding scales with |D - v|, not with |D|
        # (about 1e-20 against 1e-17 for a clock at rest, where D ~ v ~ 1)
        v = frame_velocity(state)
        d -= v
        # tau acts as -hbar k on the spectrum; tau psi is its one inverse
        spec *= -wavenumbers(state.e_grid)[:, None]
        tpsi = np.fft.ifft(spec, axis=0, out=spec)
        prod = d * state.values
        np.conj(prod, out=prod)
        prod *= tpsi
        anti_d = 2.0 * float(prod.sum().real * cell)
        del prod, tpsi
    del spec
    rho = state.density()
    weighted = np.empty_like(rho)

    def mean(mult: np.ndarray) -> float:
        return float(np.multiply(mult, rho, out=weighted).sum() * cell)

    const = tau_second - tau_mean**2
    if d is not None:
        d_offset = mean(d)  # <D> - v
        # centred: <D^2> - <D>^2 loses every digit of Var D below 1e-16
        # when D is pinned near 1, as for a clock at rest
        d -= d_offset
        dilation = (VarianceLawCoefficients(
            quad=mean(np.square(d, out=d)),
            lin=anti_d - 2.0 * d_offset * tau_mean,
            const=const,
        ), v + d_offset)
    del d  # before H exists, for the same reason
    h = energy_multiplier(state)
    # E and H are centred as D is: <X^2> - <X>^2 cancels the digits of a
    # narrow spread about a large mean (about nine of dH for a boosted clock)
    e_mean = mean(E)
    e_var = mean((E - e_mean) ** 2)
    h_mean = mean(h)
    h -= h_mean
    h_spread = math.sqrt(mean(np.square(h, out=h)))
    d_e = math.sqrt(e_var)
    return StateMoments(
        # the shift is signed as tau_moments_simulated signs it at t = 0
        reading=TauMoments(t=0.0, mean_tau=tau_mean + 0.0 * frame_velocity(state),
                           var_tau=tau_second - tau_mean * tau_mean,
                           tau_window=window),
        dilation=dilation,
        e_mean=e_mean,
        e_var=e_var,
        h_mean=h_mean,
        sharpness=h_spread / h_mean,
        d_e=d_e,
        spread_product=math.sqrt(max(const, 0.0)) * d_e,
    )

