"""Operators on momentum-space clock states.

E and p act by multiplication; the total-energy generator is the diagonal
multiplier sqrt(E^2 + c^2 p^2) so time evolution is an exact pointwise
phase, taken relative to the energy H_c(p) at the E grid's centre node
(``evolve``).  A p axis is quadrature nodes whose weights the state's
values carry (``states``), so every kernel reads a state as a grid array
whose cell is the E step.  The proper-time operator is the spectral
derivative i*hbar d/dE, fixed by the canonical commutator [tau, E] =
i*hbar.  The dilation-rate observable D = E / sqrt(E^2 + c^2 p^2) is the
operator form of the inverse Lorentz factor and is singular at the cone tip
E = p = 0, so states must keep clear of it.  This module supplies the multipliers, the evolution and
the tau transform; expectation values of a state are taken in one place,
``moments.state_moments``.

Every grid array here is E-contiguous (Fortran order), as state values
are, so no arithmetic mixes memory orders and the transform along E runs on
contiguous columns.  A reading is one forward transform along E: <tau> and
<tau^2> are the sums -(cell/n) sum k P(k) and (cell/n) sum k^2 P(k) over its
per-wavenumber power P(k) (Parseval's theorem; tau acts as -hbar k on the
spectrum), so <tau> is real by construction and no inverse is taken.

The E step fixes a periodic proper-time window |tau| < pi hbar / dE.  A
reading whose tau content reaches the window edge wraps around it and comes
out wrong with no other symptom, since |psi(E)| is unchanged by evolution;
``tau_statistics`` therefore reports the share of P(k) in the outer
``TAU_EDGE_BAND`` of the window, from the same transform, and warns with
``NumericalHealthWarning`` above ``TAU_WINDOW_LIMIT``.

Two rules hold for every kernel here and in ``moments``.  A kernel writes
only into arrays that the same call allocated (its own buffers, or fresh
results of the helpers it called), never into an argument or a built
state's values; so a multi-step expression runs in one buffer and does not
fault in a new temporary for each step.  And ``evolve`` takes the phase as
cos and sin of -t(H - H_c) written into the two halves of one complex
buffer, which is bitwise equal to exp(-it(H - H_c)) as np.exp takes it.
Grid sums run in NumPy's einsum and reduce loops (``grids.norm_squared``,
``grids.power_spectrum``), so the bits do not depend on the BLAS thread
count.

The code runs at hbar = c = 1; the formulas keep the symbols.
"""
from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .grids import (
    TAU_WINDOW_LIMIT,
    NumericalHealthWarning,
    edge_band_share,
    norm_squared,
    power_spectrum,
    spectral_derivative_array,
    wavenumbers,
)
from .states import MomentumSpaceState

TIP_CLEARANCE_CELLS = 5.0
TIP_AMPLITUDE_LIMIT = 1e-8
TAU_EDGE_BAND = 0.1          # outer tenth of each half of the proper-time window


def _axes(state: MomentumSpaceState) -> tuple[np.ndarray, np.ndarray]:
    return state.e_grid.nodes[:, None], state.p_grid.nodes[None, :]


def energy_multiplier(state: MomentumSpaceState) -> np.ndarray:
    """Total-energy values sqrt(E^2 + c^2 p^2) over the grid."""
    E, P = _axes(state)
    h = np.add(E * E, P**2, out=state.grid_array(float))
    return np.sqrt(h, out=h)


def dilation_multiplier(state: MomentumSpaceState) -> np.ndarray:
    """Dilation-rate values E / sqrt(E^2 + c^2 p^2) over the grid."""
    check_tip_clearance(state)
    E, _ = _axes(state)
    denom = energy_multiplier(state)
    # where denom is 0 the output keeps it, so D reads 0 at the cone tip
    return np.divide(E, denom, out=denom, where=denom > 0.0)


class TipClearanceError(ValueError):
    """The state's support reaches the cone tip E = p = 0."""


def check_tip_clearance(state: MomentumSpaceState) -> None:
    """Reject states with support near E = p = 0, where the dilation rate
    is an ill-defined 0/0."""
    eg, pg = state.e_grid, state.p_grid
    re = eg.nodes / (TIP_CLEARANCE_CELLS * eg.step)
    rp = pg.nodes / (TIP_CLEARANCE_CELLS * pg.weights)  # a node's weight is its cell
    near = (re[:, None] ** 2 + rp[None, :] ** 2) < 1.0
    if not near.any():
        return
    if np.abs(state.values[near]).max() > TIP_AMPLITUDE_LIMIT * state.peak:
        raise TipClearanceError(
            "dilation rate undefined: state support reaches within "
            f"{TIP_CLEARANCE_CELLS:.0f} grid cells of E = p = 0")


def evolve(state: MomentumSpaceState, t: float) -> MomentumSpaceState:
    """Evolution by exp(-i t (H - H_c(p)) / hbar): the propagator of H =
    sqrt(E^2 + c^2 p^2) less the factor exp(-i t H_c / hbar), where H_c(p)
    = sqrt(e_c^2 + c^2 p^2) at the E grid's centre node e_c.

    The dropped factor depends on p alone.  Every observable here is
    diagonal in p while tau acts along E, so no expectation value within
    one state sees it; the phase argument is then at most t |E - e_c| in
    size, not t H, and rounds that much less.  An overlap between two
    states does see it: <phi|evolve(psi, t)> lacks exp(-i t H_c / hbar) in
    every p column, and two states evolved for different times differ by
    that factor's ratio.  Multiply by it for the lab-frame state."""
    if not math.isfinite(t):
        raise ValueError("evolution time must be finite")
    if t == 0.0:
        return state
    # H - H_c = (E - e_c)(E + e_c) / (H + H_c) keeps the digits the
    # difference would cancel (0 where H + H_c is)
    E, P = _axes(state)
    e_c = state.e_grid.center
    arg = energy_multiplier(state)
    arg += np.sqrt(e_c * e_c + P**2)
    np.divide((E - e_c) * (E + e_c), arg, out=arg, where=arg > 0.0)
    # exp(-it(H - H_c)) = cos + i sin of -t(H - H_c), the bits np.exp gives,
    # taken without a complex temporary: the phase goes into one buffer,
    # then psi into it
    arg *= -t
    values = state.grid_array(complex)
    np.cos(arg, out=values.real)
    np.sin(arg, out=values.imag)
    values *= state.values
    return state._with_values(values)


class TauStatistics(NamedTuple):
    mean: float
    second: float
    spectrum: np.ndarray  # the state's DFT along E, allocated for this reading
    window: float  # share of |psi(tau)|^2 in the outer TAU_EDGE_BAND of the window


def tau_statistics(state: MomentumSpaceState) -> TauStatistics:
    """<tau>, <tau^2>, the spectrum along E and the tau-window edge share,
    from one forward transform; an edge share above TAU_WINDOW_LIMIT warns."""
    grid = state.e_grid
    spec, power = power_spectrum(state.values, axis=0)
    window = edge_band_share(power, TAU_EDGE_BAND)
    if window > TAU_WINDOW_LIMIT:
        warnings.warn(f"share {window:.2e} of |psi(tau)|^2 lies in the outer "
                      f"{TAU_EDGE_BAND:.0%} of the proper-time window "
                      f"|tau| < {math.pi / grid.step:.4g} "
                      f"(limit {TAU_WINDOW_LIMIT:.0e}); the reading may wrap around it, "
                      "so refine the E grid", NumericalHealthWarning, stacklevel=2)
    k = wavenumbers(grid)
    scale = state.cell_measure() / grid.n
    mean = -scale * float(np.einsum("i,i->", k, power))
    second = scale * float(np.einsum("i,i->", k * k, power))
    return TauStatistics(mean, second, spec, window)


def commutator_residual(state: MomentumSpaceState) -> float:
    """Relative norm of (tau E - E tau - i hbar) applied to the state."""
    E, _ = _axes(state)

    def tau_of(values: np.ndarray) -> np.ndarray:
        return 1j * spectral_derivative_array(values, state.e_grid, axis=0)

    resid = tau_of(E * state.values) - E * tau_of(state.values) - 1j * state.values
    # the state itself has unit norm, so this is already the relative residual
    return math.sqrt(norm_squared(resid) * state.cell_measure())
