"""Operators on momentum-space clock states.

E and p act by multiplication; the total-energy generator is the diagonal
multiplier sqrt(E^2 + c^2 p^2) so time evolution is an exact pointwise
phase.  The proper-time operator is the spectral derivative i*hbar d/dE,
fixed by the canonical commutator [tau, E] = i*hbar.  The dilation-rate
observable D = E / sqrt(E^2 + c^2 p^2) is the operator form of the inverse
Lorentz factor and is singular at the cone tip E = p = 0, so states must
keep clear of it.

The E step fixes a periodic proper-time window |tau| < pi hbar / dE.  A
reading whose tau content reaches the window edge wraps around it and comes
out wrong with no other symptom, since |psi(E)| is unchanged by evolution;
``tau_statistics`` therefore reports the share of |psi~(tau)|^2 in the outer
``TAU_EDGE_BAND`` of the window, from the transform it takes anyway.

Two rules hold for every kernel here and in ``moments``.  A kernel writes
only into arrays that the same call allocated (its own buffers, or fresh
results of the helpers it called), never into an argument or a built
state's values; so a multi-step expression runs in one buffer and does not
fault in a new temporary for each step.  And ``evolve`` takes the phase as
cos and sin of -tH written into the two halves of one complex buffer,
which is bitwise equal to exp(-itH) as np.exp takes it.  Grid sums run in
NumPy's einsum loop (``grids.norm_squared``, ``grids.inner_product``), so
the bits do not depend on the BLAS thread count.

The code runs at hbar = c = 1; the formulas keep the symbols.
"""
from __future__ import annotations

import enum
import math
import warnings
from typing import NamedTuple

import numpy as np

from .grids import (
    BOUNDARY_HEALTH_LIMIT,
    NumericalHealthWarning,
    inner_product,
    norm_squared,
    spectral_derivative_array,
)
from .states import MomentumSpaceState

IMAG_RESIDUE_LIMIT = 1e-8
TIP_CLEARANCE_CELLS = 5.0
TIP_AMPLITUDE_LIMIT = 1e-8
TAU_EDGE_BAND = 0.1          # outer tenth of each half of the proper-time window
TAU_WINDOW_LIMIT = 1e-8      # largest healthy share of |psi~(tau)|^2 in that band


class AliasingError(RuntimeError):
    """Strict-mode escalation of a band-limit health failure."""


class Observable(enum.Enum):
    E = "E"
    P = "P"
    H = "H"
    D = "D"
    TAU = "TAU"
    TAU_SQ = "TAU_SQ"


def _axes(state: MomentumSpaceState) -> tuple[np.ndarray, np.ndarray]:
    return state.e_grid.nodes[:, None], state.p_grid.nodes[None, :]


def energy_multiplier(state: MomentumSpaceState) -> np.ndarray:
    """Total-energy values sqrt(E^2 + c^2 p^2) over the grid."""
    E, P = _axes(state)
    h = E * E + P**2
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
    rp = pg.nodes / (TIP_CLEARANCE_CELLS * pg.step)
    near = (re[:, None] ** 2 + rp[None, :] ** 2) < 1.0
    if not near.any():
        return
    mag = np.abs(state.values)
    if mag[near].max() > TIP_AMPLITUDE_LIMIT * mag.max():
        raise TipClearanceError(
            "dilation rate undefined: state support reaches within "
            f"{TIP_CLEARANCE_CELLS:.0f} grid cells of E = p = 0")


def _tau_and_window(state: MomentumSpaceState, strict: bool) -> tuple[np.ndarray, float]:
    """(tau psi values, tau-window edge share); an edge share above
    TAU_WINDOW_LIMIT warns, or raises AliasingError under strict."""
    if strict and state.boundary_ratio() > BOUNDARY_HEALTH_LIMIT:
        raise AliasingError(
            f"state boundary amplitude ratio {state.boundary_ratio():.2e} "
            "is above the band-limit health threshold")
    deriv, window = spectral_derivative_array(state.values, state.e_grid, axis=0,
                                              edge_band=TAU_EDGE_BAND)
    if window > TAU_WINDOW_LIMIT:
        message = (f"share {window:.2e} of |psi(tau)|^2 lies in the outer "
                   f"{TAU_EDGE_BAND:.0%} of the proper-time window "
                   f"|tau| < {math.pi / state.e_grid.step:.4g} "
                   f"(limit {TAU_WINDOW_LIMIT:.0e}); the reading may wrap around it, "
                   "so refine the E grid")
        if strict:
            raise AliasingError(message)
        warnings.warn(message, NumericalHealthWarning, stacklevel=3)
    deriv *= 1j
    return deriv, window


def evolve(state: MomentumSpaceState, t: float) -> MomentumSpaceState:
    """Unitary evolution by the diagonal phase exp(-i t sqrt(E^2+c^2p^2)/hbar)."""
    if not math.isfinite(t):
        raise ValueError("evolution time must be finite")
    if t == 0.0:
        return state
    # exp(-itH) = cos(-tH) + i sin(-tH), the bits np.exp gives, taken without
    # a complex temporary: the phase goes into one buffer, then psi into it
    arg = energy_multiplier(state)
    arg *= -t
    values = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=values.real)
    np.sin(arg, out=values.imag)
    values *= state.values
    return state._with_values(values)


class TauStatistics(NamedTuple):
    mean: float
    second: float
    tpsi: np.ndarray
    window: float  # share of |psi(tau)|^2 in the outer TAU_EDGE_BAND of the window


def tau_statistics(state: MomentumSpaceState, strict: bool = False) -> TauStatistics:
    """<tau>, <tau^2>, tau psi and the tau-window edge share, computed with
    one spectral derivative."""
    tpsi, window = _tau_and_window(state, strict)
    mean = inner_product(state.values, tpsi) * state.cell_measure()
    if abs(mean.imag) > IMAG_RESIDUE_LIMIT:
        raise ValueError(
            f"imaginary residue {mean.imag:.3e} of <tau> exceeds {IMAG_RESIDUE_LIMIT:.0e}")
    second = norm_squared(tpsi) * state.cell_measure()
    return TauStatistics(mean.real, second, tpsi, window)


def expectation(state: MomentumSpaceState, observable: Observable | str) -> float:
    obs = Observable(observable)
    if obs is Observable.TAU:
        return tau_statistics(state).mean
    if obs is Observable.TAU_SQ:
        return tau_statistics(state).second
    E, P = _axes(state)
    if obs is Observable.H:
        mult = energy_multiplier(state)
    elif obs is Observable.D:
        mult = dilation_multiplier(state)
    else:
        mult = E if obs is Observable.E else P
    return float((mult * state.density()).sum() * state.cell_measure())


def commutator_residual(state: MomentumSpaceState) -> float:
    """Relative norm of (tau E - E tau - i hbar) applied to the state."""
    E, _ = _axes(state)

    def tau_of(values: np.ndarray) -> np.ndarray:
        return 1j * spectral_derivative_array(values, state.e_grid, axis=0)

    resid = tau_of(E * state.values) - E * tau_of(state.values) - 1j * state.values
    # the state itself has unit norm, so this is already the relative residual
    return math.sqrt(norm_squared(resid) * state.cell_measure())
