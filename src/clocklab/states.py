"""Momentum-space clock states psi(E, p) on a rectangular grid.

E is the rest-energy axis, p a single spatial-momentum axis (the evolution
generator depends only on p^2, so one axis exercises all of the dynamics).
One record, ``MomentumSpaceState``, holds a state: its E grid, its p grid
and the complex amplitudes ``values``, an (n_e, n_p) array stored with E as
the contiguous axis (Fortran order): every reading is a transform along E,
which then runs on contiguous columns.  A build copies values given in any
other order into that layout.  States are unit-normalized under
grid quadrature and are expected to be numerically band-limited:
substantial amplitude at the grid boundary breaks the accuracy of the
spectral proper-time operator and is reported when the state is built.

The code runs at hbar = c = 1; the formulas keep the symbols.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grids import (
    BOUNDARY_HEALTH_LIMIT,
    NumericalHealthWarning,
    UniformGrid,
    boundary_amplitude_ratio,
    trapezoid_norm_squared,
)

NORM_TOL = 1e-10
MIN_SIGMA_COVERAGE = 8.0     # window must span at least this many sigma per side
MIN_CELLS_PER_SIGMA = 3.0
DEFAULT_SIGMA_MARGIN = 12.0
MAX_GRID_SIZE = 1 << 15
# The proper-time half-window pi hbar / dE is at least this many times the
# reach of the co-moving reading, which takes D at the 4-sigma corners.  A
# rest clock has D - v ~ -p^2 / 2E^2, a heavy one-sided tail: read where the
# power-of-two rounding of n_e leaves no headroom, it misses the exact
# variance by about 1e-6 at a margin of 1.3 (e0 = 10, sigma_p = 0.5,
# t = 6500); at 1.6 the worst case probed missed by 1e-7, and the tau-window
# health check flags it.
TAU_WINDOW_MARGIN = 1.6


class GridSizeError(ValueError):
    """The evolution span needs an E grid larger than MAX_GRID_SIZE."""


class GridAxisError(ValueError):
    """A grid that does not resolve the state on one axis ("E" or "p")."""

    def __init__(self, axis: str, message: str):
        self.axis = axis
        super().__init__(message)


@dataclass(frozen=True)
class GaussianClockSpec:
    """Product Gaussian in (E, p): center e0 with spread sigma_e, proper-time
    offset tau0 imprinted as the phase exp(-i E tau0 / hbar), momentum center
    p0 with spread sigma_p, and position offset x0 as exp(+i p x0 / hbar)."""

    e0: float
    sigma_e: float
    tau0: float = 0.0
    p0: float = 0.0
    sigma_p: float = 1.0
    x0: float = 0.0

    def __post_init__(self) -> None:
        if self.sigma_e <= 0.0 or self.sigma_p <= 0.0:
            raise ValueError("sigma_e and sigma_p must be positive")


@dataclass(frozen=True, eq=False)
class MomentumSpaceState:
    """E-contiguous amplitudes: values[i, j] is psi at (e_grid.nodes[i],
    p_grid.nodes[j]), and values[:, j] is contiguous in memory."""

    e_grid: UniformGrid
    p_grid: UniformGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        values = np.asfortranarray(self.values, dtype=complex)
        if values.shape != (self.e_grid.n, self.p_grid.n):
            raise ValueError("value array does not match grid sizes")
        object.__setattr__(self, "values", values)
        nrm2 = trapezoid_norm_squared(values, self.cell_measure())
        if abs(nrm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state is not unit-normalized: <psi|psi> = {nrm2!r}")
        ratio = boundary_amplitude_ratio(values)
        if ratio > BOUNDARY_HEALTH_LIMIT:
            warnings.warn(
                f"state boundary amplitude ratio {ratio:.2e} exceeds "
                f"{BOUNDARY_HEALTH_LIMIT:.0e}; proper-time statistics may alias",
                NumericalHealthWarning,
                stacklevel=2,
            )

    def density(self) -> np.ndarray:
        """|psi|^2 over the grid."""
        rho = np.abs(self.values)
        return np.square(rho, out=rho)

    def _with_values(self, values: np.ndarray) -> MomentumSpaceState:
        """A state on these grids holding ``values``, which must have this
        state's |psi| pointwise; the build checks are not repeated."""
        out = object.__new__(MomentumSpaceState)
        out.__dict__.update(vars(self), values=values)
        return out

    def grid_array(self, dtype: type) -> np.ndarray:
        """An uninitialized E-contiguous array over this state's grids."""
        return np.empty((self.e_grid.n, self.p_grid.n), dtype=dtype, order="F")

    def cell_measure(self) -> float:
        return self.e_grid.step * self.p_grid.step


def state_from_values(e_grid: UniformGrid, p_grid: UniformGrid, values: np.ndarray,
                      normalize: bool = True) -> MomentumSpaceState:
    if normalize:
        return _normalized_state(e_grid, p_grid, np.array(values, dtype=complex, order="F"))
    return MomentumSpaceState(e_grid, p_grid, values)


def _normalized_state(e_grid: UniformGrid, p_grid: UniformGrid,
                      values: np.ndarray) -> MomentumSpaceState:
    """The unit-normalized state of ``values``, a complex array the caller
    has just allocated; it is divided in place."""
    nrm2 = trapezoid_norm_squared(values, e_grid.step * p_grid.step)
    if nrm2 <= 0.0:
        raise ValueError("cannot normalize a zero field")
    values /= math.sqrt(nrm2)
    return MomentumSpaceState(e_grid, p_grid, values)


def state_from_profiles(e_grid: UniformGrid, p_grid: UniformGrid,
                        e_profile: Callable[[np.ndarray], np.ndarray],
                        p_profile: Callable[[np.ndarray], np.ndarray]) -> MomentumSpaceState:
    """Product state from complex amplitude profiles over each axis."""
    e_values = np.asarray(e_profile(e_grid.nodes), dtype=complex)
    p_values = np.asarray(p_profile(p_grid.nodes), dtype=complex)
    values = np.multiply(e_values[:, None], p_values[None, :],
                         out=np.empty((e_grid.n, p_grid.n), dtype=complex, order="F"))
    return _normalized_state(e_grid, p_grid, values)


def _check_axis(name: str, grid: UniformGrid, center: float, sigma: float) -> None:
    left = center - grid.lo
    right = grid.hi - center
    if min(left, right) < MIN_SIGMA_COVERAGE * sigma:
        raise GridAxisError(
            name, f"grid too small on the {name} axis: window must extend at least "
            f"{MIN_SIGMA_COVERAGE:.0f} sigma on each side of the center")
    if sigma < MIN_CELLS_PER_SIGMA * grid.step:
        raise GridAxisError(
            name, f"grid too coarse on the {name} axis: sigma spans fewer than "
            f"{MIN_CELLS_PER_SIGMA:.0f} cells")


def make_gaussian_state(spec: GaussianClockSpec, e_grid: UniformGrid,
                        p_grid: UniformGrid) -> MomentumSpaceState:
    """Normalized product Gaussian with the phase offsets of the spec."""
    _check_axis("E", e_grid, spec.e0, spec.sigma_e)
    _check_axis("p", p_grid, spec.p0, spec.sigma_p)

    def e_profile(E: np.ndarray) -> np.ndarray:
        return np.exp(-((E - spec.e0) ** 2) / (4.0 * spec.sigma_e**2) - 1j * E * spec.tau0)

    def p_profile(p: np.ndarray) -> np.ndarray:
        return np.exp(-((p - spec.p0) ** 2) / (4.0 * spec.sigma_p**2) + 1j * p * spec.x0)

    return state_from_profiles(e_grid, p_grid, e_profile, p_profile)


def _next_pow2(n: float) -> int:
    return 1 << max(3, math.ceil(math.log2(max(n, 8.0))))


def _dilation_rate(e: float, p: float) -> float:
    denom = math.hypot(e, p)
    return 0.0 if denom == 0.0 else e / denom


def frame_velocity(state: MomentumSpaceState) -> float:
    """Dilation rate E/sqrt(E^2 + c^2 p^2) at the centre node of the state's
    grids, (e0, p0) for grids from ``suggest_grids``: the rate of the
    co-moving frame in which readings are measured."""
    eg, pg = state.e_grid, state.p_grid
    return _dilation_rate(eg.lo + eg.step * (eg.n // 2), pg.lo + pg.step * (pg.n // 2))


def _residual_dilation(spec: GaussianClockSpec) -> float:
    """Largest |D - v| over the 4-sigma corners of the state, with D the
    dilation rate and v its value at (e0, p0), the frame velocity."""
    v = _dilation_rate(spec.e0, spec.p0)
    return max(abs(_dilation_rate(spec.e0 + i * 4 * spec.sigma_e,
                                  spec.p0 + j * 4 * spec.sigma_p) - v)
               for i in (-1, 0, 1) for j in (-1, 0, 1))


def suggest_grids(spec: GaussianClockSpec, t_max: float = 0.0, n_e: int = 1024, n_p: int = 256,
                  sigma_margin: float = DEFAULT_SIGMA_MARGIN) -> tuple[UniformGrid, UniformGrid]:
    """Grids sized for a Gaussian spec and a target evolution span.

    The E window covers ``sigma_margin`` sigma each side of e0, and the E
    resolution is raised until the conjugate proper-time window comfortably
    contains the reading in the co-moving frame: tau0 plus the residual
    drift t*(D - v) and the initial spread.  The common drift t*v is added
    after the measurement and needs no window.
    """
    half_e = sigma_margin * spec.sigma_e
    dtau0 = 1.0 / (2.0 * spec.sigma_e)  # hbar / (2 sigma_e)
    tau_reach = abs(spec.tau0) + abs(t_max) * _residual_dilation(spec) + 10.0 * dtau0 + 2.0
    de_max = math.pi / (TAU_WINDOW_MARGIN * tau_reach)  # the half-window pi hbar / dE
    n_e_needed = max(n_e, _next_pow2(2.0 * half_e / de_max))
    if n_e_needed > MAX_GRID_SIZE:
        raise GridSizeError("requested evolution span needs an impractically large E grid")
    e_grid = UniformGrid(spec.e0 - half_e, spec.e0 + half_e, n_e_needed)

    half_p = sigma_margin * spec.sigma_p
    n_p_needed = n_p
    dp = 2.0 * half_p / n_p_needed
    while dp * abs(spec.x0) > math.pi / 1.3 and n_p_needed < MAX_GRID_SIZE:
        n_p_needed *= 2
        dp = 2.0 * half_p / n_p_needed
    p_grid = UniformGrid(spec.p0 - half_p, spec.p0 + half_p, n_p_needed)
    return e_grid, p_grid


def gaussian_state(spec: GaussianClockSpec, t_max: float = 0.0, n_e: int = 1024,
                   n_p: int = 256) -> MomentumSpaceState:
    """Convenience wrapper: auto-sized grids plus the Gaussian state."""
    e_grid, p_grid = suggest_grids(spec, t_max=t_max, n_e=n_e, n_p=n_p)
    return make_gaussian_state(spec, e_grid, p_grid)


def probability_marginals(state: MomentumSpaceState) -> tuple[np.ndarray, np.ndarray,
                                                              np.ndarray, np.ndarray]:
    """(E nodes, |psi|^2 marginal over p, p nodes, marginal over E), each
    marginal normalized to unit quadrature on its own axis; the plottable
    snapshot of a state."""
    rho = state.density()
    e_density = rho.sum(axis=1) * state.p_grid.step
    p_density = rho.sum(axis=0) * state.e_grid.step
    return state.e_grid.nodes, e_density, state.p_grid.nodes, p_density
