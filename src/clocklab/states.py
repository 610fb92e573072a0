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
    TAU_WINDOW_LIMIT,
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
# A product Gaussian holds mass exp(-k^2 / 2) outside the ellipse of k sigma
# about its centre in (E, p); at TAIL_SIGMAS that mass is TAU_WINDOW_LIMIT.
TAIL_SIGMAS = math.sqrt(2.0 * math.log(1.0 / TAU_WINDOW_LIMIT))
# The proper-time half-window pi hbar / dE is at least this many times the
# reach of the co-moving reading, which takes D - v on that ellipse: a rest
# clock's D - v ~ -p^2 / 2E^2 grows as p^2, and taken at 4 sigma the reach
# missed the exact variance by 1e-7 (e0 = 20, sigma_p = 1.8, t = 9000).
TAU_WINDOW_MARGIN = 1.6


class GridSizeError(ValueError):
    """The proper-time reach needs an E grid larger than MAX_GRID_SIZE."""


class GridAxisError(ValueError):
    """A grid that does not resolve the state on one axis, ``axis`` "E" or "p"."""

    def __init__(self, axis: str, message: str) -> None:
        super().__init__(message)
        self.axis = axis


@dataclass(frozen=True)
class GaussianClockSpec:
    """Product Gaussian in (E, p): center e0 with spread sigma_e, proper-time
    offset tau0 imprinted as the phase exp(-i E tau0 / hbar), and momentum
    center p0 with spread sigma_p."""

    e0: float
    sigma_e: float
    tau0: float = 0.0
    p0: float = 0.0
    sigma_p: float = 1.0

    def __post_init__(self) -> None:
        if self.sigma_e <= 0.0 or self.sigma_p <= 0.0:
            raise ValueError("sigma_e and sigma_p must be positive")


@dataclass(frozen=True, eq=False)
class MomentumSpaceState:
    """E-contiguous amplitudes: values[i, j] is psi at (e_grid.nodes[i],
    p_grid.nodes[j]), and values[:, j] is contiguous in memory.  The build
    takes |psi| once, for the boundary check, ``peak`` and ``density``."""

    e_grid: UniformGrid
    p_grid: UniformGrid
    values: np.ndarray = field(repr=False)
    peak: float = field(init=False, repr=False)  # max |psi|
    _rho: np.ndarray = field(init=False, repr=False)  # |psi|^2

    def __post_init__(self) -> None:
        values = np.asfortranarray(self.values, dtype=complex)
        if values.shape != (self.e_grid.n, self.p_grid.n):
            raise ValueError("value array does not match grid sizes")
        object.__setattr__(self, "values", values)
        nrm2 = trapezoid_norm_squared(values, self.cell_measure())
        if abs(nrm2 - 1.0) > NORM_TOL:
            raise ValueError(f"state is not unit-normalized: <psi|psi> = {nrm2!r}")
        mag = np.abs(values)
        ratio = boundary_amplitude_ratio(mag)
        object.__setattr__(self, "peak", float(mag.max()))
        object.__setattr__(self, "_rho", np.square(mag, out=mag))
        if ratio > BOUNDARY_HEALTH_LIMIT:
            warnings.warn(
                f"state boundary amplitude ratio {ratio:.2e} exceeds "
                f"{BOUNDARY_HEALTH_LIMIT:.0e}; proper-time statistics may alias",
                NumericalHealthWarning,
                stacklevel=2,
            )

    def density(self) -> np.ndarray:
        """|psi|^2 over the grid, taken at the build; read it, never write
        into it."""
        return self._rho

    def _with_values(self, values: np.ndarray) -> MomentumSpaceState:
        """A state on these grids holding ``values``, which must have this
        state's |psi| pointwise; the build checks, ``peak`` and ``density``
        are not taken again."""
        out = object.__new__(MomentumSpaceState)
        out.__dict__.update(vars(self), values=values)
        return out

    def grid_array(self, dtype: type) -> np.ndarray:
        """An uninitialized E-contiguous array over this state's grids."""
        return np.empty((self.e_grid.n, self.p_grid.n), dtype=dtype, order="F")

    def cell_measure(self) -> float:
        return self.e_grid.step * self.p_grid.step


def state_from_profiles(e_grid: UniformGrid, p_grid: UniformGrid,
                        e_profile: Callable[[np.ndarray], np.ndarray],
                        p_profile: Callable[[np.ndarray], np.ndarray]) -> MomentumSpaceState:
    """Unit-normalized product state from complex amplitude profiles over
    each axis."""
    e_values = np.asarray(e_profile(e_grid.nodes), dtype=complex)
    p_values = np.asarray(p_profile(p_grid.nodes), dtype=complex)
    values = np.multiply(e_values[:, None], p_values[None, :],
                         out=np.empty((e_grid.n, p_grid.n), dtype=complex, order="F"))
    nrm2 = trapezoid_norm_squared(values, e_grid.step * p_grid.step)
    if nrm2 <= 0.0:
        raise ValueError("cannot normalize a zero field")
    values /= math.sqrt(nrm2)
    return MomentumSpaceState(e_grid, p_grid, values)


def _check_axis(name: str, grid: UniformGrid, center: float, sigma: float) -> None:
    if not math.isfinite(4.0 * (sigma * sigma)):  # the profile's denominator
        raise GridAxisError(name, f"width too large on the {name} axis: 4 sigma^2 overflows, "
                                  f"got sigma = {sigma!r}")
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
        return np.exp(-((p - spec.p0) ** 2) / (4.0 * spec.sigma_p**2))

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
    """Largest |D - v| on the ellipse of TAIL_SIGMAS sigma about (e0, p0),
    v = D(e0, p0); D has no extremum inside it off the line p = 0, where
    D is constant."""
    v = _dilation_rate(spec.e0, spec.p0)
    return max(abs(_dilation_rate(spec.e0 + TAIL_SIGMAS * spec.sigma_e * math.cos(a),
                                  spec.p0 + TAIL_SIGMAS * spec.sigma_p * math.sin(a)) - v)
               for a in np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False))


def suggest_grids(spec: GaussianClockSpec, t_max: float = 0.0, n_e: int = 8,
                  n_p: int = 8) -> tuple[UniformGrid, UniformGrid]:
    """Power-of-two grids sized by accuracy for a Gaussian spec and an
    evolution span; ``n_e`` and ``n_p`` are floors the rule only raises.

    Each window covers DEFAULT_SIGMA_MARGIN sigma either side of the centre at
    MIN_CELLS_PER_SIGMA cells per sigma or more.  The E grid is refined
    until the proper-time window holds the co-moving reading (tau0, the
    residual drift t |D - v| out to the tail, the initial spread) with
    TAU_WINDOW_MARGIN to spare; the common drift t v needs no window.  A
    window whose ends are not finite and apart raises GridAxisError.
    """
    half_e, half_p = DEFAULT_SIGMA_MARGIN * spec.sigma_e, DEFAULT_SIGMA_MARGIN * spec.sigma_p
    for axis, center, half in (("E", spec.e0, half_e), ("p", spec.p0, half_p)):
        if not -math.inf < center - half < center + half < math.inf:
            raise GridAxisError(axis, f"grid needs finite lo < hi on the {axis} axis, "
                                      f"got {center!r} -+ {half!r}")
    cells = 2.0 * DEFAULT_SIGMA_MARGIN * MIN_CELLS_PER_SIGMA
    dtau0 = 1.0 / (2.0 * spec.sigma_e)  # hbar / (2 sigma_e)
    tau_reach = abs(spec.tau0) + abs(t_max) * _residual_dilation(spec) + 10.0 * dtau0 + 2.0
    de_max = math.pi / (TAU_WINDOW_MARGIN * tau_reach)  # the half-window pi hbar / dE
    n_e_needed = max(n_e, _next_pow2(max(cells, 2.0 * half_e / de_max)))
    if n_e_needed > MAX_GRID_SIZE:
        raise GridSizeError("requested proper-time reach needs an impractically large E grid")
    return (UniformGrid(spec.e0 - half_e, spec.e0 + half_e, n_e_needed),
            UniformGrid(spec.p0 - half_p, spec.p0 + half_p, max(n_p, _next_pow2(cells))))


def gaussian_state(spec: GaussianClockSpec, t_max: float = 0.0, n_e: int = 8,
                   n_p: int = 8) -> MomentumSpaceState:
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
