"""Momentum-space clock states psi(E, p) on a rectangular grid.

E is the rest-energy axis, p a single spatial-momentum axis (the evolution
generator depends only on p^2, so one axis exercises all of the dynamics).
One record, ``MomentumSpaceState``, holds a state: its E grid, its p axis
and the complex amplitudes ``values``, an (n_e, n_p) array stored with E as
the contiguous axis (Fortran order): every reading is a transform along E,
which then runs on contiguous columns.  A build copies values given in any
other order into that layout.

The E axis is a ``UniformGrid``: tau acts along it through the FFT.  Every
operator is diagonal in p and no transform runs along it, so the p axis is
a quadrature, a ``grids.NodeAxis``: nodes p_j with weights w_j, and
``values[i, j]`` is psi(E_i, p_j) sqrt(w_j).  A sum over p of |values|^2
times a multiplier is then the p integral, and every kernel reads the array
as it would a grid array whose cell is the E step alone.  ``suggest_grids``
gives the axis Gauss-Hermite nodes fitted to the p profile
(``grids.hermite_axis``); a Gaussian clock reads on 16 of them.

States are unit-normalized under this quadrature and are expected to be
numerically band-limited along E: substantial amplitude at an E grid edge
breaks the accuracy of the spectral proper-time operator and is reported
when the state is built.

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
    MAX_NODES,
    TAU_WINDOW_LIMIT,
    NodeAxis,
    NumericalHealthWarning,
    UniformGrid,
    _hermite_rule,
    boundary_amplitude_ratio,
    hermite_axis,
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
MIN_P_NODES = 16
# The share of a reading's variance by which the p quadrature may move it.
P_NODE_SHARE = 1e-14


class GridSizeError(ValueError):
    """The proper-time reach needs an E grid larger than MAX_GRID_SIZE, or
    the p quadrature more than MAX_NODES nodes."""


class GridAxisError(ValueError):
    """A grid that does not resolve the state on one axis, ``axis`` "E" or
    "p"; ``wide`` where the state's width is too large for it, not too small."""

    def __init__(self, axis: str, message: str, wide: bool = False) -> None:
        super().__init__(message)
        self.axis = axis
        self.wide = wide


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
    p_grid.nodes[j]) times sqrt(p_grid.weights[j]), and values[:, j] is
    contiguous in memory.  The build takes |values| once, for the boundary
    check, ``peak`` and ``density``."""

    e_grid: UniformGrid
    p_grid: NodeAxis
    values: np.ndarray = field(repr=False)
    peak: float = field(init=False, repr=False)  # max |values|
    _rho: np.ndarray = field(init=False, repr=False)  # |values|^2

    def __post_init__(self) -> None:
        values = np.asfortranarray(self.values, dtype=complex)
        if values.shape != (self.e_grid.n, self.p_grid.n):
            raise ValueError("value array does not match grid sizes")
        object.__setattr__(self, "values", values)
        nrm2 = trapezoid_norm_squared(values, self.cell_measure())
        if not abs(nrm2 - 1.0) <= NORM_TOL:  # nan values fail too
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
        """|values|^2 over the grid, |psi|^2 times the p weights, taken at
        the build; read it, never write into it."""
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
        """The E step: the p weights are in ``values``."""
        return self.e_grid.step


def state_from_profiles(e_grid: UniformGrid, p_grid: NodeAxis,
                        e_profile: Callable[[np.ndarray], np.ndarray],
                        p_profile: Callable[[np.ndarray], np.ndarray]) -> MomentumSpaceState:
    """Unit-normalized product state from complex amplitude profiles over
    each axis."""
    e_values = np.asarray(e_profile(e_grid.nodes), dtype=complex)
    p_values = np.asarray(p_profile(p_grid.nodes), dtype=complex) * np.sqrt(p_grid.weights)
    values = np.multiply(e_values[:, None], p_values[None, :],
                         out=np.empty((e_grid.n, p_grid.n), dtype=complex, order="F"))
    nrm2 = trapezoid_norm_squared(values, e_grid.step)
    if nrm2 <= 0.0:
        raise ValueError("cannot normalize a zero field")
    values /= math.sqrt(nrm2)
    return MomentumSpaceState(e_grid, p_grid, values)


def _check_width(name: str, sigma: float) -> None:
    """The profile's denominator 4 sigma^2 must be finite and nonzero."""
    if not 0.0 < 4.0 * (sigma * sigma) < math.inf:
        size, fault = ("large", "overflows") if sigma > 1.0 else ("small", "underflows to 0")
        raise GridAxisError(name, f"width too {size} on the {name} axis: 4 sigma^2 {fault}, "
                                  f"got sigma = {sigma!r}", wide=sigma > 1.0)


def make_gaussian_state(spec: GaussianClockSpec, e_grid: UniformGrid,
                        p_grid: NodeAxis) -> MomentumSpaceState:
    """Normalized product Gaussian with the phase offsets of the spec.  The
    E grid must hold and resolve the E profile, and the p nodes must
    integrate the p density exp(-(p - p0)^2 / (2 sigma_p^2)) to its
    integral sqrt(2 pi) sigma_p within NORM_TOL, which nodes fitted to
    another profile do not."""
    _check_width("E", spec.sigma_e)
    _check_width("p", spec.sigma_p)
    if min(spec.e0 - e_grid.lo, e_grid.hi - spec.e0) < MIN_SIGMA_COVERAGE * spec.sigma_e:
        raise GridAxisError(
            "E", f"grid too small on the E axis: window must extend at least "
            f"{MIN_SIGMA_COVERAGE:.0f} sigma on each side of the center", wide=True)
    if spec.sigma_e < MIN_CELLS_PER_SIGMA * e_grid.step:
        raise GridAxisError(
            "E", f"grid too coarse on the E axis: sigma spans fewer than "
            f"{MIN_CELLS_PER_SIGMA:.0f} cells")
    with np.errstate(all="ignore"):
        z = (p_grid.nodes - spec.p0) / spec.sigma_p
        share = float(np.dot(p_grid.weights / spec.sigma_p, np.exp(-0.5 * z * z)))
    share /= math.sqrt(2.0 * math.pi)
    if not abs(share - 1.0) <= NORM_TOL:
        raise GridAxisError(
            "p", f"nodes do not fit the state on the p axis: they integrate its p "
            f"density to {share:.6g} of its integral")

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
    """Dilation rate E/sqrt(E^2 + c^2 p^2) at the centre of the state's
    axes, (e0, p0) for axes from ``suggest_grids``: the rate of the
    co-moving frame in which readings are measured."""
    return _dilation_rate(state.e_grid.center, state.p_grid.center)


def _residual_dilation(spec: GaussianClockSpec) -> float:
    """Largest |D - v| on the ellipse of TAIL_SIGMAS sigma about (e0, p0),
    v = D(e0, p0), taken at 64 points; D has no extremum inside it off the
    line p = 0, where D is constant."""
    a = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    e = spec.e0 + TAIL_SIGMAS * spec.sigma_e * np.cos(a)
    h = np.hypot(e, spec.p0 + TAIL_SIGMAS * spec.sigma_p * np.sin(a))
    rate = np.divide(e, h, out=np.zeros_like(h), where=h > 0.0)
    return float(np.abs(rate - _dilation_rate(spec.e0, spec.p0)).max())


def _normal_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Hermite rule for the standard normal distribution:
    nodes z_j = sqrt(2) x_j and weights w_j / sqrt(pi), which sum to 1."""
    x, scaled = _hermite_rule(n)
    return math.sqrt(2.0) * x, scaled * np.exp(-x * x) / math.sqrt(math.pi)


def _dilation_variances(spec: GaussianClockSpec, n: int) -> tuple[float, float]:
    """Var D of the spec's state by product Gauss-Hermite quadrature, 8 nodes
    on E and n, then 2n, on p (both node sets in one array).  Along p,
    D(E, p) - D(E, p0) is taken without cancellation, and along E the rates
    are centred before they are squared, so that the p quadrature's error
    is not hidden under the rounding of D ~ 1."""
    z_e, w_e = _normal_rule(8)
    E = (spec.e0 + spec.sigma_e * z_e)[:, None]
    h_c = np.hypot(E, spec.p0)
    rate = np.divide(E, h_c, out=np.zeros_like(E), where=h_c > 0.0)[:, 0]  # D(E, p0)
    rate -= (rate * w_e).sum()
    (z, w), (z2, w2) = _normal_rule(n), _normal_rule(2 * n)
    p = spec.p0 + spec.sigma_p * np.concatenate((z, z2))
    h = np.hypot(E, p)
    denom = h * h_c * (h + h_c)
    d = np.divide(E * ((spec.p0 - p) * (spec.p0 + p)), denom, out=np.zeros_like(denom),
                  where=denom > 0.0)
    dw = d * np.concatenate((w, w2))
    d *= dw  # d^2 w
    out = []
    for part in (slice(0, n), slice(n, 3 * n)):
        mean = dw[:, part].sum(axis=1)  # <D>_p - D(E, p0) at each E
        var_p = d[:, part].sum(axis=1) - mean * mean
        mean -= (mean * w_e).sum()
        mean += rate  # <D>_p at each E, less its mean over E
        out.append(float(((var_p + mean * mean) * w_e).sum()))
    return out[0], out[1]


def _p_node_count(spec: GaussianClockSpec, t_max: float, n_p: int) -> int:
    """The p node count: the floor max(MIN_P_NODES, n_p), raised to the
    first power of two n whose rule agrees with 2n nodes on Var D.  The two
    rules' readings at t_max differ by t_max^2 |dVar D|, which must stay
    within P_NODE_SHARE of the reading's variance 1 / (4 sigma_e^2) +
    t_max^2 Var D.  Where no n up to MAX_NODES agrees, GridSizeError."""
    const = 1.0 / (4.0 * spec.sigma_e**2)
    n = max(MIN_P_NODES, n_p)
    if t_max == 0.0:
        return n
    with np.errstate(all="ignore"):  # a width the state build refuses may overflow here
        while n <= MAX_NODES:
            quad, finer = _dilation_variances(spec, n)
            if not math.isfinite(finer - quad):  # that build names the width
                return n
            if t_max * t_max * abs(finer - quad) <= P_NODE_SHARE * (const + t_max * t_max * finer):
                return n
            n *= 2
    raise GridSizeError(f"the p quadrature needs more than {MAX_NODES} nodes for this "
                        f"spread of the dilation rate over this time")


def suggest_grids(spec: GaussianClockSpec, t_max: float = 0.0, n_e: int = 8,
                  n_p: int = 8) -> tuple[UniformGrid, NodeAxis]:
    """A power-of-two E grid and Gauss-Hermite p nodes sized by accuracy for
    a Gaussian spec and an evolution span; ``n_e`` and ``n_p`` are floors
    the rules only raise (``hermite_axis`` refuses an ``n_p`` above
    MAX_NODES).

    The E window covers DEFAULT_SIGMA_MARGIN sigma either side of the centre
    at MIN_CELLS_PER_SIGMA cells per sigma or more.  The E grid is refined
    until the proper-time window holds the co-moving reading (tau0, the
    residual drift t |D - v| out to the tail, the initial spread) with
    TAU_WINDOW_MARGIN to spare; the common drift t v needs no window.  The
    p nodes follow ``_p_node_count``.  A window, E or p, whose ends
    DEFAULT_SIGMA_MARGIN sigma out are not finite and apart, or a profile
    whose denominator 4 sigma^2 overflows or underflows to 0, raises
    GridAxisError before any sizing.
    """
    half_e, half_p = DEFAULT_SIGMA_MARGIN * spec.sigma_e, DEFAULT_SIGMA_MARGIN * spec.sigma_p
    for axis, center, half in (("E", spec.e0, half_e), ("p", spec.p0, half_p)):
        if not -math.inf < center - half < center + half < math.inf:
            # ends past the float range, or rounded onto one another
            wide = not (math.isfinite(center - half) and math.isfinite(center + half))
            raise GridAxisError(axis, f"grid needs finite lo < hi on the {axis} axis, "
                                      f"got {center!r} -+ {half!r}", wide)
    _check_width("E", spec.sigma_e)
    _check_width("p", spec.sigma_p)
    cells = 2.0 * DEFAULT_SIGMA_MARGIN * MIN_CELLS_PER_SIGMA
    dtau0 = 1.0 / (2.0 * spec.sigma_e)  # hbar / (2 sigma_e)
    tau_reach = abs(spec.tau0) + abs(t_max) * _residual_dilation(spec) + 10.0 * dtau0 + 2.0
    de_max = math.pi / (TAU_WINDOW_MARGIN * tau_reach)  # the half-window pi hbar / dE
    n_e_needed = max(n_e, _next_pow2(max(cells, 2.0 * half_e / de_max)))
    if n_e_needed > MAX_GRID_SIZE:
        raise GridSizeError("requested proper-time reach needs an impractically large E grid")
    return (UniformGrid(spec.e0 - half_e, spec.e0 + half_e, n_e_needed),
            hermite_axis(spec.p0, spec.sigma_p, _p_node_count(spec, abs(t_max), n_p)))


def gaussian_state(spec: GaussianClockSpec, t_max: float = 0.0) -> MomentumSpaceState:
    """The Gaussian state on the grids ``suggest_grids`` sizes for it."""
    e_grid, p_grid = suggest_grids(spec, t_max=t_max)
    return make_gaussian_state(spec, e_grid, p_grid)


def probability_marginals(state: MomentumSpaceState) -> tuple[np.ndarray, np.ndarray,
                                                              np.ndarray, np.ndarray]:
    """(E nodes, |psi|^2 marginal over p, p nodes, marginal over E), each
    marginal normalized to unit quadrature on its own axis; the plottable
    snapshot of a state.  The p marginal at node j is sum_E |values|^2 dE
    divided by the node's weight."""
    rho = state.density()
    e_density = rho.sum(axis=1)
    p_density = rho.sum(axis=0) * state.e_grid.step / state.p_grid.weights
    return state.e_grid.nodes, e_density, state.p_grid.nodes, p_density
