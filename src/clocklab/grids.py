"""Uniform grids, quadrature nodes, and spectral derivatives of complex
grid arrays.

Grids are periodic-style (right endpoint excluded) with power-of-two node
counts so the discrete Fourier transform applies directly.  Spectral
differentiation is exact, up to rounding, for trigonometric polynomials
below the Nyquist frequency; on smooth data that has decayed at the grid
boundary it converges faster than any power of the step.

An axis along which no transform or derivative runs needs only quadrature:
``NodeAxis`` holds nodes and weights, and ``hermite_axis`` puts them at the
Gauss-Hermite nodes of a Gaussian profile (G. H. Golub and J. H. Welsch,
Math. Comp. 23, 221 (1969)).

Grid sums take the elements in memory order, C or Fortran.  A statistic
that is a weighted sum over the spectrum is taken from the per-wavenumber
power ``power_spectrum`` gives (Parseval's theorem), with no inverse
transform.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np


class NumericalHealthWarning(UserWarning):
    """Raised as a warning when a field is not numerically band-limited."""


BOUNDARY_HEALTH_LIMIT = 1e-10
TAU_WINDOW_LIMIT = 1e-8  # largest healthy share of a reading near its tau-window edge
# The largest Gauss-Hermite node set an axis takes (a rule of twice as many
# checks it): the outer nodes of either reach about sqrt(2 n), and there
# exp(-x^2 / 2) stays far inside the float range.
MAX_NODES = 256


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class UniformGrid:
    """n evenly spaced nodes lo + k*step, k = 0..n-1, with step = (hi-lo)/n."""

    lo: float
    hi: float
    n: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.lo) or not np.isfinite(self.hi) or self.hi <= self.lo:
            raise ValueError("grid needs finite lo < hi")
        if self.n < 8 or not _is_power_of_two(self.n):
            raise ValueError("grid size must be a power of two, at least 8")

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / self.n

    @property
    def nodes(self) -> np.ndarray:
        return self.lo + self.step * np.arange(self.n)

    @property
    def center(self) -> float:
        """The centre node, lo + step (n // 2)."""
        return self.lo + self.step * (self.n // 2)


@dataclass(frozen=True, eq=False)
class NodeAxis:
    """Quadrature nodes: sum_j weights[j] f(nodes[j]) stands for the
    integral of f along the axis.  ``center`` is the point readings take as
    the axis's frame, as the centre node of a ``UniformGrid`` is."""

    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    center: float

    @property
    def n(self) -> int:
        return len(self.nodes)


def _hermite_functions(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sum of phi_k(x)^2 over k < n, phi_{n-1}(x), phi_n(x)) for the
    orthonormal Hermite functions phi_k, which stay below 1 in size."""
    prev, phi = np.zeros_like(x), np.pi**-0.25 * np.exp(-x * x / 2.0)
    total = np.zeros_like(x)
    for k in range(1, n + 1):
        total += phi * phi
        prev, phi = phi, math.sqrt(2.0 / k) * x * phi - math.sqrt((k - 1) / k) * prev
    return total, prev, phi


@functools.lru_cache(maxsize=None)
def _hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Hermite rule for the weight exp(-x^2), as nodes x_j
    and the weights with that factor taken out, w_j exp(x_j^2).

    The nodes are the eigenvalues of the Jacobi matrix of the Hermite
    recurrence (Golub-Welsch), each refined by one Newton step on phi_n.
    Each weight is the Christoffel function w_j exp(x_j^2) = 1 / sum_k
    phi_k(x_j)^2, k < n, so no factor overflows."""
    x = np.linalg.eigvalsh(np.diag(np.sqrt(np.arange(1, n) / 2.0), -1))
    _, below, top = _hermite_functions(x, n)
    x -= top / (math.sqrt(2.0 * n) * below)  # phi_n' = sqrt(2n) phi_{n-1} at a zero
    x = (x - x[::-1]) / 2.0  # symmetric about 0, as the exact nodes are
    scaled = 1.0 / _hermite_functions(x, n)[0]
    for array in (x, scaled):
        array.setflags(write=False)
    return x, scaled


def hermite_axis(center: float, sigma: float, n: int) -> NodeAxis:
    """n Gauss-Hermite nodes center + sqrt(2) sigma x_j, weighted for the
    integral over the axis, which a profile exp(-(p - center)^2 / (4
    sigma^2)) turns into the Gauss-Hermite sum with the weight exp(-x^2).
    ``n`` is a power of two up to MAX_NODES; the rule is taken once per n."""
    if n < 8 or not _is_power_of_two(n) or n > MAX_NODES:
        raise ValueError(f"node count must be a power of two from 8 to {MAX_NODES}, got {n!r}")
    x, scaled = _hermite_rule(n)
    scale = math.sqrt(2.0) * sigma
    return NodeAxis(center + scale * x, scale * scaled, center)


def _float_parts(values: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of every element, interleaved in one
    float64 vector in memory order (a view of contiguous complex data, C or
    Fortran order)."""
    return np.ravel(values, order="K").view(np.float64)


def norm_squared(values: np.ndarray) -> float:
    """Sum of |v|^2 over every element of a complex array.

    The sums here run in NumPy's own einsum and reduce loops, not in BLAS:
    OpenBLAS splits a dot product across its threads, so its last bits
    would depend on the thread count."""
    parts = _float_parts(values)
    return float(np.einsum("i,i->", parts, parts))


def trapezoid_norm_squared(values: np.ndarray, cell: float) -> float:
    """Grid quadrature of |psi|^2 over cells of measure ``cell`` (rectangle
    rule; identical to the trapezoid rule on periodic data that has decayed
    at the boundary)."""
    return norm_squared(values) * cell


def boundary_amplitude_ratio(mag: np.ndarray) -> float:
    """max of the magnitudes ``mag`` (|psi| over an (E, p) array) on the
    first and last E nodes, divided by their max overall.

    A small ratio certifies the array is numerically band-limited along E,
    which the spectral derivative needs for its accuracy claims; p nodes
    have no edge where a field must decay.
    """
    peak = mag.max()
    if peak == 0.0:
        return 0.0
    return float(max(mag[0].max(), mag[-1].max()) / peak)


def wavenumbers(grid: UniformGrid) -> np.ndarray:
    """DFT angular wavenumbers for the grid, with the Nyquist bin zeroed
    (the derivative of the sampled Nyquist mode is not representable)."""
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.step)
    k[grid.n // 2] = 0.0
    return k


def power_spectrum(values: np.ndarray, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(spec, power): the DFT of ``values`` along ``axis``, and its power
    per wavenumber, |spec|^2 summed over every other axis, in DFT order.

    By Parseval's theorem sum |v|^2 = sum(power) / n, and a sum of
    w(k) |v~(k)|^2 is a sum of w(k) power(k) / n."""
    spec = np.fft.fft(values, axis=axis)
    n = spec.shape[axis]
    # rows of the transform axis, each (re, im) pair interleaved; a view
    # when that axis is the contiguous one
    parts = np.ascontiguousarray(np.moveaxis(spec, axis, -1)).view(np.float64).reshape(-1, 2 * n)
    sums = np.einsum("ij,ij->j", parts, parts)
    return spec, sums[::2] + sums[1::2]


def edge_band_share(power: np.ndarray, edge_band: float) -> float:
    """Share of ``power`` (DFT order) whose wavenumber lies in the outer
    ``edge_band`` fraction of the conjugate window, ``|k| >= (1 -
    edge_band) * k_Nyquist``: content there is about to wrap around the
    window.  A power of 0 has share 0, a nan one a nan share."""
    n = power.shape[0]
    # in DFT order |k| >= first_edge * dk is the one slice [first_edge, n - first_edge]
    first_edge = math.ceil((1.0 - edge_band) * n / 2)
    total = float(np.add.reduce(power))
    return float(np.add.reduce(power[first_edge:n - first_edge + 1])) / total if total else 0.0


def spectral_derivative_array(values: np.ndarray, grid: UniformGrid,
                              axis: int = 0) -> np.ndarray:
    """Derivative of ``values`` along ``axis`` by DFT."""
    if values.shape[axis] != grid.n:
        raise ValueError("axis length does not match the supplied grid")
    shape = [1] * values.ndim
    shape[axis] = grid.n
    spec = np.fft.fft(values, axis=axis)
    spec *= (1j * wavenumbers(grid)).reshape(shape)
    return np.fft.ifft(spec, axis=axis, out=spec)
