"""Uniform grids, quadrature and spectral derivatives of complex grid arrays.

Grids are periodic-style (right endpoint excluded) with power-of-two node
counts so the discrete Fourier transform applies directly.  Spectral
differentiation is exact, up to rounding, for trigonometric polynomials
below the Nyquist frequency; on smooth data that has decayed at the grid
boundary it converges faster than any power of the step.

Grid sums take the elements in memory order, C or Fortran.  A statistic
that is a weighted sum over the spectrum is taken from the per-wavenumber
power ``power_spectrum`` gives (Parseval's theorem), with no inverse
transform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NumericalHealthWarning(UserWarning):
    """Raised as a warning when a field is not numerically band-limited."""


BOUNDARY_HEALTH_LIMIT = 1e-10
TAU_WINDOW_LIMIT = 1e-8  # largest healthy share of a reading near its tau-window edge


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
    """max of the magnitudes ``mag`` (|psi| over a 2-D grid) on the grid
    boundary divided by their max overall.

    A small ratio certifies the array is numerically band-limited, which the
    spectral derivative needs for its accuracy claims.
    """
    peak = mag.max()
    if peak == 0.0:
        return 0.0
    edge = max(mag[0, :].max(), mag[-1, :].max(), mag[:, 0].max(), mag[:, -1].max())
    return float(edge / peak)


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
    window."""
    n = power.shape[0]
    # in DFT order |k| >= first_edge * dk is the one slice [first_edge, n - first_edge]
    first_edge = math.ceil((1.0 - edge_band) * n / 2)
    total = float(np.add.reduce(power))
    return float(np.add.reduce(power[first_edge:n - first_edge + 1])) / total if total > 0.0 else 0.0


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
