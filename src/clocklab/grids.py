"""Uniform grids, quadrature and spectral derivatives of complex grid arrays.

Grids are periodic-style (right endpoint excluded) with power-of-two node
counts so the discrete Fourier transform applies directly.  Spectral
differentiation is exact, up to rounding, for trigonometric polynomials
below the Nyquist frequency; on smooth data that has decayed at the grid
boundary it converges faster than any power of the step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NumericalHealthWarning(UserWarning):
    """Raised as a warning when a field is not numerically band-limited."""


BOUNDARY_HEALTH_LIMIT = 1e-10


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
    float64 vector (a view of contiguous complex data)."""
    return np.ravel(values).view(np.float64)


def norm_squared(values: np.ndarray) -> float:
    """Sum of |v|^2 over every element of a complex array.

    The sums here run in NumPy's own einsum loop, not in BLAS: OpenBLAS
    splits a dot product across its threads, so its last bits would depend
    on the thread count."""
    parts = _float_parts(values)
    return float(np.einsum("i,i->", parts, parts))


def inner_product(a: np.ndarray, b: np.ndarray) -> complex:
    """Sum of conj(a) * b over every element, summed as ``norm_squared``."""
    fa, fb = _float_parts(a), _float_parts(b)
    real = np.einsum("i,i->", fa, fb)
    imag = np.einsum("i,i->", fa[::2], fb[1::2]) - np.einsum("i,i->", fa[1::2], fb[::2])
    return complex(real, imag)


def trapezoid_norm_squared(values: np.ndarray, cell: float) -> float:
    """Grid quadrature of |psi|^2 over cells of measure ``cell`` (rectangle
    rule; identical to the trapezoid rule on periodic data that has decayed
    at the boundary)."""
    return norm_squared(values) * cell


def boundary_amplitude_ratio(values: np.ndarray) -> float:
    """max |value| on the boundary of a 2-D grid array divided by max |value|
    overall.

    A small ratio certifies the array is numerically band-limited, which the
    spectral derivative needs for its accuracy claims.
    """
    mag = np.abs(values)
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


def spectral_derivative_array(values: np.ndarray, grid: UniformGrid, axis: int = 0,
                              edge_band: float | None = None
                              ) -> np.ndarray | tuple[np.ndarray, float]:
    """Derivative of ``values`` along ``axis`` by DFT.

    With ``edge_band`` set, also return the share of the spectral power
    whose wavenumber lies in the outer ``edge_band`` fraction of the
    conjugate window, ``|k| >= (1 - edge_band) * k_Nyquist``, taken from the
    same transform: content there is about to wrap around the window.
    """
    if values.shape[axis] != grid.n:
        raise ValueError("axis length does not match the supplied grid")
    k = wavenumbers(grid)
    shape = [1] * values.ndim
    shape[axis] = grid.n
    spec = np.fft.fft(values, axis=axis)
    edge_fraction = None
    if edge_band is not None:
        # in DFT order |k| >= first_edge * dk is the one slice [first_edge, n - first_edge]
        first_edge = math.ceil((1.0 - edge_band) * grid.n / 2)
        band = [slice(None)] * values.ndim
        band[axis] = slice(first_edge, grid.n - first_edge + 1)
        total = norm_squared(spec)
        edge_fraction = norm_squared(spec[tuple(band)]) / total if total > 0.0 else 0.0
    spec *= (1j * k).reshape(shape)
    deriv = np.fft.ifft(spec, axis=axis, out=spec)
    return deriv if edge_fraction is None else (deriv, edge_fraction)

