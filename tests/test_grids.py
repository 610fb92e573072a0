import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clocklab.grids import (
    UniformGrid,
    boundary_amplitude_ratio,
    spectral_derivative_array,
    trapezoid_norm_squared,
)

UNIT = UniformGrid(0.0, 1.0, 8)


def _norm(grid, f):
    """Quadrature norm of the profile f on ``grid`` as a 2-D array, constant
    over the unit interval on the second axis, so the norm is the profile's
    own."""
    return trapezoid_norm_squared(np.outer(f, np.ones(UNIT.n)), grid.step * UNIT.step)


def test_grid_nodes_and_step():
    grid = UniformGrid(0.0, 1.0, 8)
    assert grid.step == 0.125
    assert np.allclose(grid.nodes, np.arange(8) / 8.0)
    assert grid.nodes[-1] + grid.step == pytest.approx(grid.hi, abs=1e-15)


@pytest.mark.parametrize("n", [0, 7, 100, 1000])
def test_grid_rejects_non_power_of_two(n):
    with pytest.raises(ValueError):
        UniformGrid(0.0, 1.0, n)


def test_norm_constant_field():
    grid = UniformGrid(0.0, 1.0, 8)
    assert _norm(grid, np.ones(8, dtype=complex)) == pytest.approx(1.0, abs=1e-15)


def test_norm_zero_field():
    grid = UniformGrid(0.0, 1.0, 8)
    assert _norm(grid, np.zeros(8, dtype=complex)) == 0.0


def test_norm_unit_gaussian():
    grid = UniformGrid(-16.0, 16.0, 1024)
    # |psi|^2 is the standard normal density
    psi = (2.0 * np.pi) ** (-0.25) * np.exp(-grid.nodes**2 / 4.0)
    assert _norm(grid, psi.astype(complex)) == pytest.approx(1.0, abs=1e-12)


def test_derivative_single_fourier_mode():
    grid = UniformGrid(0.0, 1.0, 64)
    f = np.exp(2j * np.pi * grid.nodes)
    df = spectral_derivative_array(f, grid)
    assert np.allclose(df, 2j * np.pi * f, atol=1e-12)


def test_derivative_constant_is_zero():
    grid = UniformGrid(0.0, 1.0, 64)
    df = spectral_derivative_array(np.ones(64, dtype=complex), grid)
    assert np.abs(df).max() < 1e-14


def test_derivative_gaussian():
    grid = UniformGrid(-16.0, 16.0, 1024)
    E = grid.nodes
    f = np.exp(-E**2 / 2.0)
    df = spectral_derivative_array(f, grid)
    assert np.abs(df - (-E * f)).max() < 1e-10


def test_derivative_2d_along_first_axis():
    ge = UniformGrid(-8.0, 8.0, 64)
    gp = UniformGrid(-6.5, 6.5, 16)
    E = ge.nodes[:, None]
    P = gp.nodes[None, :]
    f = np.exp(-(E**2) / 2.0) * np.exp(-(P**2))
    df = spectral_derivative_array(f.astype(complex), ge, axis=0)
    assert np.abs(df - (-E * f)).max() < 1e-9


def test_boundary_ratio():
    grid = UniformGrid(-16.0, 16.0, 256)
    f = np.exp(-grid.nodes**2 / 2.0)
    ratio = boundary_amplitude_ratio(np.outer(f, f))
    assert ratio == pytest.approx(np.exp(-16.0**2 / 2.0), rel=1e-6)


@st.composite
def band_limited(draw):
    """Random low-frequency trig polynomial on a periodic grid."""
    n = 64
    coeffs = draw(st.lists(
        st.tuples(st.integers(-8, 8),
                  st.floats(-1, 1, allow_nan=False),
                  st.floats(-1, 1, allow_nan=False)),
        min_size=1, max_size=5))
    grid = UniformGrid(0.0, 1.0, n)
    x = grid.nodes
    f = np.zeros(n, dtype=complex)
    for k, re, im in coeffs:
        f += (re + 1j * im) * np.exp(2j * np.pi * k * x)
    return grid, f


@given(band_limited())
@settings(max_examples=30, deadline=None)
def test_parseval_round_trip(data):
    grid, f = data
    nrm = _norm(grid, f)
    assert _norm(grid, np.fft.ifft(np.fft.fft(f))) == pytest.approx(nrm, rel=1e-12, abs=1e-15)


@given(band_limited(), band_limited(),
       st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_derivative_linearity(fa, fb, alpha, beta):
    grid, f = fa
    _, g = fb
    lhs = spectral_derivative_array(alpha * f + beta * g, grid)
    rhs = (alpha * spectral_derivative_array(f, grid)
           + beta * spectral_derivative_array(g, grid))
    scale = max(np.abs(rhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() / scale < 1e-12


def test_edge_band_share_of_spectral_power():
    # on [0, 2 pi) with 64 nodes the wavenumbers are integers up to 32, and
    # the outer tenth of the window is |k| >= 29
    grid = UniformGrid(0.0, 2.0 * np.pi, 64)
    low = np.exp(3j * grid.nodes)
    high = np.exp(-30j * grid.nodes)
    deriv, share = spectral_derivative_array(low, grid, edge_band=0.1)
    assert np.allclose(deriv, 3j * low, atol=1e-12)
    assert share < 1e-28
    assert spectral_derivative_array(high, grid, edge_band=0.1)[1] == pytest.approx(1.0)
    mixed = np.outer(np.ones(4), low + 1e-3 * high)  # the band is along axis 1
    _, share = spectral_derivative_array(mixed, grid, axis=1, edge_band=0.1)
    assert share == pytest.approx(1e-6 / (1.0 + 1e-6), rel=1e-9)
