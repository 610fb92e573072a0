import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clocklab.grids import (
    UniformGrid,
    boundary_amplitude_ratio,
    edge_band_share,
    norm_squared,
    power_spectrum,
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
    # the larger E edge is the last node, at 16 - step
    assert ratio == pytest.approx(np.exp(-15.875**2 / 2.0), rel=1e-6, abs=0.0)
    # amplitude on the p edge columns is not read: p nodes have no edge
    assert boundary_amplitude_ratio(np.outer(f, np.ones(16))) == ratio


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
    spec, power = power_spectrum(low)
    assert np.array_equal(spec, np.fft.fft(low))
    assert power.argmax() == 3 and power[3] == pytest.approx(64.0**2)
    assert edge_band_share(power, 0.1) < 1e-28
    assert edge_band_share(power_spectrum(high)[1], 0.1) == pytest.approx(1.0)
    mixed = np.outer(np.ones(4), low + 1e-3 * high)  # the band is along axis 1
    _, power = power_spectrum(mixed, axis=1)
    assert power.shape == (64,)
    assert edge_band_share(power, 0.1) == pytest.approx(1e-6 / (1.0 + 1e-6), rel=1e-9, abs=0)
    # the same values with the transform axis contiguous (Fortran order)
    _, power_f = power_spectrum(np.asfortranarray(mixed.T), axis=0)
    assert edge_band_share(power_f, 0.1) == pytest.approx(1e-6 / (1.0 + 1e-6), rel=1e-9, abs=0)
    # a nan spectrum has a nan share, which fails the check that reads it
    power[3] = np.nan
    assert np.isnan(edge_band_share(power, 0.1))


@pytest.mark.parametrize("order", ["C", "F"])
def test_power_spectrum_sums_to_the_norm(order):
    # Parseval: sum |v|^2 = sum P(k) / n, whichever axis is contiguous
    rng = np.random.default_rng(3)
    values = np.array(rng.standard_normal((32, 8)) + 1j * rng.standard_normal((32, 8)),
                      order=order)
    for axis in (0, 1):
        _, power = power_spectrum(values, axis=axis)
        assert power.shape == (values.shape[axis],)
        assert power.sum() / values.shape[axis] == pytest.approx(norm_squared(values),
                                                                  rel=1e-13)
        assert np.allclose(power, (np.abs(np.fft.fft(values, axis=axis)) ** 2).sum(axis=1 - axis),
                           rtol=1e-13, atol=0.0)
