import warnings

import numpy as np
import pytest

from clocklab.grids import NumericalHealthWarning, wavenumbers
from clocklab.operators import TAU_WINDOW_LIMIT, commutator_residual, evolve, tau_statistics
from clocklab.moments import (
    SPREAD_FLOOR,
    state_moments,
    tau_moments_simulated,
)
from clocklab.states import (
    GaussianClockSpec,
    MomentumSpaceState,
    gaussian_state,
    make_gaussian_state,
    state_from_profiles,
    suggest_grids,
)

from oracles import (
    chirped_product,
    dilation,
    exact_gaussian_variance,
    gauss_hermite_mean,
    gaussian_profile,
    per_function_energy_moments,
    per_function_energy_sharpness,
    per_function_uncertainty_product,
    per_function_variance_law,
    profile_spreads,
    two_hump_profile,
)


def _state(e0=10.0, sigma_e=0.5, tau0=0.0, p0=0.0, sigma_p=0.5, t_max=0.0):
    return gaussian_state(GaussianClockSpec(e0, sigma_e, tau0, p0, sigma_p), t_max=t_max)


def test_rest_clock_mean_reading_tracks_time():
    state = _state(e0=10.0, sigma_e=0.5, tau0=1.5, sigma_p=0.001, t_max=20.0)
    moments = tau_moments_simulated(state, 20.0)
    assert moments.mean_tau == pytest.approx(21.5, abs=1e-4)


def test_mean_reading_is_linear_in_time():
    state = _state(e0=10.0, sigma_e=0.5, tau0=0.5, p0=3.0, sigma_p=0.4, t_max=50.0)
    moments = state_moments(state)
    d_mean, tau0 = moments.d_mean, moments.reading.mean_tau
    for t in (1.0, 10.0, 50.0):
        mean = tau_moments_simulated(state, t).mean_tau
        expected = tau0 + d_mean * t
        assert mean == pytest.approx(expected, rel=1e-8)


@pytest.mark.parametrize("spec", [
    GaussianClockSpec(e0=10.0, sigma_e=0.5, sigma_p=0.5),
    GaussianClockSpec(e0=10.0, sigma_e=0.5, tau0=2.0, p0=3.0, sigma_p=0.4),
    GaussianClockSpec(e0=-10.0, sigma_e=0.5, sigma_p=0.5),
    GaussianClockSpec(e0=10.0, sigma_e=2.0, p0=1000.0, sigma_p=0.05),
])
def test_variance_growth_matches_quadratic_law(spec):
    state = gaussian_state(spec, t_max=100.0)
    law = state_moments(state).law
    for t in (0.0, 1.0, 10.0, 100.0):
        sim = tau_moments_simulated(state, t).var_tau
        assert sim == pytest.approx(law.predict(t), rel=1e-7)


def test_variance_at_t50_matches_law():
    state = _state(t_max=50.0)
    law = state_moments(state).law
    sim = tau_moments_simulated(state, 50.0).var_tau
    assert sim == pytest.approx(law.predict(50.0), rel=1e-8)


def test_quad_coefficient_against_quadrature_oracle():
    state = _state()
    law = state_moments(state).law
    d1 = gauss_hermite_mean(dilation, 10.0, 0.5, 0.0, 0.5)
    d2 = gauss_hermite_mean(lambda E, P: dilation(E, P) ** 2, 10.0, 0.5, 0.0, 0.5)
    assert law.quad == pytest.approx(d2 - d1**2, rel=1e-5)
    assert law.quad == pytest.approx(3.148720497669899e-06, rel=1e-5)


def test_cross_term_vanishes_for_real_gaussians():
    for tau0 in (0.0, 3.0, -7.0, 17.0):
        state = _state(tau0=tau0)
        law = state_moments(state).law
        assert abs(law.lin) <= 1e-9


def test_cross_term_nonzero_for_chirped_state():
    spec = GaussianClockSpec(10.0, 0.5, p0=1000.0, sigma_p=0.5)
    e_grid, p_grid = suggest_grids(spec)
    beta = 0.4
    state = state_from_profiles(
        e_grid, p_grid,
        lambda E: np.exp(-(E - 10.0) ** 2 / 1.0 + 1j * beta * (E - 10.0) ** 2),
        lambda p: np.exp(-((p - 1000.0) ** 2)))
    law = state_moments(state).law
    assert abs(law.lin) > 1e-5


def test_sharp_energy_estimate_valid_for_boosted_clock():
    state = _state(e0=10.0, sigma_e=0.1, p0=1000.0, sigma_p=0.1)
    moments = state_moments(state)
    assert moments.sharpness < 0.05
    assert moments.law.quad == pytest.approx(moments.e_var / moments.h_mean**2, rel=2e-4)
    assert moments.law.lin == pytest.approx(0.0, abs=1e-9)


def test_sharp_energy_estimate_fails_for_rest_clock():
    # dilation fluctuations of a momentum-localized rest clock are far below
    # the (dE/<H>)^2 estimate: the rest-energy fluctuation cancels between
    # numerator and denominator of D = E/H when H ~ |E|
    state = _state(e0=10.0, sigma_e=0.1, p0=0.0, sigma_p=0.1)
    moments = state_moments(state)
    assert moments.sharpness < 0.05
    assert moments.law.quad < 1e-2 * moments.e_var / moments.h_mean**2


def test_sharpness_shrinks_with_narrower_spreads():
    wide = state_moments(_state(sigma_e=1.0, sigma_p=1.0)).sharpness
    narrow = state_moments(_state(sigma_e=0.1, sigma_p=0.1)).sharpness
    assert narrow < wide


def test_broad_state_reported_without_assertion():
    # momentum window sits away from p = 0, keeping the dilation rate defined
    # even though the rest-energy support crosses zero
    assert state_moments(_state(e0=10.0, sigma_e=5.0, p0=3.0, sigma_p=0.2)).sharpness > 0.1


def test_boosted_clock_sharpness_matches_quadrature():
    # dH/<H> is about 5e-5, so <H^2> - <H>^2 cancels some nine digits; the
    # centred spread keeps them (the uncentred one missed by 2.2e-7)
    e0, sigma_e, p0, sigma_p = 13.46, 1.0, 1000.0, 0.05
    h = lambda E, P: np.sqrt(E * E + P * P)
    h_mean = gauss_hermite_mean(h, e0, sigma_e, p0, sigma_p)
    h_var = gauss_hermite_mean(lambda E, P: (h(E, P) - h_mean) ** 2, e0, sigma_e, p0, sigma_p)
    moments = state_moments(_state(e0=e0, sigma_e=sigma_e, p0=p0, sigma_p=sigma_p))
    assert moments.sharpness == pytest.approx(np.sqrt(h_var) / h_mean, rel=1e-10)


def test_bound_check_fields():
    moments = state_moments(_state(e0=10.0, sigma_e=0.2, sigma_p=0.5, t_max=10.0))
    assert moments.clock_bound(10.0) == 10.0 / moments.h_mean  # hbar t / <H>


def test_bound_trivial_as_time_vanishes():
    state = _state(sigma_e=0.2)
    # var(0) > 0 while the bound goes to zero
    assert tau_moments_simulated(state, 1e-9).var_tau >= state_moments(state).clock_bound(1e-9)


def test_bound_rejects_nonpositive_time():
    moments = state_moments(_state())
    for t in (0.0, -1.0):
        with pytest.raises(ValueError):
            moments.clock_bound(t)


def test_bound_satisfied_across_boosted_family():
    for sigma_e in (0.05, 0.2, 0.7, 2.0):
        state = _state(e0=10.0, sigma_e=sigma_e, p0=1000.0, sigma_p=0.05, t_max=100.0)
        moments = state_moments(state)
        assert moments.sharpness <= 0.05
        for t in (1.0, 10.0, 100.0):
            var, bound = tau_moments_simulated(state, t).var_tau, moments.clock_bound(t)
            assert var >= bound, (sigma_e, t, var - bound)


def test_near_saturation_width_for_boosted_clock():
    # sigma_e = sqrt(hbar <H> / 2t) should sit within a few percent of the bound
    state = _state(e0=10.0, sigma_e=2.236, p0=1000.0, sigma_p=0.05, t_max=100.0)
    assert tau_moments_simulated(state, 100.0).var_tau == pytest.approx(
        state_moments(state).clock_bound(100.0), rel=0.05)


def test_gaussian_saturates_uncertainty_floor():
    # at e0 = 1e4, <E^2> - <E>^2 would cancel eleven digits of Var E
    for e0, sigma_e in ((10.0, 0.1), (10.0, 0.5), (10.0, 2.0), (1e4, 0.05)):
        product = state_moments(_state(e0=e0, sigma_e=sigma_e))
        assert product.spread_product == pytest.approx(SPREAD_FLOOR, abs=1e-6)


def test_chirped_gaussian_exceeds_floor():
    sigma, beta = 0.5, 0.4
    spec = GaussianClockSpec(10.0, sigma, sigma_p=0.5)
    e_grid, p_grid = suggest_grids(spec)
    state = state_from_profiles(
        e_grid, p_grid,
        lambda E: np.exp(-(E - 10.0) ** 2 / (4 * sigma**2) + 1j * beta * E**2),
        lambda p: np.exp(-(p**2)))
    product = state_moments(state)
    expected = chirped_product(sigma, beta)
    assert product.spread_product == pytest.approx(expected, rel=1e-6)
    assert product.spread_product > 0.5 + 1e-3


def test_two_hump_superposition_far_above_floor():
    e0, a, sigma = 10.0, 5.0, 1.0
    g, dg = two_hump_profile(e0, a, sigma)
    d_e, d_tau, prod = profile_spreads(g, dg, lambda E: np.zeros_like(E),
                                       e0 - a - 30 * sigma, e0 + a + 30 * sigma)
    from clocklab.grids import UniformGrid, hermite_axis
    e_grid = UniformGrid(e0 - 32.0, e0 + 32.0, 2048)
    p_grid = hermite_axis(0.0, 1.0, 16)
    state = state_from_profiles(e_grid, p_grid, lambda E: g(E) + 0j,
                                lambda p: np.exp(-p**2 / 4.0))
    product = state_moments(state)
    assert product.spread_product == pytest.approx(prod, rel=1e-6)
    assert product.spread_product > 5 * SPREAD_FLOOR


def test_negative_rest_energy_clock_runs_backwards():
    state = _state(e0=-10.0, sigma_e=0.5, sigma_p=0.5, t_max=50.0)
    assert state_moments(state).d_mean < -0.99
    m0 = tau_moments_simulated(state, 0.0).mean_tau
    m1 = tau_moments_simulated(state, 10.0).mean_tau
    m2 = tau_moments_simulated(state, 50.0).mean_tau
    assert m1 < m0 and m2 < m1
    law = state_moments(state).law
    for t in (10.0, 50.0):
        assert tau_moments_simulated(state, t).var_tau == pytest.approx(
            law.predict(t), rel=1e-7)


# --- co-moving frame --------------------------------------------------------

@pytest.mark.parametrize("t", [1e3, 1e4])
def test_frame_reading_matches_exact_variance_at_long_times(t):
    spec = GaussianClockSpec(e0=10.0, sigma_e=0.5, sigma_p=0.5)
    state = gaussian_state(spec, t_max=t)
    assert state.e_grid.n <= 4096
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reading = tau_moments_simulated(state, t)
    assert reading.var_tau == pytest.approx(
        exact_gaussian_variance(10.0, 0.5, 0.0, 0.5, t), rel=1e-7)


@pytest.mark.parametrize("spec", [
    GaussianClockSpec(e0=10.0, sigma_e=0.5, sigma_p=0.5),
    GaussianClockSpec(e0=10.0, sigma_e=0.5, tau0=0.5, p0=3.0, sigma_p=0.4),
    GaussianClockSpec(e0=-10.0, sigma_e=0.5, sigma_p=0.5),
], ids=["rest", "moving", "negative"])
def test_frame_reading_matches_lab_frame_on_fine_grid(spec):
    t = 1000.0
    reading = tau_moments_simulated(gaussian_state(spec, t_max=t), t)
    # lab frame: the whole drift t <D> fits the tau window of 8192 E nodes
    lab = evolve(make_gaussian_state(spec, *suggest_grids(spec, n_e=8192)), t)
    stats = tau_statistics(lab)
    mean = stats.mean
    # centred, since <tau^2> - <tau>^2 loses digits to <tau> ~ t: tau acts
    # on the spectrum as -k, so tau - <tau> acts as -(k + <tau>)
    power = (np.abs(stats.spectrum) ** 2).sum(axis=1)
    k = wavenumbers(lab.e_grid)
    var = ((k + mean) ** 2 * power).sum() * lab.cell_measure() / lab.e_grid.n
    assert reading.mean_tau == pytest.approx(mean, rel=1e-9)
    assert reading.var_tau == pytest.approx(var, rel=1e-9)


def test_reading_beyond_tau_window_warns():
    # D - v spans about +-0.14, so t = 3000 drifts the reading some 430
    # past its centre, beyond the |tau| < 268 window of a grid sized for t = 0
    spec = GaussianClockSpec(e0=10.0, sigma_e=0.5, p0=10.0, sigma_p=0.5)
    state = make_gaussian_state(spec, *suggest_grids(spec))
    t = 3000.0
    with pytest.warns(NumericalHealthWarning, match="proper-time window"):
        reading = tau_moments_simulated(state, t)
    assert reading.tau_window > TAU_WINDOW_LIMIT
    # the check is not a false alarm: the wrapped reading is wrong
    exact = exact_gaussian_variance(10.0, 0.5, 10.0, 0.5, t)
    assert abs(reading.var_tau - exact) > 1e-4 * exact


def test_healthy_boosted_reading_is_silent():
    spec = GaussianClockSpec(e0=10.0, sigma_e=2.0, p0=1000.0, sigma_p=0.05)
    state = make_gaussian_state(spec, *suggest_grids(spec, n_e=4096))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reading = tau_moments_simulated(state, 1e4)
    assert reading.tau_window <= TAU_WINDOW_LIMIT
    assert reading.var_tau == pytest.approx(state_moments(state).law.predict(1e4), rel=1e-7)


@pytest.mark.parametrize("sigma_p", [0.5, 0.05, 0.01])
def test_variance_law_keeps_digits_of_a_pinned_dilation(sigma_p):
    # a rest clock's D sits within (sigma_p/e0)^2 of 1, so Var D is far
    # below the rounding of <D^2> - <D>^2; the law is read from t = 0 data
    state = gaussian_state(GaussianClockSpec(e0=10.0, sigma_e=0.5, sigma_p=sigma_p))
    law = state_moments(state).law
    for t in (1e3, 1e5):
        assert law.predict(t) == pytest.approx(
            exact_gaussian_variance(10.0, 0.5, 0.0, sigma_p, t), rel=1e-9)


# --- one moment pass per state ----------------------------------------------

def _chirped_state():
    spec = GaussianClockSpec(10.0, 0.5, p0=1000.0, sigma_p=0.5)
    return state_from_profiles(
        *suggest_grids(spec),
        lambda E: np.exp(-(E - 10.0) ** 2 / 1.0 + 1j * 0.4 * (E - 10.0) ** 2),
        lambda p: np.exp(-((p - 1000.0) ** 2)))


@pytest.mark.parametrize("make", [
    lambda: _state(e0=10.0, sigma_e=0.5, tau0=1.5, sigma_p=0.5),
    lambda: _state(e0=10.0, sigma_e=2.0, p0=1000.0, sigma_p=0.05, t_max=100.0),
    _chirped_state,
    lambda: _state(e0=-10.0, sigma_e=0.5, p0=3.0, sigma_p=0.4, t_max=50.0),
], ids=["rest", "boosted", "chirped", "negative"])
def test_state_moments_equal_per_function_formulas_bitwise(make):
    state = make()
    moments = state_moments(state)
    quad, lin, const, d_mean = per_function_variance_law(state)
    h_mean, sharpness = per_function_energy_sharpness(state)
    _, d_e, product = per_function_uncertainty_product(state)
    e_mean, e_var = per_function_energy_moments(state)
    reading = tau_moments_simulated(state, 0.0)
    fields = {
        "reading.mean_tau": (moments.reading.mean_tau, reading.mean_tau),
        "reading.var_tau": (moments.reading.var_tau, reading.var_tau),
        "reading.tau_window": (moments.reading.tau_window, reading.tau_window),
        "law.quad": (moments.law.quad, quad),
        "law.lin": (moments.law.lin, lin),
        "law.const": (moments.law.const, const),
        "e_mean": (moments.e_mean, e_mean),
        "e_var": (moments.e_var, e_var),
        "h_mean": (moments.h_mean, h_mean),
        "sharpness": (moments.sharpness, sharpness),
        "d_mean": (moments.d_mean, d_mean),
        "d_e": (moments.d_e, d_e),
        "spread_product": (moments.spread_product, product),
    }
    assert ({name: float.hex(got) for name, (got, _) in fields.items()}
            == {name: float.hex(want) for name, (_, want) in fields.items()})
    assert moments.reading.t == 0.0


@pytest.mark.parametrize("make", [
    lambda: _state(e0=10.0, sigma_e=0.5, tau0=1.5, sigma_p=0.5),
    lambda: _state(e0=10.0, sigma_e=2.0, p0=1000.0, sigma_p=0.05, t_max=100.0),
    _chirped_state,
    lambda: _state(e0=-10.0, sigma_e=0.5, p0=3.0, sigma_p=0.4, t_max=50.0),
], ids=["rest", "boosted", "chirped", "negative"])
@pytest.mark.parametrize("t", [0.0, 50.0])
def test_spectral_tau_moments_equal_the_position_space_sums(make, t):
    # the Parseval sums against <psi|tau psi> and <tau psi|tau psi> with
    # tau psi = i hbar dpsi/dE taken by an inverse transform, as readings
    # were once taken; their imaginary residue of <tau> stays at rounding
    state = evolve(make(), t)
    stats = tau_statistics(state)
    grid = state.e_grid
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.step)
    k[grid.n // 2] = 0.0
    tpsi = 1j * np.fft.ifft(1j * k[:, None] * np.fft.fft(state.values, axis=0), axis=0)
    cell = state.cell_measure()
    mean = (np.conj(state.values) * tpsi).sum() * cell
    second = (np.abs(tpsi) ** 2).sum() * cell
    assert abs(mean.imag) < 1e-8
    # relative to the spread where <tau> sits near 0
    scale = max(abs(mean.real), np.sqrt(second - mean.real**2))
    assert abs(stats.mean - mean.real) <= 1e-13 * scale
    assert stats.second == pytest.approx(second, rel=1e-13)


def test_c_and_fortran_order_values_give_bitwise_equal_statistics():
    made = _chirped_state()
    c_values = np.ascontiguousarray(made.values)
    assert c_values.flags.c_contiguous and not c_values.flags.f_contiguous
    states = [MomentumSpaceState(made.e_grid, made.p_grid, values)
              for values in (c_values, np.asfortranarray(c_values))]
    assert all(state.values.flags.f_contiguous for state in states)
    assert states[0].values.tobytes() == states[1].values.tobytes()

    def statistics(state):
        moments = state_moments(state)
        readings = [tau_moments_simulated(state, t) for t in (0.0, 50.0)]
        numbers = [moments.e_mean, moments.e_var, moments.h_mean, moments.sharpness,
                   moments.d_e, moments.spread_product, moments.d_mean, moments.law.quad,
                   moments.law.lin, moments.law.const]
        for r in [moments.reading, *readings]:
            numbers += [r.mean_tau, r.var_tau, r.tau_window]
        return [float.hex(x) for x in numbers]

    assert statistics(states[0]) == statistics(states[1])


def test_state_moments_at_the_cone_tip():
    # sigma_e = 2 spreads a rest clock's support over E = p = 0, where D is
    # undefined: the spreads stay defined, the D moments raise
    moments = state_moments(_state(sigma_e=2.0))
    assert moments.spread_product == pytest.approx(0.5, abs=1e-6)
    for name in ("law", "d_mean"):
        with pytest.raises(ValueError, match="dilation rate undefined"):
            getattr(moments, name)


@pytest.mark.parametrize("e0, p0", [(10.0, 0.0), (12.0, 1000.0), (-10.0, 3.0)],
                         ids=["rest", "boosted", "negative-E"])
def test_readings_leave_the_state_values_unwritten(e0, p0):
    # the kernels write only into arrays they allocate: every statistic
    # below reads the state, and none may write into its values
    state = gaussian_state(GaussianClockSpec(e0=e0, sigma_e=0.5, p0=p0, sigma_p=0.05),
                           t_max=100.0)
    before = state.values.tobytes()
    state_moments(state)
    for t in (0.0, 1.0, 100.0, -50.0):
        tau_moments_simulated(state, t)
    commutator_residual(state)
    assert state.values.tobytes() == before
