import math

import pytest

from clocklab.moments import state_moments, tau_moments_simulated
from clocklab.search import (
    OptimizerBracketError,
    default_bracket,
    golden_section_min,
    optimize_clock_width,
)
from clocklab.states import GaussianClockSpec, gaussian_state

from oracles import sharp_energy_minimum


def _width_search(e0, p0, sigma_p, t, sigma_bounds=None):
    """The optimizer on simulated readings at t of Gaussian clocks sized for
    t, over the default bracket unless one is given; returns the result, the
    t = 0 moments of the best state and the number of readings taken."""
    def state(sigma_e):
        return gaussian_state(GaussianClockSpec(e0, sigma_e, p0=p0, sigma_p=sigma_p), t_max=t)

    readings = []

    def var_at(sigma_e):
        readings.append(sigma_e)
        return tau_moments_simulated(state(sigma_e), t).var_tau

    result = optimize_clock_width(var_at, sigma_bounds or default_bracket(e0, p0, t))
    return result, state_moments(state(result.sigma_e_opt)), len(readings)


def test_golden_section_on_parabola():
    calls = []

    def parabola(x):
        calls.append(x)
        return (x - 1.3) ** 2 + 2.0

    x, fx = golden_section_min(parabola, 0.0, 4.0, tol=1e-6)
    assert x == pytest.approx(1.3, abs=1e-5)
    assert fx == pytest.approx(2.0, abs=1e-9)
    assert len(calls) < 50


def test_golden_section_rejects_bad_interval():
    with pytest.raises(ValueError):
        golden_section_min(lambda x: x * x, 1.0, 1.0)


def test_boosted_clock_saturates_bound():
    # ultrarelativistic clock: the sharp-energy growth law is accurate, so
    # the best width and minimum variance follow the closed form
    result, best, _ = _width_search(e0=10.0, p0=1000.0, sigma_p=0.05, t=100.0)
    sigma_pred, min_pred = sharp_energy_minimum(best.h_mean, 100.0)
    bound = best.clock_bound(100.0)
    assert result.sigma_e_opt == pytest.approx(sigma_pred, rel=0.10)
    assert result.min_var == pytest.approx(min_pred, rel=0.05)
    assert result.min_var >= bound - 1e-3
    assert result.min_var <= 1.05 * bound
    assert best.sharpness < 0.05


def test_boosted_scaling_with_time():
    base, _, _ = _width_search(e0=10.0, p0=1000.0, sigma_p=0.05, t=100.0)
    quad, best, _ = _width_search(e0=10.0, p0=1000.0, sigma_p=0.05, t=400.0)
    assert quad.sigma_e_opt == pytest.approx(0.5 * base.sigma_e_opt, rel=0.10)
    assert quad.min_var == pytest.approx(4.0 * base.min_var, rel=0.05)
    assert quad.min_var >= best.clock_bound(400.0) - 1e-3


def test_rest_clock_variance_never_reaches_bound():
    # a momentum-localized rest clock accumulates essentially no dilation
    # spread, so the simulated variance is monotone decreasing in sigma_e
    # across any safe bracket and the search hits the bracket edge far
    # below the bound
    with pytest.raises(OptimizerBracketError) as edge:
        _width_search(e0=10.0, p0=0.0, sigma_p=0.05, t=100.0, sigma_bounds=(0.05, 1.0))
    assert edge.value.edge == "hi"


def test_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        default_bracket(e0=10.0, p0=0.0, t=0.0)


@pytest.mark.parametrize("bounds", [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.0, math.inf)])
def test_rejects_a_bracket_outside_zero_to_inf(bounds):
    with pytest.raises(ValueError):
        optimize_clock_width(lambda sigma_e: sigma_e, bounds)


def test_trace_is_recorded():
    result, _, readings = _width_search(e0=10.0, p0=1000.0, sigma_p=0.05, t=100.0)
    assert len(result.trace) == readings
    sigmas = [s for s, _ in result.trace]
    assert min(sigmas) > 0.0
