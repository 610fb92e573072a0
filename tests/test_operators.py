import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clocklab.moments import state_moments
from clocklab.operators import (
    commutator_residual,
    dilation_multiplier,
    energy_multiplier,
    evolve,
    tau_statistics,
)
from clocklab.states import GaussianClockSpec, gaussian_state

from oracles import dilation, gauss_hermite_mean


def _state(e0=10.0, sigma_e=0.5, tau0=0.0, p0=0.0, sigma_p=0.5, t_max=0.0):
    return gaussian_state(GaussianClockSpec(e0, sigma_e, tau0, p0, sigma_p), t_max=t_max)


def test_tau_phase_eigenvalue():
    state = _state(tau0=2.5)
    assert state_moments(state).reading.mean_tau == pytest.approx(2.5, abs=1e-8)


def test_tau_of_real_gaussian_vanishes():
    assert state_moments(_state()).reading.mean_tau == pytest.approx(0.0, abs=1e-10)


def test_commutator_on_gaussian_states():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        state = _state(e0=rng.uniform(5, 15), sigma_e=rng.uniform(0.2, 1.0),
                       tau0=rng.uniform(-3, 3), p0=rng.uniform(-5, 5),
                       sigma_p=rng.uniform(0.2, 1.0))
        assert commutator_residual(state) < 1e-8


def test_evolve_zero_time_is_identity():
    state = _state()
    assert evolve(state, 0.0) is state


def test_evolve_preserves_norm():
    state = _state()
    evolved = evolve(state, 100.0)
    nrm = np.vdot(evolved.values, evolved.values).real * evolved.cell_measure()
    assert nrm == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("e0, p0", [(10.0, 0.0), (12.0, 1000.0), (-10.0, 3.0)],
                         ids=["rest", "boosted", "negative-E"])
@pytest.mark.parametrize("t", [100.0, -50.0, 1e-3])
def test_evolve_phase_is_the_complex_exponential_bitwise(e0, p0, t):
    state = _state(e0=e0, sigma_e=0.5, p0=p0, sigma_p=0.05, t_max=abs(t))
    eg = state.e_grid
    E, P = eg.nodes[:, None], state.p_grid.nodes[None, :]
    e_c = eg.lo + eg.step * (eg.n // 2)
    H, H_c = np.sqrt(E * E + P**2), np.sqrt(e_c * e_c + P**2)
    # the phase relative to H_c(p), H - H_c = (E - e_c)(E + e_c) / (H + H_c)
    relative = (E - e_c) * (E + e_c) / (H + H_c)
    evolved = evolve(state, t).values
    assert evolved.tobytes() == (np.exp((-1j * t) * relative) * state.values).tobytes()
    # the factor exp(-i t H_c) it drops restores exp(-itH), to the rounding of
    # t H and of the complex products
    restored = evolved * np.exp((-1j * t) * H_c)
    exact = np.exp((-1j * t) * H) * state.values
    bound = 4.0 * np.finfo(float).eps * (abs(t) * H + 1.0) * np.abs(state.values)
    assert (np.abs(restored - exact) <= bound).all()


def test_state_arrays_keep_the_e_axis_contiguous():
    # every reading transforms along E, so E runs down contiguous columns
    state = _state(e0=12.0, p0=1000.0, sigma_p=0.05, t_max=100.0)
    arrays = {
        "state": state.values,
        "evolve": evolve(state, 100.0).values,
        "energy": energy_multiplier(state),
        "dilation": dilation_multiplier(state),
        "spectrum": tau_statistics(state).spectrum,
    }
    for name, values in arrays.items():
        assert values.shape == (state.e_grid.n, state.p_grid.n), name
        assert values.flags.f_contiguous and not values.flags.c_contiguous, name


@given(t1=st.floats(-20, 20, allow_nan=False), t2=st.floats(-20, 20, allow_nan=False))
@settings(max_examples=15, deadline=None)
def test_evolve_group_law(t1, t2):
    state = _state(t_max=50.0)
    a = evolve(evolve(state, t1), t2).values
    b = evolve(state, t1 + t2).values
    assert np.abs(a - b).max() < 1e-12


def test_dilation_of_nearly_sharp_rest_state():
    state = _state(e0=1.0, sigma_e=0.05, sigma_p=0.001)
    assert abs(state_moments(state).d_mean - 1.0) <= 1e-4


def test_dilation_of_boosted_state_matches_quadrature():
    state = _state(e0=10.0, sigma_e=0.1, p0=7.5, sigma_p=0.1)
    value = state_moments(state).d_mean
    assert value == pytest.approx(0.8, abs=5e-3)          # peaked estimate e0/H
    assert value == pytest.approx(0.799974398771, abs=1e-9)  # Gauss-Hermite oracle


def test_dilation_oracle_cross_check_wide_state():
    state = _state(e0=10.0, sigma_e=0.5, p0=0.0, sigma_p=0.5)
    oracle = gauss_hermite_mean(dilation, 10.0, 0.5, 0.0, 0.5)
    assert state_moments(state).d_mean == pytest.approx(oracle, abs=1e-9)


def test_dilation_sign_follows_rest_energy():
    state = _state(e0=-10.0, sigma_e=0.5, sigma_p=0.5)
    assert state_moments(state).d_mean == pytest.approx(-0.998747641439, abs=1e-8)


def test_dilation_undefined_near_cone_tip():
    state = _state(e0=0.0, sigma_e=1.0, p0=0.0, sigma_p=1.0)
    moments = state_moments(state)
    with pytest.raises(ValueError, match="dilation"):
        moments.d_mean


def test_total_energy_expectation():
    state = _state(e0=10.0, sigma_e=0.1, p0=7.5, sigma_p=0.1)
    oracle = gauss_hermite_mean(lambda E, P: np.sqrt(E**2 + P**2), 10.0, 0.1, 7.5, 0.1)
    assert state_moments(state).h_mean == pytest.approx(oracle, rel=1e-10)

