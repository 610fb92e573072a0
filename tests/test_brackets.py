import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clocklab import brackets
from clocklab.brackets import (
    COORDINATE_NAMES,
    _bracket_matrices,
    coordinate_observable,
    dirac_table,
    expected_dirac_table,
    flow_residuals,
    flow_tolerance,
    phi1,
    phi2,
    random_points,
    reduced_canonical_pair,
)
from clocklab.metric import uniform_lapse_metric
from oracles import (
    lapse_gradient_off,
    oracle_phi1,
    oracle_phi2,
    per_pair_dirac_bracket,
    per_pair_dirac_table,
    per_pair_poisson_bracket,
)

STATES = random_points(seed=3, count=1)
STEP = brackets.DEFAULT_H_STEP


def _poisson(obs_a, obs_b, states):
    """{A, B} at each state, from the batch routine."""
    return _bracket_matrices((obs_a, obs_b), states, STEP)[0][:, 0, 1]


def _dirac(obs_a, obs_b, states):
    """{A, B}_D at each state, from the batch routine."""
    return _bracket_matrices((obs_a, obs_b), states, STEP)[1][:, 0, 1]


def _T(z):
    return reduced_canonical_pair(z)[0]


def _E(z):
    return reduced_canonical_pair(z)[1]


def test_constraint_pair_bracket_is_one():
    np.testing.assert_allclose(_poisson(phi1, phi2, random_points(seed=5, count=10)), 1.0,
                               rtol=0, atol=1e-8)


def test_canonical_coordinate_brackets():
    tau = coordinate_observable("tau")
    p_tau = coordinate_observable("p_tau")
    m = coordinate_observable("M")
    assert _poisson(tau, p_tau, STATES)[0] == pytest.approx(1.0, abs=1e-8)
    assert _poisson(tau, m, STATES)[0] == pytest.approx(0.0, abs=1e-8)


def test_dirac_proper_time_mass_pair():
    tau = coordinate_observable("tau")
    m = coordinate_observable("M")
    np.testing.assert_allclose(_dirac(tau, m, random_points(seed=7, count=10)), 1.0,
                               rtol=0, atol=1e-6)


def test_dirac_position_momentum_pairs():
    for i in range(1, 4):
        for j in range(1, 4):
            value = _dirac(coordinate_observable(f"x{i}"), coordinate_observable(f"p{j}"),
                           STATES)[0]
            assert value == pytest.approx(1.0 if i == j else 0.0, abs=1e-6)


def test_dirac_vanishing_entries():
    tau = coordinate_observable("tau")
    m = coordinate_observable("M")
    p_m = coordinate_observable("p_M")
    x1 = coordinate_observable("x1")
    assert _dirac(tau, p_m, STATES)[0] == pytest.approx(0.0, abs=1e-6)
    assert _dirac(m, p_m, STATES)[0] == pytest.approx(0.0, abs=1e-6)
    assert _dirac(tau, x1, STATES)[0] == pytest.approx(0.0, abs=1e-6)


def test_full_table_at_random_points():
    expected = expected_dirac_table()
    table = dirac_table(random_points(seed=13, count=5))
    assert table.shape == (5, len(expected))
    np.testing.assert_allclose(table, np.broadcast_to(list(expected.values()), table.shape),
                               rtol=0, atol=1e-6)


def test_reduced_pair_on_surface():
    z = np.array([2.0, 5.0, 5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    T, E = reduced_canonical_pair(z)
    assert (T, E) == (2.0, 5.0)


def test_reduced_pair_definition():
    z = np.array([[2.0, 4.0, 3.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]] * 2)
    T, E = reduced_canonical_pair(z)
    assert T.tolist() == [1.0, 1.0]
    assert E.tolist() == [4.0, 4.0]


def test_reduced_pair_is_dirac_canonical():
    np.testing.assert_allclose(_dirac(_T, _E, random_points(seed=17, count=10)), 1.0,
                               rtol=0, atol=1e-6)


def _reduced_observables():
    """Smooth functions of the reduced set (T, E, x, p) only."""
    def a(z):
        T, E = reduced_canonical_pair(z)
        return np.sin(T) + 0.5 * E * E + z[..., 4] * z[..., 8]

    def b(z):
        T, E = reduced_canonical_pair(z)
        return T * E + np.cos(z[..., 7]) + 0.2 * z[..., 6] ** 2

    return a, b


def _reduced_canonical_fd(a, b, z, h=1e-5):
    """Canonical bracket in the reduced variables by central differences."""
    T0, E0 = reduced_canonical_pair(z)
    base = np.array([T0, E0, *z[4:10]])

    def eval_at(vec):
        state = np.array([vec[0], vec[1], vec[1], 0.0, *vec[2:8]])
        return a(state), b(state)

    grads_a = np.empty(8)
    grads_b = np.empty(8)
    for i in range(8):
        hp = h * max(1.0, abs(base[i]))
        vp = base.copy(); vp[i] += hp
        vm = base.copy(); vm[i] -= hp
        ap, bp = eval_at(vp)
        am, bm = eval_at(vm)
        grads_a[i] = (ap - am) / (2.0 * hp)
        grads_b[i] = (bp - bm) / (2.0 * hp)
    pairs = ((0, 1), (2, 5), (3, 6), (4, 7))
    return sum(grads_a[q] * grads_b[p] - grads_a[p] * grads_b[q] for q, p in pairs)


def test_dirac_matches_reduced_canonical_bracket_on_surface():
    a, b = _reduced_observables()
    rng = np.random.default_rng(23)
    states = rng.uniform(-1.5, 1.5, size=(5, 10))
    states[:, 1] = states[:, 2] = rng.uniform(1.0, 3.0, size=5)  # p_tau = M on the surface
    states[:, 3] = 0.0                                           # p_M = 0
    lhs = _dirac(a, b, states)
    for value, z in zip(lhs, states):
        assert value == pytest.approx(_reduced_canonical_fd(a, b, z), abs=1e-6)


@st.composite
def quadratic_observable(draw):
    coeffs = draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False),
                           min_size=10, max_size=10))
    lin = np.array(coeffs)

    def obs(z, lin=lin):
        return z @ lin + 0.1 * (z[..., 0] * z[..., 2] - z[..., 4] * z[..., 8])

    return obs


@given(quadratic_observable(), quadratic_observable())
@settings(max_examples=20, deadline=None)
def test_dirac_antisymmetry(obs_a, obs_b):
    D = _bracket_matrices((obs_a, obs_b), STATES, STEP)[1][0]
    assert D[0, 1] == pytest.approx(-D[1, 0], abs=1e-6)
    assert _dirac(obs_a, obs_b, STATES)[0] == pytest.approx(
        -_dirac(obs_b, obs_a, STATES)[0], abs=1e-6)


def test_probe_points_are_reproducible():
    a = random_points(seed=42, count=3)
    b = random_points(seed=42, count=3)
    assert a.shape == (3, 10)
    assert np.array_equal(a, b)
    c = random_points(seed=43, count=3)
    assert not np.array_equal(a[0], c[0])
    # stream i depends on (seed, i) only, not on how many probes are drawn
    assert np.array_equal(random_points(seed=42, count=5)[:3], a)


def _hex(value):
    return float(value).hex()


@pytest.mark.parametrize("seed", [0, 1, 29])
def test_dirac_table_bitwise_equals_per_pair_oracle(seed):
    states = random_points(seed=seed, count=20)
    table = dirac_table(states)
    for values, z in zip(table, states):
        oracle = per_pair_dirac_table(z)
        assert list(oracle) == list(expected_dirac_table())
        assert [_hex(v) for v in values] == [_hex(v) for v in oracle.values()]


def test_batch_brackets_bitwise_equal_per_pair_oracle():
    def T_one(z):  # tau - p_M at one state
        return z[0] - z[3]

    def E_one(z):  # p_tau
        return z[1]

    states = random_points(seed=17, count=10)
    dirac = _dirac(_T, _E, states)
    poisson = _poisson(phi1, phi2, states)
    for k, z in enumerate(states):
        assert _hex(dirac[k]) == _hex(per_pair_dirac_bracket(T_one, E_one, z))
        assert _hex(poisson[k]) == _hex(per_pair_poisson_bracket(oracle_phi1, oracle_phi2, z))


def test_dirac_table_takes_each_gradient_once(monkeypatch):
    calls = []

    def counting(obs):
        def wrapped(z):
            calls.append(z.shape)
            return obs(z)
        return wrapped

    make_coordinate = brackets.coordinate_observable
    monkeypatch.setattr(brackets, "coordinate_observable",
                        lambda name: counting(make_coordinate(name)))
    monkeypatch.setattr(brackets, "phi1", counting(phi1))
    monkeypatch.setattr(brackets, "phi2", counting(phi2))
    for count in (1, 7, 50):
        calls.clear()
        dirac_table(random_points(seed=3, count=count))
        # 12 observables (10 coordinates, phi1, phi2), each on the +h and -h stacks
        assert calls == [(count, 10, 10)] * 24


@pytest.mark.parametrize("h_step", [0.0, -1e-5])
def test_nonpositive_step_rejected(h_step):
    with pytest.raises(ValueError, match="h_step must be positive"):
        dirac_table(STATES, h_step)
    with pytest.raises(ValueError, match="h_step must be positive"):
        _bracket_matrices((phi1, phi2), STATES, h_step)


# --- the Dirac flow of the total Hamiltonian against the equations of motion

FLOW_METRIC = uniform_lapse_metric(0.1, a0_slope=0.3)


def _surface_states(seed, count):
    """Probe states of order-1 coordinates taken onto the constraint surface."""
    states = random_points(seed=seed, count=count, scale=1.0)
    states[:, 1] = states[:, 2]
    states[:, 3] = 0.0
    return states


@pytest.mark.parametrize("h_step", [1e-3, 1e-5, 1e-8])
def test_flow_matches_the_equations_of_motion(h_step):
    flow, pair = flow_residuals(_surface_states(1, 50), FLOW_METRIC, 1.0, h_step)
    assert flow <= flow_tolerance(h_step)
    assert pair <= 1e-6
    # the bound has room, and the residual is not zero for want of a flow
    assert flow > 0.01 * flow_tolerance(h_step)


def test_flow_check_fails_a_mutant_lapse_gradient(monkeypatch):
    states = _surface_states(1, 50)
    lapse_gradient_off(monkeypatch, 1e-6)
    flow, _ = flow_residuals(states, FLOW_METRIC, 1.0, brackets.DEFAULT_H_STEP)
    assert flow > 100.0 * flow_tolerance(brackets.DEFAULT_H_STEP)


def test_flow_residuals_read_one_batch(monkeypatch):
    calls = []
    batch = brackets._bracket_matrices

    def counting(observables, states, h_step):
        calls.append(len(observables))
        return batch(observables, states, h_step)

    monkeypatch.setattr(brackets, "_bracket_matrices", counting)
    flow_residuals(_surface_states(2, 5), FLOW_METRIC, 1.0)
    assert calls == [len(COORDINATE_NAMES) + 3]  # the coordinates, H, T and E
