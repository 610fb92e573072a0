import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clocklab.brackets import (
    coordinate_observable,
    dirac_bracket,
    dirac_table,
    expected_dirac_table,
    phi1,
    phi2,
    poisson_bracket,
    random_points,
    reduced_canonical_pair,
)
from clocklab.dynamics import ExtendedPhaseSpacePoint
from oracles import (
    oracle_phi1,
    oracle_phi2,
    per_pair_dirac_bracket,
    per_pair_dirac_table,
    per_pair_poisson_bracket,
)

PT = random_points(seed=3, count=1)[0]


def test_constraint_pair_bracket_is_one():
    for pt in random_points(seed=5, count=10):
        assert poisson_bracket(phi1, phi2, pt) == pytest.approx(1.0, abs=1e-8)


def test_canonical_coordinate_brackets():
    tau = coordinate_observable("tau")
    p_tau = coordinate_observable("p_tau")
    m = coordinate_observable("M")
    assert poisson_bracket(tau, p_tau, PT) == pytest.approx(1.0, abs=1e-8)
    assert poisson_bracket(tau, m, PT) == pytest.approx(0.0, abs=1e-8)


def test_dirac_proper_time_mass_pair():
    tau = coordinate_observable("tau")
    m = coordinate_observable("M")
    for pt in random_points(seed=7, count=10):
        assert dirac_bracket(tau, m, pt) == pytest.approx(1.0, abs=1e-6)


def test_dirac_position_momentum_pairs():
    for i in range(1, 4):
        for j in range(1, 4):
            value = dirac_bracket(coordinate_observable(f"x{i}"),
                                  coordinate_observable(f"p{j}"), PT)
            assert value == pytest.approx(1.0 if i == j else 0.0, abs=1e-6)


def test_dirac_vanishing_entries():
    tau = coordinate_observable("tau")
    m = coordinate_observable("M")
    p_m = coordinate_observable("p_M")
    x1 = coordinate_observable("x1")
    assert dirac_bracket(tau, p_m, PT) == pytest.approx(0.0, abs=1e-6)
    assert dirac_bracket(m, p_m, PT) == pytest.approx(0.0, abs=1e-6)
    assert dirac_bracket(tau, x1, PT) == pytest.approx(0.0, abs=1e-6)


def test_full_table_at_random_points():
    expected = expected_dirac_table()
    for pt in random_points(seed=13, count=5):
        table = dirac_table(pt)
        for pair, value in table.items():
            assert value == pytest.approx(expected[pair], abs=1e-6), pair


def test_reduced_pair_on_surface():
    pt = ExtendedPhaseSpacePoint(tau=2.0, p_tau=5.0, M=5.0, p_M=0.0,
                                 x=np.zeros(3), p=np.zeros(3))
    T, E = reduced_canonical_pair(pt)
    assert (T, E) == (2.0, 5.0)


def test_reduced_pair_definition():
    pt = ExtendedPhaseSpacePoint(tau=2.0, p_tau=4.0, M=3.0, p_M=1.0,
                                 x=np.zeros(3), p=np.zeros(3))
    T, E = reduced_canonical_pair(pt)
    assert T == 1.0
    assert E == 4.0


def test_reduced_pair_is_dirac_canonical():
    def T_obs(pt):
        return reduced_canonical_pair(pt)[0]

    def E_obs(pt):
        return reduced_canonical_pair(pt)[1]

    for pt in random_points(seed=17, count=10):
        assert dirac_bracket(T_obs, E_obs, pt) == pytest.approx(1.0, abs=1e-6)


def _reduced_observables():
    """Smooth functions of the reduced set (T, E, x, p) only."""
    def a(pt):
        T, E = reduced_canonical_pair(pt)
        return math.sin(T) + 0.5 * E * E + pt.x[0] * pt.p[1]

    def b(pt):
        T, E = reduced_canonical_pair(pt)
        return T * E + math.cos(pt.p[0]) + 0.2 * pt.x[2] ** 2

    return a, b


def _reduced_canonical_fd(a, b, pt, h=1e-5):
    """Canonical bracket in the reduced variables by central differences."""
    T0, E0 = reduced_canonical_pair(pt)
    base = np.array([T0, E0, *pt.x, *pt.p])

    def eval_at(vec):
        point = ExtendedPhaseSpacePoint(tau=vec[0], p_tau=vec[1], M=vec[1], p_M=0.0,
                                        x=vec[2:5], p=vec[5:8])
        return a(point), b(point)

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
    for _ in range(5):
        z = rng.uniform(-1.5, 1.5, size=10)
        z[1] = z[2] = rng.uniform(1.0, 3.0)  # p_tau = M on the surface
        z[3] = 0.0                           # p_M = 0
        pt = ExtendedPhaseSpacePoint.from_vector(z)
        lhs = dirac_bracket(a, b, pt)
        rhs = _reduced_canonical_fd(a, b, pt)
        assert lhs == pytest.approx(rhs, abs=1e-6)


@st.composite
def quadratic_observable(draw):
    coeffs = draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False),
                           min_size=10, max_size=10))
    lin = np.array(coeffs)

    def obs(pt, lin=lin):
        z = pt.as_vector()
        return float(lin @ z + 0.1 * (z[0] * z[2] - z[4] * z[8]))

    return obs


@given(quadratic_observable(), quadratic_observable())
@settings(max_examples=20, deadline=None)
def test_dirac_antisymmetry(obs_a, obs_b):
    value_ab = dirac_bracket(obs_a, obs_b, PT)
    value_ba = dirac_bracket(obs_b, obs_a, PT)
    assert value_ab == pytest.approx(-value_ba, abs=1e-6)


def test_probe_points_are_reproducible():
    a = random_points(seed=42, count=3)
    b = random_points(seed=42, count=3)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.as_vector(), pb.as_vector())
    c = random_points(seed=43, count=3)
    assert not np.array_equal(a[0].as_vector(), c[0].as_vector())


def _hex(value):
    return float(value).hex()


@pytest.mark.parametrize("seed", [0, 1, 29])
def test_dirac_table_bitwise_equals_per_pair_oracle(seed):
    for pt in random_points(seed=seed, count=20):
        table = dirac_table(pt)
        oracle = per_pair_dirac_table(pt)
        assert list(table) == list(oracle)
        assert {k: _hex(v) for k, v in table.items()} == {k: _hex(v) for k, v in oracle.items()}


def test_wrapper_brackets_bitwise_equal_per_pair_oracle():
    def T_obs(pt):
        return reduced_canonical_pair(pt)[0]

    def E_obs(pt):
        return reduced_canonical_pair(pt)[1]

    for pt in random_points(seed=17, count=10):
        assert _hex(dirac_bracket(T_obs, E_obs, pt)) == _hex(
            per_pair_dirac_bracket(T_obs, E_obs, pt))
        assert _hex(poisson_bracket(phi1, phi2, pt)) == _hex(
            per_pair_poisson_bracket(oracle_phi1, oracle_phi2, pt))


def test_dirac_table_takes_each_gradient_once(monkeypatch):
    from_vector = ExtendedPhaseSpacePoint.from_vector
    calls = []

    def counting(z):
        calls.append(1)
        return from_vector(z)

    monkeypatch.setattr(ExtendedPhaseSpacePoint, "from_vector", staticmethod(counting))
    dirac_table(PT)
    # 12 gradients (10 coordinates, phi1, phi2) of 20 evaluations each
    assert len(calls) == 240


@pytest.mark.parametrize("h_step", [0.0, -1e-5])
def test_nonpositive_step_rejected(h_step):
    with pytest.raises(ValueError, match="h_step must be positive"):
        dirac_table(PT, h_step)
    with pytest.raises(ValueError, match="h_step must be positive"):
        poisson_bracket(phi1, phi2, PT, h_step)
