import math

import numpy as np
import pytest

from clocklab.brackets import random_points
from clocklab.dynamics import (
    _READ,
    COLUMN_CLOCKS,
    STAGE_BLOCK,
    _rates,
    constraint_drift,
    geodesic_lorentz_residual,
    hamilton_rhs,
    integrate,
    motion_rounding_floor,
    moving_clock,
    proper_time_residual,
    rate_rounding_floor,
    relative_drift,
    total_hamiltonian,
)
from clocklab.metric import LapseHorizonError, StaticMetric, uniform_lapse_metric

from oracles import (
    hyperbolic_motion,
    per_sample_motion_residual,
    per_sample_rate_residual,
    rk4_reference,
)

FLAT = StaticMetric()


# on the constraint surface the total Hamiltonian is the base Hamiltonian
# H0 = f sqrt(M^2 + c^2 |p|^2) - c e A_0
def test_base_hamiltonian_rest_energy():
    assert total_hamiltonian(moving_clock(1.0), FLAT) == pytest.approx(1.0, abs=1e-15)


def test_base_hamiltonian_three_four_five():
    z = moving_clock(1.0, (0.75, 0.0, 0.0))
    assert total_hamiltonian(z, FLAT) == pytest.approx(1.25, abs=1e-15)


def test_base_hamiltonian_potential_shift():
    metric = StaticMetric(a0_slope=2.0)  # A_0 = 2 at x^1 = 1
    z = moving_clock(1.0, x=(1.0, 0.0, 0.0))
    assert total_hamiltonian(z, metric, charge=1.0) == pytest.approx(-1.0, abs=1e-15)


def test_total_hamiltonian_on_surface_equals_base():
    metric = uniform_lapse_metric(0.05, a0_slope=0.02)
    z = moving_clock(1.0, (0.75, 0.0, 0.0), x=(2.0, 0.0, 0.0))
    base = 1.1 * 1.25 - 0.5 * 0.02 * 2.0  # f R - e A_0 at x^1 = 2
    assert total_hamiltonian(z, metric, charge=0.5) == pytest.approx(base, abs=1e-15)
    assert total_hamiltonian(z, FLAT) == pytest.approx(1.25, abs=1e-15)


def test_total_hamiltonian_off_surface():
    z = moving_clock(1.0)
    z[1] = 0.0  # p_tau = 0, so phi1 = M
    assert total_hamiltonian(z, FLAT) == pytest.approx(0.0, abs=1e-15)


def test_rest_clock_ticks_at_unit_rate():
    rates = hamilton_rhs(moving_clock(1.0), FLAT)
    assert rates[0] == pytest.approx(1.0, abs=1e-15)  # tau
    assert rates[1] == 0.0                            # p_tau
    assert rates[2] == 0.0                            # M
    assert rates[3] == pytest.approx(0.0, abs=1e-12)  # p_M
    assert np.abs(rates[4:10]).max() == 0.0           # x and p


def test_moving_clock_rate_matches_dilation():
    rates = hamilton_rhs(moving_clock(1.0, (0.75, 0.0, 0.0)), FLAT)
    assert rates[0] == pytest.approx(0.8, abs=1e-15)  # 1/gamma at v = 0.6c
    assert rates[4] == pytest.approx(0.6, abs=1e-15)
    assert rates[3] == pytest.approx(0.0, abs=1e-12)


def test_rhs_matches_finite_difference_gradient_of_h():
    rng = np.random.default_rng(11)
    metric = uniform_lapse_metric(0.05)
    for _ in range(5):
        z = rng.uniform(-0.5, 0.5, size=10)
        z[2] += 2.0
        rates = hamilton_rhs(z, metric, charge=0.3)
        h = 1e-6
        pairs = ((0, 1), (2, 3), (4, 7), (5, 8), (6, 9))
        for q_idx, p_idx in pairs:
            for idx, sign, slot in ((p_idx, 1.0, q_idx), (q_idx, -1.0, p_idx)):
                zp = z.copy(); zp[idx] += h
                zm = z.copy(); zm[idx] -= h
                fd = (total_hamiltonian(zp, metric, 0.3)
                      - total_hamiltonian(zm, metric, 0.3)) / (2.0 * h) * sign
                assert rates[slot] == pytest.approx(fd, abs=5e-8)


def test_integrate_requires_on_surface_data():
    z = moving_clock(1.0)
    z[1] = 0.5  # p_tau != M
    with pytest.raises(ValueError, match="constraint surface"):
        integrate(z, FLAT, 0.0, 1.0, 0.1)


def test_flat_rest_clock_tracks_coordinate_time():
    states = integrate(moving_clock(1.0), FLAT, 0.0, 10.0, 1e-2)
    assert states[-1, 0] == pytest.approx(10.0, abs=1e-10)


def test_flat_v06_time_dilation():
    states = integrate(moving_clock(1.0, (0.75, 0.0, 0.0)), FLAT, 0.0, 10.0, 1e-3)
    assert states[-1, 0] == pytest.approx(8.0, abs=1e-9)
    assert states[-1, 4] == pytest.approx(6.0, abs=1e-9)
    assert proper_time_residual(states, 1e-3, FLAT) < 1e-8


def test_held_clock_redshift_rate():
    g_acc, q = 0.05, 2.0
    metric = uniform_lapse_metric(g_acc)
    t_end = 10.0
    high = integrate(moving_clock(1.0, x=(q, 0.0, 0.0)), metric, 0.0, t_end, 1e-3, hold_x=True)
    low = integrate(moving_clock(1.0), metric, 0.0, t_end, 1e-3, hold_x=True)
    rate_diff = (high[-1, 0] - low[-1, 0]) / t_end
    assert rate_diff == pytest.approx(g_acc * q, rel=1e-8)
    assert proper_time_residual(high, 1e-3, metric) < 1e-8


def test_constraints_and_conservation_along_trajectories():
    cases = [
        (FLAT, 0.0, moving_clock(1.0, (0.75, 0.0, 0.0))),
        (uniform_lapse_metric(0.1), 0.0, moving_clock(1.0)),
        (StaticMetric(a0_slope=0.02), 0.5, moving_clock(1.0)),
    ]
    for metric, charge, pt0 in cases:
        states = integrate(pt0, metric, charge, 5.0, 1e-3)
        phi1, phi2 = constraint_drift(states)
        h_drift = relative_drift(total_hamiltonian(states, metric, charge))
        m_drift = relative_drift(states[:, 2])
        assert max(phi1, phi2) <= 1e-9
        assert h_drift <= 1e-9
        assert m_drift <= 1e-9


def test_geodesic_residual_flat_free_particle():
    states = integrate(moving_clock(1.0, (0.75, 0.0, 0.0)), FLAT, 0.0, 5.0, 1e-3)
    assert geodesic_lorentz_residual(states, 1e-3, FLAT) < 1e-6


def test_constant_force_matches_hyperbolic_motion():
    charge, slope = 0.5, 0.02
    metric = StaticMetric(a0_slope=slope)
    force = charge * slope
    states = integrate(moving_clock(1.0), metric, charge, 10.0, 1e-3)
    x_exp, tau_exp = hyperbolic_motion(1.0, force, 10.0)
    assert states[-1, 4] == pytest.approx(x_exp, abs=1e-9)
    assert states[-1, 0] == pytest.approx(tau_exp, abs=1e-9)
    assert geodesic_lorentz_residual(states, 1e-3, metric, charge) < 1e-5


def test_weak_field_fall_newtonian_limit():
    g_acc = 1e-3
    metric = uniform_lapse_metric(g_acc)
    states = integrate(moving_clock(1.0), metric, 0.0, 4.0, 1e-3)
    # slow fall: x ~ -g t^2 / 2 with O(v^2) corrections
    assert states[-1, 4] == pytest.approx(-0.5 * g_acc * 16.0, rel=1e-4)
    assert geodesic_lorentz_residual(states, 1e-3, metric) < 1e-5
    assert proper_time_residual(states, 1e-3, metric) < 1e-8


def test_isotropic_weak_field_residuals():
    metric = uniform_lapse_metric(1e-3)
    states = integrate(moving_clock(1.0, (0.1, 0.05, 0.0)), metric, 0.0, 5.0, 1e-3)
    assert proper_time_residual(states, 1e-3, metric) < 1e-8
    assert geodesic_lorentz_residual(states, 1e-3, metric) < 1e-5


def test_prepared_points_require_positive_rest_energy():
    with pytest.raises(ValueError):
        moving_clock(-1.0)
    with pytest.raises(ValueError):
        moving_clock(0.0, (0.1, 0.0, 0.0))


def test_batch_integration_matches_one_clock_at_a_time():
    metric = uniform_lapse_metric(0.05)
    points = [moving_clock(1.0, (0.2, 0.0, 0.0)), moving_clock(2.0, (0.7, -0.3, 0.1), x=(1.0, 0.0, 0.5)),
              moving_clock(0.5, x=(-2.0, 1.0, 0.0))]
    batch = integrate(points, metric, 0.0, 1.0, 1e-3)
    assert batch.shape == (1001, 3, 10)
    H = total_hamiltonian(batch, metric)
    rate = proper_time_residual(batch, 1e-3, metric)
    motion = geodesic_lorentz_residual(batch, 1e-3, metric)
    assert H.shape == (1001, 3) and rate.shape == motion.shape == (3,)
    for j, z in enumerate(points):
        single = integrate(z, metric, 0.0, 1.0, 1e-3)
        assert np.array_equal(batch[:, j], single)
        assert np.array_equal(H[:, j], total_hamiltonian(single, metric))
        assert rate[j] == proper_time_residual(single, 1e-3, metric)
        assert motion[j] == geodesic_lorentz_residual(single, 1e-3, metric)


def test_column_batch_equals_one_clock_at_a_time():
    """64 clocks with three nonzero momenta in a charged lapse step as one
    batch on columns, and each clock's samples are bitwise its own float loop's."""
    metric, clocks = uniform_lapse_metric(0.05, a0_slope=0.3), _clocks(64)
    batch = integrate(clocks, metric, 0.5, 0.5, 1e-3)
    for j, z in enumerate(clocks):
        assert batch[:, j].tobytes() == integrate(z, metric, 0.5, 0.5, 1e-3).tobytes()


def test_a_stalled_clock_reads_inf_and_leaves_its_batch_alone():
    """At tau0 = 1e13 a step of tau rounds away: that clock's motion residual
    reads inf, and its batch mate keeps its own."""
    free, stalled = moving_clock(1.0, (0.75, 0.0, 0.0)), moving_clock(1.0, (0.75, 0.0, 0.0),
                                                                       tau=1e13)
    with np.errstate(divide="ignore", invalid="ignore"):
        motion = geodesic_lorentz_residual(integrate([free, stalled], FLAT, 0.0, 1.0, 1e-3),
                                           1e-3, FLAT)
        assert geodesic_lorentz_residual(integrate(stalled, FLAT, 0.0, 1.0, 1e-3),
                                         1e-3, FLAT) == np.inf
    assert motion[1] == np.inf
    assert motion[0] == geodesic_lorentz_residual(integrate(free, FLAT, 0.0, 1.0, 1e-3),
                                                  1e-3, FLAT)


# a steeper lapse for the clocks off the x^1 axis
_OFF_AXIS_LAPSE = uniform_lapse_metric(1e-2)


def _count_stages(monkeypatch) -> tuple[list, list, list]:
    """Record the arguments of every call to the array right-hand side
    ``hamilton_rhs`` and to the rates ``_rates``, and the (x1, p1) of every
    evaluation of the pair rates that ``_pair_rates`` builds: each RK4 stage
    takes one, and so does each ``_rates`` call."""
    import clocklab.dynamics as dynamics
    counts = ([], [], [])
    for calls, name in zip(counts, ("hamilton_rhs", "_rates")):
        original = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, lambda *a, calls=calls, original=original:
                            calls.append(a) or original(*a))
    pair_rates = dynamics._pair_rates

    def counting(*fixed):
        rates = pair_rates(*fixed)
        return lambda x1, p1: counts[2].append((x1, p1)) or rates(x1, p1)

    monkeypatch.setattr(dynamics, "_pair_rates", counting)
    return counts


def _blocks(n_steps: int, clocks: int) -> list[int]:
    """The steps of each block whose stages one ``_rates`` call sums."""
    block = max(1, STAGE_BLOCK // clocks)
    return [min(block, n_steps - lo) for lo in range(0, n_steps, block)]


def _clocks(count: int) -> list[np.ndarray]:
    """``count`` clocks with three nonzero momenta, spread in x^1 and M."""
    return [moving_clock(1.0 + 0.1 * j, (0.31 - 0.03 * j, -0.27, 0.44), x=(0.1 * j, 0.0, 0.5))
            for j in range(count)]


@pytest.mark.parametrize("pt0, metric, charge, hold", [
    (moving_clock(1.0, (0.75, 0.1, 0.0)), FLAT, 0.0, False),
    ([moving_clock(1.0, (p1, 0.0, 0.0)) for p1 in (0.0, -0.0, 0.3, -0.7)], FLAT, 0.0, False),
    (moving_clock(1.0, (0.4, -0.0, 0.2)), FLAT, 0.7, False),
    (moving_clock(1.0, (0.31, -0.27, 0.44)), StaticMetric(a0_slope=0.3), 0.0, False),
    (moving_clock(1.0, (0.31, -0.27, 0.44)), StaticMetric(a0_slope=0.3), -0.0, False),
    (moving_clock(1.0, x=(1.5, -0.0, 0.0)), uniform_lapse_metric(0.05), 0.0, True),
    (moving_clock(2.0, x=(0.5, 0.2, -0.0)), _OFF_AXIS_LAPSE, 0.0, True),
], ids=["flat-free", "flat-batch", "flat-charged", "potential-neutral",
        "potential-negative-zero-charge", "lapse-held", "isotropic-held"])
def test_stationary_flows_equal_the_four_stage_loop(pt0, metric, charge, hold, monkeypatch):
    """A held clock, or a free one (no lapse slope, and no potential slope
    or no charge), takes one RHS evaluation per batch, and every sample is
    bitwise the loop's."""
    vector_calls, rate_calls, _ = _count_stages(monkeypatch)
    states = integrate(pt0, metric, charge, 2.0, 1e-3, hold_x=hold)
    assert (len(vector_calls), len(rate_calls)) == (1, 1)  # hamilton_rhs takes _rates once
    reference = rk4_reference(pt0, metric, charge, 2.0, 1e-3, hold_x=hold)
    assert states.tobytes() == reference.tobytes()


def _signed_zero_clocks(count: int) -> list[np.ndarray]:
    """``count`` clocks with -0.0 in every momentum and in x^2, x^3, and one
    whose M and p_tau are -0.0 too, moving off the x^1 axis."""
    clocks = [moving_clock(1.0 + 0.1 * j, (-0.0, -0.0, -0.0), x=(0.1 * j, -0.0, -0.0))
              for j in range(count - 1)]
    rest_free = moving_clock(1.0, (0.5, -0.0, 0.2), x=(-0.0, -0.0, -0.0))
    rest_free[1:3] = -0.0
    return clocks + [rest_free]


@pytest.mark.parametrize("pt0, metric, charge", [
    (moving_clock(1.0, (0.3, -0.2, 0.1)), uniform_lapse_metric(0.05), 0.0),
    (moving_clock(1.0, (0.3, 0.0, 0.1)), uniform_lapse_metric(0.05, a0_slope=0.02), 0.5),
    (moving_clock(1.0), StaticMetric(a0_slope=0.02), 0.5),
    (moving_clock(1.0, (0.1, 0.05, -0.0), x=(0.5, 0.2, 0.0)), _OFF_AXIS_LAPSE, 0.0),
    ([moving_clock(1.0, (0.2, 0.0, 0.0)), moving_clock(2.0, (0.7, -0.3, 0.1), x=(1.0, 0.0, 0.5)),
      moving_clock(0.5, x=(-2.0, 1.0, 0.0))], uniform_lapse_metric(0.05), 0.0),
    (_clocks(COLUMN_CLOCKS - 1), uniform_lapse_metric(0.05, a0_slope=0.3), 0.5),
    (_clocks(COLUMN_CLOCKS), uniform_lapse_metric(0.05), 0.0),
    (_clocks(COLUMN_CLOCKS), uniform_lapse_metric(0.05, a0_slope=0.3), 0.5),
    (_clocks(COLUMN_CLOCKS), StaticMetric(a0_slope=0.02), 0.5),
    (moving_clock(1.0, (-0.0, -0.0, -0.0), x=(-0.0, -0.0, -0.0)),
     uniform_lapse_metric(0.05, a0_slope=0.3), -0.0),
    (_signed_zero_clocks(3), uniform_lapse_metric(0.05, a0_slope=0.3), -0.0),
    (_signed_zero_clocks(COLUMN_CLOCKS), uniform_lapse_metric(0.05, a0_slope=0.3), -0.0),
    (moving_clock(1.0, (0.3, -0.2, 0.1), x=(2.0, 0.0, 0.0)),
     uniform_lapse_metric(-0.05, a0_slope=-0.3), -1.0),
    (_clocks(3), uniform_lapse_metric(-0.05, a0_slope=-0.3), -1.0),
    (_clocks(COLUMN_CLOCKS), uniform_lapse_metric(-0.05, a0_slope=-0.3), -1.0),
    (moving_clock(1.0, (1e3, 0.0, 0.0)), uniform_lapse_metric(0.08), 0.0),
    ([moving_clock(1.0, (1e3 - j, 0.0, 0.0)) for j in range(3)], uniform_lapse_metric(0.08), 0.0),
    ([moving_clock(1.0, (1e3 - j, 0.0, 0.0)) for j in range(COLUMN_CLOCKS)],
     uniform_lapse_metric(0.08), 0.0),
], ids=["lapse", "lapse-charged", "constant-force", "isotropic", "lapse-batch",
        "charged-lapse-below-columns", "lapse-columns", "charged-lapse-columns",
        "constant-force-columns", "signed-zeros", "signed-zeros-batch", "signed-zeros-columns",
        "negative-fields", "negative-fields-batch", "negative-fields-columns",
        "fast", "fast-batch", "fast-columns"])
def test_stepped_flows_equal_the_four_stage_loop(pt0, metric, charge, monkeypatch):
    """A flow that is not stationary steps a batch below ``COLUMN_CLOCKS``
    clock by clock on Python floats, and a larger one on (N,) columns: four
    pair evaluations per step for each, and one ``_rates`` call on the
    stage columns of each block of steps.  On either side of the crossover
    every sample is bitwise the loop's over ``hamilton_rhs``."""
    vector_calls, rate_calls, pair_calls = _count_stages(monkeypatch)
    states = integrate(pt0, metric, charge, 1.0, 2e-3)
    assert len(vector_calls) == 0
    clocks = 1 if np.ndim(pt0) == 1 else len(pt0)
    on_columns = clocks >= COLUMN_CLOCKS
    column = (clocks,) if on_columns else ()
    steps = [args for args in pair_calls if np.shape(args[0]) == column]
    assert len(steps) == 4 * 500 * (1 if on_columns else clocks)
    blocks = _blocks(500, clocks if on_columns else 1) * (1 if on_columns else clocks)
    assert [np.shape(args[2]) for args in rate_calls] == [(n, 4) + column for n in blocks]
    assert len(pair_calls) == len(steps) + len(rate_calls)
    reference = rk4_reference(pt0, metric, charge, 1.0, 2e-3)
    assert states.tobytes() == reference.tobytes()


def test_stepped_flows_sum_every_block(monkeypatch):
    """Blocks of seven steps, the last one short, give the samples of one
    block, on floats and on columns."""
    import clocklab.dynamics as dynamics
    metric = uniform_lapse_metric(0.05, a0_slope=0.3)
    for pt0, stepped in ((_clocks(3), 1), (_clocks(COLUMN_CLOCKS), COLUMN_CLOCKS)):
        whole = integrate(pt0, metric, 0.5, 1.0, 1e-2)
        monkeypatch.setattr(dynamics, "STAGE_BLOCK", 7 * stepped)
        _, rate_calls, _ = _count_stages(monkeypatch)
        assert integrate(pt0, metric, 0.5, 1.0, 1e-2).tobytes() == whole.tobytes()
        # 100 steps: 14 blocks of 7 and one of 2, for each clock or for the batch
        assert [len(args[2]) for args in rate_calls] == ([7] * 14 + [2]) * (len(pt0) // stepped)
        monkeypatch.undo()


def test_unheld_clock_in_a_field_takes_four_evaluations_per_step(monkeypatch):
    metric = uniform_lapse_metric(0.05)
    _, rate_calls, pair_calls = _count_stages(monkeypatch)
    # four pair evaluations per step per clock, or per step for a batch on columns,
    # and one _rates call per clock, or per batch, on the stage columns
    for clocks, stages, batches in ((1, 4 * 100, 1), (3, 4 * 100 * 3, 3),
                                    (COLUMN_CLOCKS, 4 * 100, 1)):
        rate_calls.clear()
        pair_calls.clear()
        integrate([moving_clock(1.0, (0.1 * (j + 1), 0.0, 0.0)) for j in range(clocks)],
                  metric, 0.0, 1.0, 1e-2)
        assert (len(pair_calls), len(rate_calls)) == (stages + batches, batches)


def _raised(error, fn, *args) -> str:
    with pytest.raises(error) as err:
        fn(*args)
    return str(err.value)


@pytest.mark.parametrize("z, metric, error, start", [
    (moving_clock(1.0, x=(-20.0, 0.0, 0.0)), uniform_lapse_metric(0.08), LapseHorizonError,
     "lapse must stay positive; got -0.6"),
    (np.zeros(10), uniform_lapse_metric(0.05), ValueError, "degenerate point"),
], ids=["lapse-non-positive", "degenerate"])
def test_float_stages_raise_the_vector_messages(z, metric, error, start):
    """The rates raise the same message on floats, on columns, in
    ``hamilton_rhs`` and in a stepped flow on either side of the crossover."""
    message = _raised(error, hamilton_rhs, z, metric, 0.0)
    assert message.startswith(start)
    fields = metric.lapse_g, metric.a0_slope, 0.0
    assert _raised(error, _rates, *z[list(_READ)].tolist(), *fields, math.sqrt) == message
    assert _raised(error, _rates, *z[list(_READ), None], *fields, np.sqrt) == message
    assert _raised(error, integrate, z, metric, 0.0, 1.0, 1e-2) == message
    assert _raised(error, integrate, [z] * COLUMN_CLOCKS, metric, 0.0, 1.0, 1e-2) == message


def test_float_stages_divide_as_numpy_where_a_product_underflows():
    """At rest energy 1e-120, R^3 underflows to 0: a float stage falls back
    to numpy scalars, whose 0/0 gives nan (a failed check, not a crash), as
    the columns do."""
    pt0, metric = moving_clock(1e-120), uniform_lapse_metric(0.01)
    with np.errstate(all="ignore"):
        rates = _rates(*pt0[list(_READ)].tolist(), 0.01, 0.0, 0.0, math.sqrt)
        assert all(type(rate) is float for rate in rates) and math.isnan(rates[3])
        assert np.array(rates).tobytes() == hamilton_rhs(pt0, metric).tobytes()
        for batch in (pt0, [pt0] * COLUMN_CLOCKS):
            states = integrate(batch, metric, 0.0, 0.1, 1e-3)
            reference = rk4_reference(batch, metric, 0.0, 0.1, 1e-3)
            assert np.isnan(states[1:, ..., 3]).all()
            assert np.array_equal(states, reference, equal_nan=True)


@pytest.mark.parametrize("metric, charge", [
    (uniform_lapse_metric(0.05, a0_slope=0.3), 1.0),
    (uniform_lapse_metric(0.05), 0.0),
    (StaticMetric(a0_slope=0.3), 1.0),
], ids=["charged-lapse", "lapse", "constant-force"])
def test_float_stages_equal_the_array_rhs_off_the_constraint_surface(metric, charge):
    """Off the constraint surface (phi1 != 0, p_M != 0), with three nonzero
    momenta, every term of the rates is live: ``_rates`` on one state's
    floats, ``_rates`` on the columns of a batch and the rows of
    ``hamilton_rhs`` are bitwise equal, there and on the surface."""
    off = random_points(seed=7, count=1000) / 2.0  # coordinates of order 1
    assert (off[:, 7:10] != 0.0).all()
    assert (off[:, 2] != off[:, 1]).all() and (off[:, 3] != 0.0).all()
    on = off.copy()
    on[:, 1], on[:, 3] = on[:, 2], 0.0
    fields = metric.lapse_g, metric.a0_slope, charge
    for states in (off, on):
        batch = hamilton_rhs(states, metric, charge)
        columns = _rates(*states.T[list(_READ)], *fields, np.sqrt)
        assert np.stack(np.broadcast_arrays(*columns), axis=-1).tobytes() == batch.tobytes()
        for z, rates in zip(states, batch):
            floats = _rates(*z[list(_READ)].tolist(), *fields, math.sqrt)
            assert np.array(floats).tobytes() == rates.tobytes()
            assert hamilton_rhs(z, metric, charge).tobytes() == rates.tobytes()


@pytest.mark.parametrize("metric, charge", [
    (_OFF_AXIS_LAPSE, 0.0),
    (StaticMetric(a0_slope=0.02), 0.5),
    (uniform_lapse_metric(1e-2, a0_slope=0.02), 0.5),
], ids=["lapse", "constant-force", "charged-lapse"])
def test_vectorized_audits_match_per_sample_loops(metric, charge):
    # 5001 samples, audited in one pass against the general per-sample
    # formulas; only the charged lapse has both the force terms q x^1'/f^2
    # and q v^0 and the lapse terms 2 g v^0 x^1'/f and f g (v^0)^2
    dt = 1e-3
    states = integrate(moving_clock(1.0, (0.3, 0.1, 0.0)), metric, charge, 5.0, dt)
    times = dt * np.arange(len(states))
    H = total_hamiltonian(states, metric, charge)
    assert np.array_equal(H, [total_hamiltonian(z, metric, charge) for z in states])
    # the five-point rates leave a rounding-level residual (about 1e-12) on
    # the trajectory itself, so the loops are also compared on a tau bent by
    # a smooth 1e-3 wobble, where the residual stands far above rounding
    assert proper_time_residual(states, dt, metric) == pytest.approx(
        per_sample_rate_residual(states, dt, metric), abs=1e-11)
    bent = states.copy()
    bent[:, 0] += 1e-3 * np.sin(3.0 * times)
    assert proper_time_residual(bent, dt, metric) > 1e-3
    assert proper_time_residual(bent, dt, metric) == pytest.approx(
        per_sample_rate_residual(bent, dt, metric), rel=1e-9)
    # the five-point motion residual of the trajectory is rounding too, so
    # the loops agree there to within its rounding bound, and to 1e-7 on x^1
    # bent by a smooth 1e-2 wobble, where it reads about 0.1
    assert geodesic_lorentz_residual(states, dt, metric, charge) == pytest.approx(
        per_sample_motion_residual(states, dt, metric, charge),
        abs=motion_rounding_floor(states, dt).item())
    bent_x = states.copy()
    bent_x[:, 4] += 1e-2 * np.sin(3.0 * times)
    assert geodesic_lorentz_residual(bent_x, dt, metric, charge) > 1e-2
    assert geodesic_lorentz_residual(bent_x, dt, metric, charge) == pytest.approx(
        per_sample_motion_residual(bent_x, dt, metric, charge), rel=1e-7)


def test_rate_audit_is_exact_at_coarse_steps_and_sees_a_1e7_rate_error():
    """At dt = 1e-2 the five-point rates leave the correct lapse trajectory
    (g = 0.08, p1 = 0.8) far below the 1e-8 tolerance, where the three-point
    rates read 1.6e-7; a tau whose rate is off by a relative 1e-7 still fails."""
    metric = uniform_lapse_metric(0.08)
    states = integrate(moving_clock(1.0, (0.8, 0.0, 0.0)), metric, 0.0, 2.0, 1e-2)
    assert proper_time_residual(states, 1e-2, metric) < 1e-12
    wrong = states.copy()
    wrong[:, 0] = wrong[0, 0] + (wrong[:, 0] - wrong[0, 0]) * (1.0 + 1e-7)
    # the rounding floor of this slow clock sits far below the error
    assert rate_rounding_floor(wrong, 1e-2) < 1e-12
    assert proper_time_residual(wrong, 1e-2, metric) > 1e-8


@pytest.mark.parametrize("p1", [1e4, 1e5])
def test_rate_rounding_floor_covers_a_fast_free_clock(p1):
    # a free flat clock is exact to rounding, but its metric rate 1/|p1|
    # magnifies the rounding of dx/dt; the floor bounds what is left
    states = integrate(moving_clock(1.0, (p1, 0.0, 0.0)), FLAT, 0.0, 10.0, 1e-3)
    residual = proper_time_residual(states, 1e-3, FLAT)
    floor = rate_rounding_floor(states, 1e-3)
    assert 1e-8 < residual < floor < 10.0 * residual


def test_rate_audit_needs_five_samples():
    # and so does the motion audit
    states = integrate(moving_clock(1.0, (0.3, 0.0, 0.0)), FLAT, 0.0, 0.04, 1e-2)
    assert proper_time_residual(states, 1e-2, FLAT) < 1e-12
    assert geodesic_lorentz_residual(states, 1e-2, FLAT) < 1e-12
    with pytest.raises(ValueError, match="five-point"):
        proper_time_residual(states[:4], 1e-2, FLAT)
    with pytest.raises(ValueError, match="five-point"):
        geodesic_lorentz_residual(states[:4], 1e-2, FLAT)


def test_motion_audit_is_exact_at_coarse_steps_and_stays_below_its_floor_at_fine_ones():
    """The five-point stencils leave the correct lapse trajectory (g = 0.2,
    p1 = 0.8, dt = 0.02) far below the 1e-6 tolerance, where three-point
    differences read 2.2e-6; at dt = 1e-4 (g = 0.08) rounding dominates and
    stays below ``motion_rounding_floor``.  A path bent off the free motion
    by a relative 1e-4 still fails."""
    metric = uniform_lapse_metric(0.2)
    states = integrate(moving_clock(1.0, (0.8, 0.0, 0.0)), metric, 0.0, 2.0, 0.02)
    assert geodesic_lorentz_residual(states, 0.02, metric) < 1e-10
    bent = states.copy()
    bent[:, 4] *= 1.0 + 1e-4 * np.sin(0.02 * np.arange(len(states)))
    assert geodesic_lorentz_residual(bent, 0.02, metric) > 1e-6
    metric = uniform_lapse_metric(0.08)
    fine = integrate(moving_clock(1.0, (0.8, 0.0, 0.0)), metric, 0.0, 2.0, 1e-4)
    assert geodesic_lorentz_residual(fine, 1e-4, metric) < motion_rounding_floor(fine, 1e-4)
