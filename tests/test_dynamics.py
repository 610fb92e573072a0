import dataclasses

import numpy as np
import pytest

from clocklab.dynamics import (
    ExtendedPhaseSpacePoint,
    _rhs_floats,
    _rhs_vector,
    clock_at_rest,
    conservation_drift,
    constraint_drift,
    geodesic_lorentz_residual,
    hamilton_rhs,
    hamiltonian_series,
    integrate,
    motion_rounding_floor,
    moving_clock,
    proper_time_residual,
    rate_rounding_floor,
    total_hamiltonian,
)
from clocklab.metric import LapseHorizonError, flat_metric, uniform_lapse_metric

from oracles import (
    hyperbolic_motion,
    per_sample_motion_residual,
    per_sample_rate_residual,
    rk4_reference,
)

FLAT = flat_metric()


# on the constraint surface the total Hamiltonian is the base Hamiltonian
# H0 = f sqrt(M^2 + c^2 |p|^2) - c e A_0
def test_base_hamiltonian_rest_energy():
    assert total_hamiltonian(clock_at_rest(1.0), FLAT) == pytest.approx(1.0, abs=1e-15)


def test_base_hamiltonian_three_four_five():
    pt = moving_clock(1.0, (0.75, 0.0, 0.0))
    assert total_hamiltonian(pt, FLAT) == pytest.approx(1.25, abs=1e-15)


def test_base_hamiltonian_potential_shift():
    metric = flat_metric(a0_slope=2.0)  # A_0 = 2 at x^1 = 1
    pt = clock_at_rest(1.0, x=(1.0, 0.0, 0.0))
    assert total_hamiltonian(pt, metric, charge=1.0) == pytest.approx(-1.0, abs=1e-15)


def test_total_hamiltonian_on_surface_equals_base():
    metric = uniform_lapse_metric(0.05, a0_slope=0.02)
    pt = moving_clock(1.0, (0.75, 0.0, 0.0), x=(2.0, 0.0, 0.0))
    base = 1.1 * 1.25 - 0.5 * 0.02 * 2.0  # f R - e A_0 at x^1 = 2
    assert total_hamiltonian(pt, metric, charge=0.5) == pytest.approx(base, abs=1e-15)
    assert total_hamiltonian(pt, FLAT) == pytest.approx(1.25, abs=1e-15)


def test_total_hamiltonian_off_surface():
    pt = ExtendedPhaseSpacePoint(tau=0.0, p_tau=0.0, M=1.0, p_M=0.0,
                                 x=np.zeros(3), p=np.zeros(3))
    assert total_hamiltonian(pt, FLAT) == pytest.approx(0.0, abs=1e-15)


def test_rest_clock_ticks_at_unit_rate():
    rates = hamilton_rhs(clock_at_rest(1.0), FLAT)
    assert rates.tau_dot == pytest.approx(1.0, abs=1e-15)
    assert rates.p_tau_dot == 0.0
    assert rates.M_dot == 0.0
    assert rates.p_M_dot == pytest.approx(0.0, abs=1e-12)
    assert np.abs(rates.x_dot).max() == 0.0
    assert np.abs(rates.p_dot).max() == 0.0


def test_moving_clock_rate_matches_dilation():
    rates = hamilton_rhs(moving_clock(1.0, (0.75, 0.0, 0.0)), FLAT)
    assert rates.tau_dot == pytest.approx(0.8, abs=1e-15)  # 1/gamma at v = 0.6c
    assert rates.x_dot[0] == pytest.approx(0.6, abs=1e-15)
    assert rates.p_M_dot == pytest.approx(0.0, abs=1e-12)


def test_rhs_matches_finite_difference_gradient_of_h():
    rng = np.random.default_rng(11)
    metric = uniform_lapse_metric(0.05)
    for _ in range(5):
        z = rng.uniform(-0.5, 0.5, size=10)
        z[2] += 2.0
        pt = ExtendedPhaseSpacePoint.from_vector(z)
        rates = hamilton_rhs(pt, metric, charge=0.3).as_vector()
        h = 1e-6
        pairs = ((0, 1), (2, 3), (4, 7), (5, 8), (6, 9))
        for q_idx, p_idx in pairs:
            for idx, sign, slot in ((p_idx, 1.0, q_idx), (q_idx, -1.0, p_idx)):
                zp = z.copy(); zp[idx] += h
                zm = z.copy(); zm[idx] -= h
                fd = (total_hamiltonian(ExtendedPhaseSpacePoint.from_vector(zp), metric, 0.3)
                      - total_hamiltonian(ExtendedPhaseSpacePoint.from_vector(zm), metric, 0.3)
                      ) / (2.0 * h) * sign
                assert rates[slot] == pytest.approx(fd, abs=5e-8)


def test_integrate_requires_on_surface_data():
    pt = ExtendedPhaseSpacePoint(tau=0.0, p_tau=0.5, M=1.0, p_M=0.0,
                                 x=np.zeros(3), p=np.zeros(3))
    with pytest.raises(ValueError, match="constraint surface"):
        integrate(pt, FLAT, 0.0, 1.0, 0.1)


def test_flat_rest_clock_tracks_coordinate_time():
    traj = integrate(clock_at_rest(1.0), FLAT, 0.0, 10.0, 1e-2)
    assert traj.tau[-1] == pytest.approx(10.0, abs=1e-10)


def test_flat_v06_time_dilation():
    traj = integrate(moving_clock(1.0, (0.75, 0.0, 0.0)), FLAT, 0.0, 10.0, 1e-3)
    assert traj.tau[-1] == pytest.approx(8.0, abs=1e-9)
    assert traj.x[-1, 0] == pytest.approx(6.0, abs=1e-9)
    assert proper_time_residual(traj, FLAT) < 1e-8


def test_held_clock_redshift_rate():
    g_acc, q = 0.05, 2.0
    metric = uniform_lapse_metric(g_acc)
    t_end = 10.0
    high = integrate(clock_at_rest(1.0, x=(q, 0.0, 0.0)), metric, 0.0, t_end, 1e-3, hold_x=True)
    low = integrate(clock_at_rest(1.0), metric, 0.0, t_end, 1e-3, hold_x=True)
    rate_diff = (high.tau[-1] - low.tau[-1]) / t_end
    assert rate_diff == pytest.approx(g_acc * q, rel=1e-8)
    assert proper_time_residual(high, metric) < 1e-8


def test_constraints_and_conservation_along_trajectories():
    cases = [
        (FLAT, 0.0, moving_clock(1.0, (0.75, 0.0, 0.0))),
        (uniform_lapse_metric(0.1), 0.0, clock_at_rest(1.0)),
        (flat_metric(a0_slope=0.02), 0.5, clock_at_rest(1.0)),
    ]
    for metric, charge, pt0 in cases:
        traj = integrate(pt0, metric, charge, 5.0, 1e-3)
        phi1, phi2 = constraint_drift(traj)
        h_drift, m_drift = conservation_drift(traj, metric, charge)
        assert max(phi1, phi2) <= 1e-9
        assert h_drift <= 1e-9
        assert m_drift <= 1e-9


def test_geodesic_residual_flat_free_particle():
    traj = integrate(moving_clock(1.0, (0.75, 0.0, 0.0)), FLAT, 0.0, 5.0, 1e-3)
    assert geodesic_lorentz_residual(traj, FLAT) < 1e-6


def test_constant_force_matches_hyperbolic_motion():
    charge, slope = 0.5, 0.02
    metric = flat_metric(a0_slope=slope)
    force = charge * slope
    traj = integrate(clock_at_rest(1.0), metric, charge, 10.0, 1e-3)
    x_exp, tau_exp = hyperbolic_motion(1.0, force, 10.0)
    assert traj.x[-1, 0] == pytest.approx(x_exp, abs=1e-9)
    assert traj.tau[-1] == pytest.approx(tau_exp, abs=1e-9)
    assert geodesic_lorentz_residual(traj, metric, charge) < 1e-5


def test_weak_field_fall_newtonian_limit():
    g_acc = 1e-3
    metric = uniform_lapse_metric(g_acc)
    traj = integrate(clock_at_rest(1.0), metric, 0.0, 4.0, 1e-3)
    # slow fall: x ~ -g t^2 / 2 with O(v^2) corrections
    assert traj.x[-1, 0] == pytest.approx(-0.5 * g_acc * 16.0, rel=1e-4)
    assert geodesic_lorentz_residual(traj, metric) < 1e-5
    assert proper_time_residual(traj, metric) < 1e-8


def test_isotropic_weak_field_residuals():
    metric = uniform_lapse_metric(1e-3)
    traj = integrate(moving_clock(1.0, (0.1, 0.05, 0.0)), metric, 0.0, 5.0, 1e-3)
    assert proper_time_residual(traj, metric) < 1e-8
    assert geodesic_lorentz_residual(traj, metric) < 1e-5


def test_prepared_points_require_positive_rest_energy():
    with pytest.raises(ValueError):
        clock_at_rest(-1.0)
    with pytest.raises(ValueError):
        moving_clock(0.0, (0.1, 0.0, 0.0))


def test_batch_integration_matches_one_clock_at_a_time():
    metric = uniform_lapse_metric(0.05)
    points = [moving_clock(1.0, (0.2, 0.0, 0.0)), moving_clock(2.0, (0.7, -0.3, 0.1), x=(1.0, 0.0, 0.5)),
              clock_at_rest(0.5, x=(-2.0, 1.0, 0.0))]
    batch = integrate(points, metric, 0.0, 1.0, 1e-3)
    assert batch.states.shape == (1001, 3, 10)
    H = hamiltonian_series(batch, metric)
    rate = proper_time_residual(batch, metric)
    motion = geodesic_lorentz_residual(batch, metric)
    assert H.shape == (1001, 3) and rate.shape == motion.shape == (3,)
    for j, pt in enumerate(points):
        single = integrate(pt, metric, 0.0, 1.0, 1e-3)
        assert np.array_equal(batch.states[:, j], single.states)
        assert np.array_equal(H[:, j], hamiltonian_series(single, metric))
        assert rate[j] == proper_time_residual(single, metric)
        assert motion[j] == geodesic_lorentz_residual(single, metric)


def test_a_stalled_clock_reads_inf_and_leaves_its_batch_alone():
    """At tau0 = 1e13 a step of tau rounds away: that clock's motion residual
    reads inf, and its batch mate keeps its own."""
    free, stalled = moving_clock(1.0, (0.75, 0.0, 0.0)), moving_clock(1.0, (0.75, 0.0, 0.0),
                                                                       tau=1e13)
    with np.errstate(divide="ignore", invalid="ignore"):
        motion = geodesic_lorentz_residual(integrate([free, stalled], FLAT, 0.0, 1.0, 1e-3), FLAT)
        assert geodesic_lorentz_residual(integrate(stalled, FLAT, 0.0, 1.0, 1e-3), FLAT) == np.inf
    assert motion[1] == np.inf
    assert motion[0] == geodesic_lorentz_residual(integrate(free, FLAT, 0.0, 1.0, 1e-3), FLAT)


# a steeper lapse for the clocks off the x^1 axis
_OFF_AXIS_LAPSE = uniform_lapse_metric(1e-2)


@pytest.mark.parametrize("pt0, metric, charge, hold", [
    (moving_clock(1.0, (0.75, 0.1, 0.0)), FLAT, 0.0, False),
    ([moving_clock(1.0, (p1, 0.0, 0.0)) for p1 in (0.0, -0.0, 0.3, -0.7)], FLAT, 0.0, False),
    (moving_clock(1.0, (0.4, -0.0, 0.2)), FLAT, 0.7, False),
    (clock_at_rest(1.0, x=(1.5, -0.0, 0.0)), uniform_lapse_metric(0.05), 0.0, True),
    (clock_at_rest(2.0, x=(0.5, 0.2, -0.0)), _OFF_AXIS_LAPSE, 0.0, True),
], ids=["flat-free", "flat-batch", "flat-charged", "lapse-held", "isotropic-held"])
def test_stationary_flows_equal_the_four_stage_loop(pt0, metric, charge, hold):
    """A held clock, or a free one in flat space without potentials, takes
    one RHS evaluation per batch, and every sample is bitwise the loop's."""
    traj = integrate(pt0, metric, charge, 2.0, 1e-3, hold_x=hold)
    reference = rk4_reference(pt0, metric, charge, 2.0, 1e-3, hold_x=hold)
    assert traj.states.tobytes() == reference.tobytes()
    assert traj.rhs_evals == 1


@pytest.mark.parametrize("pt0, metric, charge", [
    (moving_clock(1.0, (0.3, -0.2, 0.1)), uniform_lapse_metric(0.05), 0.0),
    (moving_clock(1.0, (0.3, 0.0, 0.1)), uniform_lapse_metric(0.05, a0_slope=0.02), 0.5),
    (clock_at_rest(1.0), flat_metric(a0_slope=0.02), 0.5),
    (moving_clock(1.0, (0.1, 0.05, -0.0), x=(0.5, 0.2, 0.0)), _OFF_AXIS_LAPSE, 0.0),
    ([moving_clock(1.0, (0.2, 0.0, 0.0)), moving_clock(2.0, (0.7, -0.3, 0.1), x=(1.0, 0.0, 0.5)),
      clock_at_rest(0.5, x=(-2.0, 1.0, 0.0))], uniform_lapse_metric(0.05), 0.0),
], ids=["lapse", "lapse-charged", "constant-force", "isotropic", "lapse-batch"])
def test_stepped_flows_equal_the_four_stage_loop(pt0, metric, charge):
    """A flow that is not stationary steps each clock on Python floats, and
    every sample is bitwise the loop's over ``_rhs_vector``."""
    traj = integrate(pt0, metric, charge, 1.0, 2e-3)
    reference = rk4_reference(pt0, metric, charge, 1.0, 2e-3)
    assert traj.states.tobytes() == reference.tobytes()
    assert traj.rhs_evals == 4 * 500 * (1 if isinstance(pt0, ExtendedPhaseSpacePoint) else 3)


def test_unheld_clock_in_a_field_takes_four_evaluations_per_step(monkeypatch):
    import clocklab.dynamics as dynamics
    metric = uniform_lapse_metric(0.05)
    calls, original = [], dynamics._rhs_floats
    monkeypatch.setattr(dynamics, "_rhs_floats", lambda *a: calls.append(a) or original(*a))
    for clocks in (1, 3):  # four stage evaluations per step per clock
        calls.clear()
        traj = integrate([moving_clock(1.0, (0.1 * (j + 1), 0.0, 0.0)) for j in range(clocks)],
                         metric, 0.0, 1.0, 1e-2)
        assert len(calls) == traj.rhs_evals == 4 * 100 * clocks


def _raised(error, fn, *args) -> str:
    with pytest.raises(error) as err:
        fn(*args)
    return str(err.value)


@pytest.mark.parametrize("pt, metric, error, start", [
    (clock_at_rest(1.0, x=(-20.0, 0.0, 0.0)), uniform_lapse_metric(0.08), LapseHorizonError,
     "lapse must stay positive; got -0.6"),
    (ExtendedPhaseSpacePoint(0.0, 0.0, 0.0, 0.0, np.zeros(3), np.zeros(3)),
     uniform_lapse_metric(0.05), ValueError, "degenerate point"),
], ids=["lapse-non-positive", "degenerate"])
def test_float_stages_raise_the_vector_messages(pt, metric, error, start):
    z = pt.as_vector()
    message = _raised(error, _rhs_vector, z, metric, 0.0)
    assert message.startswith(start)
    assert _raised(error, _rhs_floats, z.tolist(), metric, 0.0) == message
    assert _raised(error, integrate, pt, metric, 0.0, 1.0, 1e-2) == message


def test_float_stages_divide_as_numpy_where_a_product_underflows():
    """At rest energy 1e-120, R^3 underflows to 0: the stage falls back to
    ``_rhs_vector``, whose 0/0 gives nan (a failed check, not a crash)."""
    pt0, metric = clock_at_rest(1e-120), uniform_lapse_metric(0.01)
    with np.errstate(all="ignore"):
        traj = integrate(pt0, metric, 0.0, 0.1, 1e-3)
        reference = rk4_reference(pt0, metric, 0.0, 0.1, 1e-3)
    assert np.isnan(traj.states[1:, 3]).all()
    assert np.array_equal(traj.states, reference, equal_nan=True)


@pytest.mark.parametrize("metric, charge", [
    (_OFF_AXIS_LAPSE, 0.0),
    (flat_metric(a0_slope=0.02), 0.5),
    (uniform_lapse_metric(1e-2, a0_slope=0.02), 0.5),
], ids=["lapse", "constant-force", "charged-lapse"])
def test_vectorized_audits_match_per_sample_loops(metric, charge):
    # 5001 samples, audited in one pass against the general per-sample
    # formulas; only the charged lapse has both the force terms q x^1'/f^2
    # and q v^0 and the lapse terms 2 g v^0 x^1'/f and f g (v^0)^2
    traj = integrate(moving_clock(1.0, (0.3, 0.1, 0.0)), metric, charge, 5.0, 1e-3)
    H = hamiltonian_series(traj, metric, charge)
    assert np.array_equal(H, [total_hamiltonian(ExtendedPhaseSpacePoint.from_vector(z), metric,
                                                charge) for z in traj.states])
    # the five-point rates leave a rounding-level residual (about 1e-12) on
    # the trajectory itself, so the loops are also compared on a tau bent by
    # a smooth 1e-3 wobble, where the residual stands far above rounding
    assert proper_time_residual(traj, metric) == pytest.approx(
        per_sample_rate_residual(traj, metric), abs=1e-11)
    states = traj.states.copy()
    states[:, 0] += 1e-3 * np.sin(3.0 * traj.times)
    bent = dataclasses.replace(traj, states=states)
    assert proper_time_residual(bent, metric) > 1e-3
    assert proper_time_residual(bent, metric) == pytest.approx(
        per_sample_rate_residual(bent, metric), rel=1e-9)
    # the five-point motion residual of the trajectory is rounding too, so
    # the loops agree there to within its rounding bound, and to 1e-7 on x^1
    # bent by a smooth 1e-2 wobble, where it reads about 0.1
    assert geodesic_lorentz_residual(traj, metric, charge) == pytest.approx(
        per_sample_motion_residual(traj, metric, charge), abs=motion_rounding_floor(traj).item())
    states = traj.states.copy()
    states[:, 4] += 1e-2 * np.sin(3.0 * traj.times)
    bent_x = dataclasses.replace(traj, states=states)
    assert geodesic_lorentz_residual(bent_x, metric, charge) > 1e-2
    assert geodesic_lorentz_residual(bent_x, metric, charge) == pytest.approx(
        per_sample_motion_residual(bent_x, metric, charge), rel=1e-7)


def test_rate_audit_is_exact_at_coarse_steps_and_sees_a_1e7_rate_error():
    """At dt = 1e-2 the five-point rates leave the correct lapse trajectory
    (g = 0.08, p1 = 0.8) far below the 1e-8 tolerance, where the three-point
    rates read 1.6e-7; a tau whose rate is off by a relative 1e-7 still fails."""
    metric = uniform_lapse_metric(0.08)
    traj = integrate(moving_clock(1.0, (0.8, 0.0, 0.0)), metric, 0.0, 2.0, 1e-2)
    assert proper_time_residual(traj, metric) < 1e-12
    states = traj.states.copy()
    states[:, 0] = states[0, 0] + (states[:, 0] - states[0, 0]) * (1.0 + 1e-7)
    wrong = dataclasses.replace(traj, states=states)
    # the rounding floor of this slow clock sits far below the error
    assert rate_rounding_floor(wrong) < 1e-12
    assert proper_time_residual(wrong, metric) > 1e-8


@pytest.mark.parametrize("p1", [1e4, 1e5])
def test_rate_rounding_floor_covers_a_fast_free_clock(p1):
    # a free flat clock is exact to rounding, but its metric rate 1/|p1|
    # magnifies the rounding of dx/dt; the floor bounds what is left
    traj = integrate(moving_clock(1.0, (p1, 0.0, 0.0)), FLAT, 0.0, 10.0, 1e-3)
    residual = proper_time_residual(traj, FLAT)
    floor = rate_rounding_floor(traj)
    assert 1e-8 < residual < floor < 10.0 * residual


def test_rate_audit_needs_five_samples():
    # and so does the motion audit
    traj = integrate(moving_clock(1.0, (0.3, 0.0, 0.0)), FLAT, 0.0, 0.04, 1e-2)
    assert proper_time_residual(traj, FLAT) < 1e-12
    assert geodesic_lorentz_residual(traj, FLAT) < 1e-12
    short = dataclasses.replace(traj, times=traj.times[:4], states=traj.states[:4])
    with pytest.raises(ValueError, match="five-point"):
        proper_time_residual(short, FLAT)
    with pytest.raises(ValueError, match="five-point"):
        geodesic_lorentz_residual(short, FLAT)


def test_motion_audit_is_exact_at_coarse_steps_and_stays_below_its_floor_at_fine_ones():
    """The five-point stencils leave the correct lapse trajectory (g = 0.2,
    p1 = 0.8, dt = 0.02) far below the 1e-6 tolerance, where three-point
    differences read 2.2e-6; at dt = 1e-4 (g = 0.08) rounding dominates and
    stays below ``motion_rounding_floor``.  A path bent off the free motion
    by a relative 1e-4 still fails."""
    metric = uniform_lapse_metric(0.2)
    traj = integrate(moving_clock(1.0, (0.8, 0.0, 0.0)), metric, 0.0, 2.0, 0.02)
    assert geodesic_lorentz_residual(traj, metric) < 1e-10
    states = traj.states.copy()
    states[:, 4] *= 1.0 + 1e-4 * np.sin(traj.times)
    assert geodesic_lorentz_residual(dataclasses.replace(traj, states=states), metric) > 1e-6
    metric = uniform_lapse_metric(0.08)
    fine = integrate(moving_clock(1.0, (0.8, 0.0, 0.0)), metric, 0.0, 2.0, 1e-4)
    assert geodesic_lorentz_residual(fine, metric) < motion_rounding_floor(fine)
