"""Extended phase-space dynamics of a clock whose proper time tau and rest
energy M are canonical variables alongside the spatial pair (x, p).

The system carries the second-class constraint pair phi1 = M - p_tau,
phi2 = p_M; with the consistency-fixed multipliers the total Hamiltonian is

    H = H0 - f M (M - p_tau) / sqrt(M^2 + c^2 |p|^2),
    H0 = f sqrt(M^2 + c^2 |p|^2) - c e A_0.

The background has a lapse f and a scalar potential A_0 over flat spatial
sections, but no vector potential A_i, so the kinetic momentum u = p - e A
is p itself.  The code runs at c = 1; the formulas keep the symbol.

On the constraint surface H reduces to H0, tau advances at the metric
proper-time rate, and M, p_tau, p_M are conserved.  Integration is plain
fixed-step RK4 with no constraint projection: drift is a diagnostic, not
something to hide.  H reads x only through x^1, and of the coordinates it
reads only x^1 and p_1 have rates that are not identically zero, so a
stepped flow steps that pair alone and sums all ten coordinates' RK4
increments on columns afterwards; the samples are bitwise those of the
four-stage loop over all ten.
"""
from __future__ import annotations

import math

import numpy as np

from .metric import StaticMetric, check_lapse

CONSTRAINT_SURFACE_TOL = 1e-12

# a stepped batch of this many clocks or more steps on (N,) columns, a smaller one clock by
# clock on floats; on a 2-core host the two cost the same near 23 clocks (0.14 s per 2,000 steps)
COLUMN_CLOCKS = 23
# clock-steps (steps times clocks stepped together) whose stages the stepped loop records
# before it sums them: the record and the column pass then take a few MB at any length
STAGE_BLOCK = 4096


def moving_clock(M: float, p=(0.0, 0.0, 0.0), x=(0.0, 0.0, 0.0), tau: float = 0.0) -> np.ndarray:
    """On-surface initial data for a clock of rest energy M with spatial
    momentum p at x: the state (tau, p_tau = M, M, p_M = 0, x^i, p_i)."""
    if M <= 0.0:
        raise ValueError("rest energy must be positive for prepared initial data")
    z = np.empty(10)
    z[0:4] = tau, M, M, 0.0
    z[4:7], z[7:10] = x, p
    return z


def _root(M, p1, p2, p3, sqrt):
    """|p|^2 = p1 p1 + p2 p2 + p3 p3 and the root R = sqrt(M^2 + c^2 |p|^2),
    on floats or on columns, once the root's argument is positive."""
    qf = p1 * p1 + p2 * p2 + p3 * p3
    K2 = M * M + qf
    if (K2 if K2.__class__ is float else K2.min()) <= 0.0:
        raise ValueError("degenerate point: vanishing square-root argument")
    return qf, sqrt(K2)


def total_hamiltonian(z, metric: StaticMetric, charge: float = 0.0):
    """Constraint-consistent Hamiltonian H0 - f M (M - p_tau) / R at every
    state of a (..., 10) array, a float at one (10,) state; coincides with
    H0 = f R - c e A_0 when phi1 = 0."""
    z = np.asarray(z, float)
    x, M = z[..., 4:7], z[..., 2]
    R = _root(M, z[..., 7], z[..., 8], z[..., 9], np.sqrt)[1]
    f = metric.lapse(x)
    h = f * R - charge * metric.pot0(x) - f * M * (M - z[..., 1]) / R
    return float(h) if z.ndim == 1 else h


# the coordinates H reads: p_tau, M, x^1 and p_i
_READ = (1, 2, 4, 7, 8, 9)


def _pair_rates(M, phi1, p2, p3, g: float, slope: float, charge: float, sqrt):
    """The rates of x^1 and p_1, the two coordinates H reads that move: H reads
    x only through x^1, and the rates of p_tau and M are 0.0, those of p_2 and
    p_3 -0.0.  At fixed M, phi1 = M - p_tau, p_2 and p_3 (floats, or the (N,)
    columns of N clocks, as in ``_rates``) it is a function of (x^1, p_1) that
    returns dx^1/dt, dp_1/dt and the terms the other rates share,
    (f, |p|^2, R, R^3, s, b)."""
    Mphi, force = M * phi1, charge * slope

    def rates(x1, p1):
        qf, R = _root(M, p1, p2, p3, sqrt)
        f = 1.0 if g == 0.0 else check_lapse(1.0 + g * x1)
        try:
            R3 = R * R * R
            s = 1.0 / R + Mphi / R3
            b = dH1 = 0.0
            if g != 0.0:  # the lapse gradient (g, 0, 0) times b = R - M phi1 / R
                b = R - Mphi / R
                dH1 = g * b
            if slope != 0.0:  # the potential gradient (slope, 0, 0) times the charge
                dH1 = dH1 - force
            # x^1: dH/dp_1, g^{11} p_1 = p_1 + 0.0 (-0.0 -> 0.0); p_1: -dH/dx^1
            return f * (p1 + 0.0) * s, -dH1, (f, qf, R, R3, s, b)
        except ZeroDivisionError:  # R^3 underflowed to 0 on floats: divide as numpy does
            dx1, dp1, terms = _pair_rates(*map(np.float64, (M, phi1, p2, p3)), g, slope,
                                          charge, np.sqrt)(np.float64(x1), np.float64(p1))
            return float(dx1), float(dp1), tuple(map(float, terms))
    return rates


def _rates(p_tau, M, x1, p1, p2, p3, g: float, slope: float, charge: float, sqrt):
    """Hamilton's equations, from analytic partials of H: the ten rates dz/dt
    from the six coordinates H reads, as floats (``sqrt = math.sqrt``) or as
    the (N,) columns of N clocks (``sqrt = np.sqrt``), which round alike.  The
    background is the lapse slope ``g`` and the potential slope ``slope``; an
    absent field's terms drop out, and a rate no coordinate enters is a float.
    The x^1 and p_1 rates, and the terms the others share, are ``_pair_rates``'s."""
    phi1 = M - p_tau
    dx1, dp1, (f, qf, R, R3, s, b) = _pair_rates(M, phi1, p2, p3, g, slope, charge,
                                                 sqrt)(x1, p1)
    try:
        dH2 = dH3 = 0.0
        if g != 0.0:
            dH2, dH3 = 0.0 * b, 0.0 * b
        if slope != 0.0:
            dH2, dH3 = dH2 - charge * 0.0, dH3 - charge * 0.0
        # tau: dH/dp_tau; p_tau, M: 0, H has no tau or p_M; p_M: -dH/dM, 0 on the
        # surface; x^i: dH/dp_i, g^{ij} p_j = p + 0.0 (-0.0 -> 0.0); p_i: -dH/dx^i
        return (f * M / R, 0.0, 0.0, f * phi1 * qf / R3, dx1,
                f * (p2 + 0.0) * s, f * (p3 + 0.0) * s, dp1, -dH2, -dH3)
    except ZeroDivisionError:  # R^3 underflowed to 0 on floats: divide as numpy does
        return tuple(map(float, _rates(*map(np.float64, (p_tau, M, x1, p1, p2, p3)),
                                       g, slope, charge, np.sqrt)))


def hamilton_rhs(z: np.ndarray, metric: StaticMetric, charge: float = 0.0) -> np.ndarray:
    """Hamilton's equations at states z of shape (..., 10): the rates dz/dt,
    of the same shape, each one ``_rates`` of the columns of z."""
    out = np.empty(z.shape)
    for i, rate in enumerate(_rates(*(z[..., i] for i in _READ), metric.lapse_g,
                                     metric.a0_slope, charge, np.sqrt)):
        out[..., i] = rate
    return out


# The most steps a configured trajectory takes: the runner's table holds 14 float64
# columns, 112 bytes per step and member, so 10^6 steps take 112 MB per member before
# the audits' arrays of the same length (the default run takes 10^4 steps)
MAX_STEPS = 10**6


def whole_steps(t_end: float, dt: float) -> int | None:
    """Number of dt steps that make up t_end (natural units), or None when
    t_end is not a whole positive number of steps to within 1e-9 max(1, t_end),
    or t_end / dt is not finite."""
    quotient = t_end / dt
    if not math.isfinite(quotient):
        return None
    n_steps = int(round(quotient))
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        return None
    return n_steps


def _rk4(states: np.ndarray, metric: StaticMetric, charge: float, dt: float, sqrt) -> None:
    """RK4 steps from ``states[0]`` into ``states[1:]``: one clock's (10,)
    states on floats (``sqrt = math.sqrt``), or the (N, 10) states of N
    clocks on (N,) columns (``sqrt = np.sqrt``).

    The loop steps only the pair (x^1, p_1), through ``_pair_rates``, and
    records the pair's four stage inputs at every step; every other
    coordinate H reads keeps its value at every stage.  Every
    ``STAGE_BLOCK`` clock-steps, one ``_rates`` call on the recorded
    (steps, 4) or (steps, 4, N) stage columns gives all ten rates at every
    stage, the increments ``sixth (k1 + 2 k2 + 2 k3 + k4)`` are formed on
    those columns, and ``np.add.accumulate`` sums them into the samples:
    the adds of the loop over all ten coordinates, in its order.  p_tau and
    M enter as ``p_tau + 0.0`` and ``M + 0.0``, their stage inputs after
    the first stage; a -0.0 there changes no rate of the pair and no
    increment.  Where R = sqrt(M^2 + c^2 |p|^2) overflows to inf, the rates
    of p_2 and p_3 are nan (0.0 * inf): the ten-coordinate loop then carried
    nan into every later stage, while here p_1 reads -inf or inf where that
    loop read nan; every other sample is the same."""
    g, slope = metric.lapse_g, metric.a0_slope
    half, sixth = 0.5 * dt, dt / 6.0
    # a state as its ten coordinates: floats, or the rows of the (10, N) transpose
    z = states[0].tolist() if states.ndim == 2 else np.array(states[0].T)
    _, p_tau, M, _, x, _, _, p, p2, p3 = z
    p_tau, M = p_tau + 0.0, M + 0.0
    pair = _pair_rates(M, M - p_tau, p2, p3, g, slope, charge, sqrt)
    block = max(1, STAGE_BLOCK // (1 if states.ndim == 2 else states.shape[1]))
    for lo in range(1, len(states), block):
        record = []
        for _ in range(min(block, len(states) - lo)):
            a1, b1, _ = pair(x, p)
            x2, q2 = x + half * a1, p + half * b1
            a2, b2, _ = pair(x2, q2)
            x3, q3 = x + half * a2, p + half * b2
            a3, b3, _ = pair(x3, q3)
            x4, q4 = x + dt * a3, p + dt * b3
            a4, b4, _ = pair(x4, q4)
            record += x, x2, x3, x4, p, q2, q3, q4
            x = x + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            p = p + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        stages = np.array(record, float).reshape((-1, 2, 4) + np.shape(x))
        samples = states[lo - 1:lo + len(stages)]
        for i, k in enumerate(_rates(p_tau, M, stages[:, 0], stages[:, 1], p2, p3, g, slope,
                                     charge, np.sqrt)):
            k = np.broadcast_to(k, stages[:, 0].shape)
            samples[1:, ..., i] = sixth * (k[:, 0] + 2.0 * k[:, 1] + 2.0 * k[:, 2] + k[:, 3])
        np.add.accumulate(samples, axis=0, out=samples)


def stationary_flow(metric: StaticMetric, charge: float, hold_x: bool = False) -> bool:
    """Whether every RK4 stage has the same rates: the rates read x and p
    only through the metric's fields, and p_tau and M do not move, so a held
    clock, or a free one (no lapse slope, and no potential slope or no
    charge to feel it), never changes them.  ``integrate`` then takes one
    right-hand-side evaluation per batch, else four stage evaluations (of
    the pair rates) per step and clock."""
    return hold_x or (metric.lapse_g == 0.0 and (metric.a0_slope == 0.0 or charge == 0.0))


def integrate(z0, metric: StaticMetric, charge: float, t_end: float, dt: float,
              *, hold_x: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """Fixed-step RK4 states from on-surface initial data; ``states[i]`` is
    the state at coordinate time ``i * dt``.

    ``z0`` is one (10,) state, giving states of shape (n_steps + 1, 10), or
    the (N, 10) states (or a sequence of N states) of clocks that share the
    metric, charge and step, integrated as one batch with states of shape
    (n_steps + 1, N, 10).  With ``hold_x`` the spatial pair is frozen,
    modeling a clock pinned by an external mount (the weighing setups hold
    the clock in place); only the (tau, p_tau, M, p_M) sector then evolves.
    ``out``, if given, receives the states (it may be a strided view into a
    larger table) and is returned.

    A ``stationary_flow`` takes one evaluation for the batch, and the
    samples are summed step by step with the loop's own increment, so they
    are bitwise those of the loop.  Every other flow steps the pair
    (x^1, p_1) through ``_pair_rates`` and then sums every coordinate's
    increments from one ``_rates`` call on the recorded stage columns
    (``_rk4``): a batch of fewer than ``COLUMN_CLOCKS`` clocks clock by clock
    on Python floats, where numpy's per-call dispatch would cost more than
    the arithmetic, and a larger one on (N,) columns.  Either way the samples
    are bitwise those of the four-stage loop over ``hamilton_rhs`` while R
    stays finite (``_rk4``).
    """
    z = np.array(z0, dtype=float)
    phi1, phi2 = constraint_drift(z.reshape(-1, 10))
    if phi1 > CONSTRAINT_SURFACE_TOL or phi2 > CONSTRAINT_SURFACE_TOL:
        raise ValueError(
            f"initial data off the constraint surface: phi1={phi1:.3e}, phi2={phi2:.3e}")
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError("need dt > 0 and t_end > 0")
    n_steps = whole_steps(t_end, dt)
    if n_steps is None:
        raise ValueError("t_end must be an integer number of steps")

    states = np.empty((n_steps + 1,) + z.shape) if out is None else out
    states[0] = z
    if stationary_flow(metric, charge, hold_x):
        k = hamilton_rhs(z, metric, charge)
        if hold_x:
            k[..., 4:10] = 0.0
        states[1:] = dt / 6.0 * (k + 2.0 * k + 2.0 * k + k)
        np.add.accumulate(states, axis=0, out=states)
    else:
        clocks = states[:, None] if z.ndim == 1 else states
        if clocks.shape[1] >= COLUMN_CLOCKS:
            _rk4(clocks, metric, charge, dt, np.sqrt)
        else:
            for j in range(clocks.shape[1]):
                _rk4(clocks[:, j], metric, charge, dt, math.sqrt)
    return states


def constraint_drift(states: np.ndarray):
    """Peak |phi1| = |M - p_tau| and |phi2| = |p_M| over the samples
    (axis 0) of a states array."""
    return (np.abs(states[..., 2] - states[..., 1]).max(axis=0),
            np.abs(states[..., 3]).max(axis=0))


def relative_drift(series: np.ndarray):
    """Peak-to-peak spread of a conserved quantity (along axis 0) relative to
    its first sample."""
    return (series.max(axis=0) - series.min(axis=0)) / np.maximum(np.abs(series[0]), 1e-300)


def _d_dt(series: np.ndarray, dt: float) -> np.ndarray:
    """d/dt along axis 0 by the five-point central stencil
    (-f[i+2] + 8 f[i+1] - 8 f[i-1] + f[i-2]) / 12 dt, at the samples two or
    more steps from either end; truncation grows as dt^4 (Fornberg, Math.
    Comp. 51, 699 (1988))."""
    if len(series) < 5:
        raise ValueError("trajectory too short for five-point differences")
    return (-series[4:] + 8.0 * series[3:-1] - 8.0 * series[1:-3] + series[:-4]) / (12.0 * dt)


def _d2_dt2(series: np.ndarray, dt: float) -> np.ndarray:
    """d^2/dt^2 along axis 0 by the five-point central stencil
    (-f[i+2] + 16 f[i+1] - 30 f[i] + 16 f[i-1] - f[i-2]) / 12 dt^2, at the
    samples of ``_d_dt``; truncation grows as dt^4."""
    return (-series[4:] + 16.0 * series[3:-1] - 30.0 * series[2:-2] + 16.0 * series[1:-3]
            - series[:-4]) / (12.0 * dt * dt)


# The audits take the states of ``integrate``, sampled every dt: one value per clock.
def proper_time_residual(states: np.ndarray, dt: float, metric: StaticMetric):
    """Peak deviation of the integrated tau rate from the metric rate
    sqrt(f^2 - |xdot|^2 / c^2), with rates taken from the trajectory itself
    by the five-point stencil of ``_d_dt``, whose dt^4 truncation stays below
    the tolerance at the steps RK4 is run with; the two samples at each end
    have no rate."""
    tau, x = states[..., 0], states[..., 4:7]
    tau_dot, x_dot = _d_dt(tau, dt), _d_dt(x, dt)
    f = metric.lapse(x[2:-2])
    speed2 = np.vecdot(x_dot, x_dot)
    rate = np.sqrt(np.maximum(f * f - speed2, 0.0))
    return np.abs(tau_dot - rate).max(axis=0)


def rate_rounding_floor(states: np.ndarray, dt: float):
    """Bound on the rounding part of ``proper_time_residual``, per clock:
    each sample carries a relative rounding eps, which the five-point
    weights (total 1.5) divide by dt; the metric rate sqrt(f^2 - v^2) takes
    the error of v = dx/dt times |v| / rate, so a fast clock, whose rate is
    small, loses digits as 1/rate.  A floor at or above the clock's smallest
    rate could pass any tau, so that clock reads inf, a failed check."""
    tau, x = states[..., 0], states[..., 4:7]
    rate = np.abs(np.diff(tau, axis=0)).min(axis=0) / dt
    speed = np.linalg.norm(np.diff(x, axis=0), axis=-1).max(axis=0) / dt
    reach = (np.abs(tau).max(axis=0)
             + speed * np.linalg.norm(x, axis=-1).max(axis=0) / rate)
    floor = 1.5 * np.finfo(float).eps * reach / dt
    return np.where(floor < rate, floor, np.inf)[()]


def geodesic_lorentz_residual(states: np.ndarray, dt: float, metric: StaticMetric,
                              charge: float = 0.0):
    """Peak violation, per unit rest mass M/c^2, of the proper-time-
    parameterized equation of motion

        (M/c^2) [x''^rho + Gamma^rho_{mu nu} x'^mu x'^nu] = e f^{rho mu} g_{mu nu} x'^nu,

    with ' = d/dtau rebuilt from the coordinate-time samples by the chain
    rule (the five-point stencils of ``_d_dt`` and ``_d2_dt2``).  In the
    Rindler metric diag(-f^2, delta_ij), f = 1 + g x^1, the connection has
    two distinct terms, Gamma^0_{01} = g / f and Gamma^1_{00} = f g, and
    A_0 = a0_slope x^1 the one field f_{10}, so with v^0 = t' and
    q = e a0_slope / M the components are

        r^0 = t'' + (2 g / f) v^0 x^1' - q x^1' / f^2,
        r^1 = x^1'' + f g (v^0)^2 - q v^0,    r^2,3 = x^2'', x^3''.

    Truncation grows as dt^4 and rounding in the second derivatives as
    dt^-2; the two samples at each end are not audited.  A clock whose tau
    does not strictly increase has no d/dtau and reads inf."""
    tau, x = states[..., 0], states[..., 4:7]
    stalled = np.any(np.diff(tau, axis=0) <= 0.0, axis=0)
    rate, accel = _d_dt(tau, dt), _d2_dt2(tau, dt)  # dtau/dt and d^2tau/dt^2
    rate3, dx_dt = rate**3, _d_dt(x, dt)
    v0, t2 = 1.0 / rate, -accel / rate3  # t' and t''
    v1 = dx_dt[..., 0] / rate  # x^1'
    r = (_d2_dt2(x, dt) * rate[..., None] - dx_dt * accel[..., None]) / rate3[..., None]  # x^i''
    f, g = metric.lapse(x[2:-2]), metric.lapse_g
    q = charge * metric.a0_slope / states[2:-2, ..., 2]
    r0 = t2 + (2.0 * g / f) * v0 * v1 - q * v1 / (f * f)
    r[..., 0] += f * g * v0 * v0 - q * v0
    residual = np.maximum(np.abs(r0).max(axis=0), np.abs(r).max(axis=(0, -1)))
    return np.where(stalled, np.inf, residual)[()]


def motion_rounding_floor(states: np.ndarray, dt: float):
    """Bound on the rounding part of ``geodesic_lorentz_residual``, per clock:
    each sample carries a relative rounding eps, which the five-point second
    derivative (weights totalling 64/12) divides by dt^2 and the change to
    proper time by (dtau/dt)^3, so the bound grows with the reach |x|, |tau|
    of the samples."""
    tau, x = states[..., 0], states[..., 4:7]
    rate = np.diff(tau, axis=0).min(axis=0) / dt
    speed = np.maximum(np.abs(np.diff(x, axis=0)).max(axis=(0, -1)) / dt, 1.0)  # >= c
    reach = rate * np.abs(x).max(axis=(0, -1)) + speed * np.abs(tau).max(axis=0)
    return 64.0 / 12.0 * np.finfo(float).eps * reach / (rate**3 * dt * dt)
