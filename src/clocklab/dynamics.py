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
something to hide.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .metric import StaticMetric, check_lapse

CONSTRAINT_SURFACE_TOL = 1e-12


@dataclass(frozen=True)
class ExtendedPhaseSpacePoint:
    """Canonical coordinates (tau, p_tau, M, p_M, x^i, p_i)."""

    tau: float
    p_tau: float
    M: float
    p_M: float
    x: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).reshape(3))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float).reshape(3))

    def as_vector(self) -> np.ndarray:
        z = np.empty(10)
        z[0], z[1], z[2], z[3] = self.tau, self.p_tau, self.M, self.p_M
        z[4:7] = self.x
        z[7:10] = self.p
        return z

    @staticmethod
    def from_vector(z: np.ndarray) -> "ExtendedPhaseSpacePoint":
        return ExtendedPhaseSpacePoint(z[0], z[1], z[2], z[3], z[4:7].copy(), z[7:10].copy())


def clock_at_rest(M: float, x=(0.0, 0.0, 0.0), tau: float = 0.0) -> ExtendedPhaseSpacePoint:
    """On-surface initial data for a clock of rest energy M at rest at x."""
    if M <= 0.0:
        raise ValueError("rest energy must be positive for prepared initial data")
    return ExtendedPhaseSpacePoint(tau, M, M, 0.0, np.asarray(x, float), np.zeros(3))


def moving_clock(M: float, p, x=(0.0, 0.0, 0.0), tau: float = 0.0) -> ExtendedPhaseSpacePoint:
    """On-surface initial data for a clock with spatial momentum p."""
    if M <= 0.0:
        raise ValueError("rest energy must be positive for prepared initial data")
    return ExtendedPhaseSpacePoint(tau, M, M, 0.0, np.asarray(x, float), np.asarray(p, float))


class PhaseSpaceRates(NamedTuple):
    tau_dot: float
    p_tau_dot: float
    M_dot: float
    p_M_dot: float
    x_dot: np.ndarray
    p_dot: np.ndarray

    def as_vector(self) -> np.ndarray:
        z = np.empty(10)
        z[0], z[1], z[2], z[3] = self.tau_dot, self.p_tau_dot, self.M_dot, self.p_M_dot
        z[4:7] = self.x_dot
        z[7:10] = self.p_dot
        return z


def _kinetic(z: np.ndarray):
    """Common kinetic pieces at states z of shape (..., 10), as (..., 1)
    columns: g^{ij}p_j = p, |p|^2 and the root R."""
    p = z[..., 7:10]
    gp = p + 0.0  # -0.0 -> 0.0, as g^{ij} p_j gives
    qf = np.vecdot(p, gp, keepdims=True)
    K2 = z[..., 2:3] * z[..., 2:3] + qf
    if K2.min() <= 0.0:
        raise ValueError("degenerate point: vanishing square-root argument")
    return gp, qf, np.sqrt(K2)


def total_hamiltonian(pt, metric: StaticMetric, charge: float = 0.0):
    """Constraint-consistent Hamiltonian H0 - f M (M - p_tau) / R, at a point
    (a float) or at every state of a (..., 10) array; coincides with
    H0 = f R - c e A_0 when phi1 = 0."""
    z = pt.as_vector() if isinstance(pt, ExtendedPhaseSpacePoint) else np.asarray(pt, float)
    x, M = z[..., 4:7], z[..., 2]
    R = _kinetic(z)[2][..., 0]
    f = metric.lapse(x)
    h = f * R - charge * metric.pot0(x) - f * M * (M - z[..., 1]) / R
    return float(h) if z.ndim == 1 else h


def _rhs_vector(z: np.ndarray, metric: StaticMetric, charge: float) -> np.ndarray:
    """Hamilton's equations at states z of shape (..., 10).  Per-clock
    quantities are (..., 1) columns; absent metric fields drop out.
    ``_rhs_floats`` repeats it operation for operation on one state, for the
    stepped flows; the tests pin the two bitwise equal, so change both."""
    p_tau, M = z[..., 1:2], z[..., 2:3]
    x = z[..., 4:7]
    gp, qf, R = _kinetic(z)
    f = metric.lapse(x[..., None, :])  # a (..., 1) column, or 1.0
    phi1 = M - p_tau
    R3 = R * R * R

    out = np.empty(z.shape)
    out[..., 0:1] = f * M / R               # tau rate: dH/dp_tau
    out[..., 1:3] = 0.0                     # H is tau- and p_M-independent
    out[..., 3:4] = f * phi1 * qf / R3      # p_M = -dH/dM; vanishes on surface
    out[..., 4:7] = f * gp * (1.0 / R + M * phi1 / R3)

    dH = 0.0
    if metric.lapse_g != 0.0:
        dH = metric.lapse_grad(x) * (R - M * phi1 / R)
    if metric.a0_slope != 0.0:
        dH = dH - charge * metric.pot0_grad(x)
    out[..., 7:10] = -dH
    return out


def _rhs_floats(z: list[float], metric: StaticMetric, charge: float) -> list[float]:
    """``_rhs_vector`` at one state given as ten Python floats, operation for
    operation, with its checks and messages; the fields are read from the
    metric's two slopes.  Float + - * / and math.sqrt round as numpy's; the
    dot products stay ``np.vecdot``, which rounds unlike a plain sum.  So the
    rates are bitwise those of ``_rhs_vector``."""
    p_tau, M = z[1], z[2]
    p = z[7:10]
    gp = [v + 0.0 for v in p]
    qf = float(np.vecdot(np.array(p), np.array(gp)))
    K2 = M * M + qf
    if K2 <= 0.0:
        raise ValueError("degenerate point: vanishing square-root argument")
    R = math.sqrt(K2)
    g, slope = metric.lapse_g, metric.a0_slope
    f = 1.0 if g == 0.0 else check_lapse(1.0 + g * z[4])
    try:  # R^3 may underflow to 0, where numpy divides to inf or nan
        phi1 = M - p_tau
        R3 = R * R * R

        s = 1.0 / R + M * phi1 / R3
        rates = [f * M / R, 0.0, 0.0, f * phi1 * qf / R3, *(f * v * s for v in gp)]
        dH = [0.0, 0.0, 0.0]
        if g != 0.0:  # the gradient (g, 0, 0) times R - M phi1 / R
            b = R - M * phi1 / R
            dH = [g * b, 0.0 * b, 0.0 * b]
        if slope != 0.0:
            dH = [dH[0] - charge * slope, dH[1] - charge * 0.0, dH[2] - charge * 0.0]
        return rates + [-h for h in dH]
    except ZeroDivisionError:
        return _rhs_vector(np.array(z), metric, charge).tolist()


def hamilton_rhs(pt: ExtendedPhaseSpacePoint, metric: StaticMetric,
                 charge: float = 0.0) -> PhaseSpaceRates:
    """Canonical equations of motion from analytic partials of H."""
    z = _rhs_vector(pt.as_vector(), metric, charge)
    return PhaseSpaceRates(z[0], z[1], z[2], z[3], z[4:7], z[7:10])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Coordinate times and the matching states: ``states[i]`` is the
    10-component state at ``times[i]``, or the (N, 10) states of a batch of
    N clocks integrated together.  ``rhs_evals`` counts the right-hand-side
    evaluations that made them, over all clocks: 4 n_steps N for a stepped
    batch, one for a stationary one.  The audits below reduce over time and
    return one value per clock of a batch."""

    times: np.ndarray
    states: np.ndarray = field(repr=False)
    dt: float
    rhs_evals: int

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if s.ndim not in (2, 3) or s.shape[0] != t.size or s.shape[-1] != 10:
            raise ValueError("states must be (len(times), 10) or (len(times), N, 10)")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    def __len__(self) -> int:
        return self.times.size

    @property
    def tau(self) -> np.ndarray:
        return self.states[..., 0]

    @property
    def x(self) -> np.ndarray:
        return self.states[..., 4:7]

    @property
    def p(self) -> np.ndarray:
        return self.states[..., 7:10]

    def constraint_values(self) -> tuple[np.ndarray, np.ndarray]:
        return self.states[..., 2] - self.states[..., 1], self.states[..., 3]


def whole_steps(t_end: float, dt: float) -> int | None:
    """Number of dt steps that make up t_end (natural units), or None when
    t_end is not a whole positive number of steps to within 1e-9 max(1, t_end)."""
    n_steps = int(round(t_end / dt))
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        return None
    return n_steps


def _rk4_floats(states: np.ndarray, metric: StaticMetric, charge: float, dt: float) -> None:
    """RK4 steps of one clock from ``states[0]`` into ``states[1:]``, with each
    stage on ten Python floats: on one clock, numpy's per-call dispatch would
    cost more than the arithmetic."""
    stage, half, sixth = _rhs_floats, 0.5 * dt, dt / 6.0
    z = states[0].tolist()
    for i in range(1, len(states)):
        k1 = stage(z, metric, charge)
        k2 = stage([a + half * k for a, k in zip(z, k1)], metric, charge)
        k3 = stage([a + half * k for a, k in zip(z, k2)], metric, charge)
        k4 = stage([a + dt * k for a, k in zip(z, k3)], metric, charge)
        z = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)]
        states[i] = z


def integrate(pt0, metric: StaticMetric, charge: float, t_end: float, dt: float,
              *, hold_x: bool = False, out: np.ndarray | None = None) -> Trajectory:
    """Fixed-step RK4 trajectory from on-surface initial data.

    ``pt0`` is one point, giving states of shape (n_steps + 1, 10), or a
    sequence of N points that share the metric, charge and step, integrated
    as one batch with states of shape (n_steps + 1, N, 10).  With ``hold_x``
    the spatial pair is frozen, modeling a clock pinned by an external mount
    (the weighing setups hold the clock in place); only the
    (tau, p_tau, M, p_M) sector then evolves.  ``out``, if given, receives
    the states (it may be a strided view into a larger table).

    The rates read x and p only through the metric's fields, and p_tau and M
    do not move, so a held clock, or any clock in flat space without
    potentials (both metric slopes 0), has the same rates at every RK4
    stage.  Such a stationary flow takes one evaluation for the batch, and
    the samples are summed step by step with the loop's own increment, so
    they are bitwise those of the loop.  Every other flow steps clock by clock, its stages on Python floats
    (``_rhs_floats``), bitwise equal to the loop over ``_rhs_vector``.
    """
    z = pt0.as_vector() if isinstance(pt0, ExtendedPhaseSpacePoint) else np.array(
        [pt.as_vector() for pt in pt0])
    phi1, phi2 = (np.abs(v).max() for v in (z[..., 2] - z[..., 1], z[..., 3]))
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
    if hold_x or metric.lapse_g == metric.a0_slope == 0.0:
        k = _rhs_vector(z, metric, charge)
        if hold_x:
            k[..., 4:10] = 0.0
        states[1:] = dt / 6.0 * (k + 2.0 * k + 2.0 * k + k)
        np.add.accumulate(states, axis=0, out=states)
        rhs_evals = 1
    else:
        clocks = states[:, None] if z.ndim == 1 else states
        for j in range(clocks.shape[1]):
            _rk4_floats(clocks[:, j], metric, charge, dt)
        rhs_evals = 4 * n_steps * clocks.shape[1]
    times = dt * np.arange(n_steps + 1)
    return Trajectory(times=times, states=states, dt=dt, rhs_evals=rhs_evals)


def constraint_drift(traj: Trajectory):
    """Peak |phi1| and |phi2| along the trajectory."""
    phi1, phi2 = traj.constraint_values()
    return np.abs(phi1).max(axis=0), np.abs(phi2).max(axis=0)


def hamiltonian_series(traj: Trajectory, metric: StaticMetric,
                       charge: float = 0.0) -> np.ndarray:
    """Total Hamiltonian at every sample of the trajectory, in one pass."""
    return total_hamiltonian(traj.states, metric, charge)


def relative_drift(series: np.ndarray):
    """Peak-to-peak spread of a conserved quantity (along axis 0) relative to
    its first sample."""
    return (series.max(axis=0) - series.min(axis=0)) / np.maximum(np.abs(series[0]), 1e-300)


def conservation_drift(traj: Trajectory, metric: StaticMetric, charge: float = 0.0):
    """Relative peak-to-peak drift of (H, M) along the trajectory."""
    return (relative_drift(hamiltonian_series(traj, metric, charge)),
            relative_drift(traj.states[..., 2]))


def _d_dt(series: np.ndarray, dt: float) -> np.ndarray:
    """d/dt along axis 0 by the five-point central stencil
    (-f[i+2] + 8 f[i+1] - 8 f[i-1] + f[i-2]) / 12 dt, at the samples two or
    more steps from either end; truncation grows as dt^4 (Fornberg, Math.
    Comp. 51, 699 (1988))."""
    return (-series[4:] + 8.0 * series[3:-1] - 8.0 * series[1:-3] + series[:-4]) / (12.0 * dt)


def _d2_dt2(series: np.ndarray, dt: float) -> np.ndarray:
    """d^2/dt^2 along axis 0 by the five-point central stencil
    (-f[i+2] + 16 f[i+1] - 30 f[i] + 16 f[i-1] - f[i-2]) / 12 dt^2, at the
    samples of ``_d_dt``; truncation grows as dt^4."""
    return (-series[4:] + 16.0 * series[3:-1] - 30.0 * series[2:-2] + 16.0 * series[1:-3]
            - series[:-4]) / (12.0 * dt * dt)


def _need_five_samples(traj: Trajectory) -> None:
    if len(traj) < 5:
        raise ValueError("trajectory too short for five-point differences")


def proper_time_residual(traj: Trajectory, metric: StaticMetric):
    """Peak deviation of the integrated tau rate from the metric rate
    sqrt(f^2 - |xdot|^2 / c^2), with rates taken from the trajectory itself
    by the five-point stencil of ``_d_dt``, whose dt^4 truncation stays below
    the tolerance at the steps RK4 is run with; the two samples at each end
    have no rate."""
    _need_five_samples(traj)
    tau_dot, x_dot = _d_dt(traj.tau, traj.dt), _d_dt(traj.x, traj.dt)
    x = traj.x[2:-2]
    f = metric.lapse(x)
    speed2 = np.vecdot(x_dot, x_dot)
    rate = np.sqrt(np.maximum(f * f - speed2, 0.0))
    return np.abs(tau_dot - rate).max(axis=0)


def rate_rounding_floor(traj: Trajectory):
    """Bound on the rounding part of ``proper_time_residual``, per clock:
    each sample carries a relative rounding eps, which the five-point
    weights (total 1.5) divide by dt; the metric rate sqrt(f^2 - v^2) takes
    the error of v = dx/dt times |v| / rate, so a fast clock, whose rate is
    small, loses digits as 1/rate.  A floor at or above the clock's smallest
    rate could pass any tau, so that clock reads inf, a failed check."""
    dt = traj.dt
    rate = np.abs(np.diff(traj.tau, axis=0)).min(axis=0) / dt
    speed = np.linalg.norm(np.diff(traj.x, axis=0), axis=-1).max(axis=0) / dt
    reach = (np.abs(traj.tau).max(axis=0)
             + speed * np.linalg.norm(traj.x, axis=-1).max(axis=0) / rate)
    floor = 1.5 * np.finfo(float).eps * reach / dt
    return np.where(floor < rate, floor, np.inf)[()]


def geodesic_lorentz_residual(traj: Trajectory, metric: StaticMetric, charge: float = 0.0):
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
    _need_five_samples(traj)
    dt, tau, x = traj.dt, traj.tau, traj.x
    stalled = np.any(np.diff(tau, axis=0) <= 0.0, axis=0)
    rate, accel = _d_dt(tau, dt), _d2_dt2(tau, dt)  # dtau/dt and d^2tau/dt^2
    rate3, dx_dt = rate**3, _d_dt(x, dt)
    v0, t2 = 1.0 / rate, -accel / rate3  # t' and t''
    v1 = dx_dt[..., 0] / rate  # x^1'
    r = (_d2_dt2(x, dt) * rate[..., None] - dx_dt * accel[..., None]) / rate3[..., None]  # x^i''
    f, g = metric.lapse(x[2:-2]), metric.lapse_g
    q = charge * metric.a0_slope / traj.states[2:-2, ..., 2]
    r0 = t2 + (2.0 * g / f) * v0 * v1 - q * v1 / (f * f)
    r[..., 0] += f * g * v0 * v0 - q * v0
    residual = np.maximum(np.abs(r0).max(axis=0), np.abs(r).max(axis=(0, -1)))
    return np.where(stalled, np.inf, residual)[()]


def motion_rounding_floor(traj: Trajectory):
    """Bound on the rounding part of ``geodesic_lorentz_residual``, per clock:
    each sample carries a relative rounding eps, which the five-point second
    derivative (weights totalling 64/12) divides by dt^2 and the change to
    proper time by (dtau/dt)^3, so the bound grows with the reach |x|, |tau|
    of the samples."""
    dt = traj.dt
    rate = np.diff(traj.tau, axis=0).min(axis=0) / dt
    speed = np.maximum(np.abs(np.diff(traj.x, axis=0)).max(axis=(0, -1)) / dt, 1.0)  # >= c
    reach = rate * np.abs(traj.x).max(axis=(0, -1)) + speed * np.abs(traj.tau).max(axis=0)
    return 64.0 / 12.0 * np.finfo(float).eps * reach / (rate**3 * dt * dt)
