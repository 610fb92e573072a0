"""Extended phase-space dynamics of a clock whose proper time tau and rest
energy M are canonical variables alongside the spatial pair (x, p).

The system carries the second-class constraint pair phi1 = M - p_tau,
phi2 = p_M; with the consistency-fixed multipliers the total Hamiltonian is

    H = H0 - f M (M - p_tau) / sqrt(M^2 + c^2 g^{ij} u_i u_j),
    H0 = f sqrt(M^2 + c^2 g^{ij} u_i u_j) - c e A_0,      u_i = p_i - e A_i.

On the constraint surface H reduces to H0, tau advances at the metric
proper-time rate, and M, p_tau, p_M are conserved.  Integration is plain
fixed-step RK4 with no constraint projection: drift is a diagnostic, not
something to hide.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .metric import StaticMetric, christoffel, field_tensor, four_metric
from .units import NATURAL_UNITS, UnitContext

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


class ConstraintPair(NamedTuple):
    phi1: float  # M - p_tau
    phi2: float  # p_M


def constraints(pt: ExtendedPhaseSpacePoint) -> ConstraintPair:
    return ConstraintPair(pt.M - pt.p_tau, pt.p_M)


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


def _kinetic(pt_M: float, x: np.ndarray, p: np.ndarray, metric: StaticMetric,
             charge: float, c: float):
    """Common kinetic pieces: u = p - eA, g^{ij}u_j, |u|^2_g and the root R."""
    u = p - charge * metric.pot3(x)
    ginv = metric.inverse_metric3(x)
    gu = ginv @ u
    qf = float(u @ gu)
    if qf < 0.0:
        raise ValueError("spatial metric is not positive definite along u")
    K2 = pt_M * pt_M + c * c * qf
    if K2 <= 0.0:
        raise ValueError("degenerate point: vanishing square-root argument")
    return u, ginv, gu, qf, float(np.sqrt(K2))


def base_hamiltonian(pt: ExtendedPhaseSpacePoint, metric: StaticMetric,
                     charge: float = 0.0, units: UnitContext = NATURAL_UNITS) -> float:
    """H0 = f sqrt(M^2 + c^2 g^{ij} u_i u_j) - c e A_0."""
    c = units.c
    _, _, _, _, R = _kinetic(pt.M, pt.x, pt.p, metric, charge, c)
    return metric.lapse(pt.x) * R - c * charge * metric.pot0(pt.x)


def total_hamiltonian(pt: ExtendedPhaseSpacePoint, metric: StaticMetric,
                      charge: float = 0.0, units: UnitContext = NATURAL_UNITS) -> float:
    """Constraint-consistent Hamiltonian; coincides with H0 when phi1 = 0."""
    c = units.c
    _, _, _, _, R = _kinetic(pt.M, pt.x, pt.p, metric, charge, c)
    f = metric.lapse(pt.x)
    h0 = f * R - c * charge * metric.pot0(pt.x)
    return h0 - f * pt.M * (pt.M - pt.p_tau) / R


def _rhs_vector(z: np.ndarray, metric: StaticMetric, charge: float, c: float) -> np.ndarray:
    tau, p_tau, M, p_M = z[0], z[1], z[2], z[3]
    x = z[4:7]
    p = z[7:10]
    u, ginv, gu, qf, R = _kinetic(M, x, p, metric, charge, c)
    f = metric.lapse(x)
    phi1 = M - p_tau
    c2 = c * c
    R2 = R * R
    R3 = R2 * R

    out = np.empty(10)
    out[0] = f * M / R                      # tau rate: dH/dp_tau
    out[1] = 0.0                            # p_tau: H is tau-independent
    out[2] = 0.0                            # M: H is p_M-independent
    out[3] = f * phi1 * c2 * qf / R3        # p_M = -dH/dM; vanishes on surface
    out[4:7] = f * c2 * gu * (1.0 / R + M * phi1 / R3)

    df = metric.lapse_grad(x)
    dg3 = metric.metric3_grad(x)
    da0 = metric.pot0_grad(x)
    da3 = metric.pot3_grad(x)
    # d g^{ij}/dx^k = -g^{ia} (d g_ab/dx^k) g^{bj}; contract with u twice
    dqf = -(dg3 @ gu) @ gu - 2.0 * charge * (da3 @ gu)
    dR = c2 * dqf / (2.0 * R)
    dH = (df * (R - M * phi1 / R)
          + dR * (f + f * M * phi1 / R2)
          - c * charge * da0)
    out[7:10] = -dH
    return out


def hamilton_rhs(pt: ExtendedPhaseSpacePoint, metric: StaticMetric,
                 charge: float = 0.0, units: UnitContext = NATURAL_UNITS) -> PhaseSpaceRates:
    """Canonical equations of motion from analytic partials of H."""
    z = _rhs_vector(pt.as_vector(), metric, charge, units.c)
    return PhaseSpaceRates(z[0], z[1], z[2], z[3], z[4:7], z[7:10])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Coordinate times and the matching 10-component state rows."""

    times: np.ndarray
    states: np.ndarray = field(repr=False)
    dt: float

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if s.shape != (t.size, 10):
            raise ValueError("states must be (len(times), 10)")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    def __len__(self) -> int:
        return self.times.size

    def point(self, i: int) -> ExtendedPhaseSpacePoint:
        return ExtendedPhaseSpacePoint.from_vector(self.states[i])

    @property
    def tau(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def x(self) -> np.ndarray:
        return self.states[:, 4:7]

    @property
    def p(self) -> np.ndarray:
        return self.states[:, 7:10]

    def constraint_values(self) -> tuple[np.ndarray, np.ndarray]:
        return self.states[:, 2] - self.states[:, 1], self.states[:, 3]


def whole_steps(t_end: float, dt: float) -> int | None:
    """Number of dt steps that make up t_end (natural units), or None when
    t_end is not a whole positive number of steps to within 1e-9 max(1, t_end)."""
    n_steps = int(round(t_end / dt))
    if n_steps < 1 or abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        return None
    return n_steps


def integrate(pt0: ExtendedPhaseSpacePoint, metric: StaticMetric, charge: float,
              t_end: float, dt: float, units: UnitContext = NATURAL_UNITS,
              hold_x: bool = False) -> Trajectory:
    """Fixed-step RK4 trajectory from on-surface initial data.

    With ``hold_x`` the spatial pair is frozen, modeling a clock pinned by an
    external mount (the weighing setups hold the clock in place); only the
    (tau, p_tau, M, p_M) sector then evolves.
    """
    phi1, phi2 = constraints(pt0)
    if abs(phi1) > CONSTRAINT_SURFACE_TOL or abs(phi2) > CONSTRAINT_SURFACE_TOL:
        raise ValueError(
            f"initial data off the constraint surface: phi1={phi1:.3e}, phi2={phi2:.3e}")
    if dt <= 0.0 or t_end <= 0.0:
        raise ValueError("need dt > 0 and t_end > 0")
    n_steps = whole_steps(t_end, dt)
    if n_steps is None:
        raise ValueError("t_end must be an integer number of steps")

    c = units.c

    def rhs(z: np.ndarray) -> np.ndarray:
        dz = _rhs_vector(z, metric, charge, c)
        if hold_x:
            dz[4:10] = 0.0
        return dz

    states = np.empty((n_steps + 1, 10))
    z = pt0.as_vector()
    states[0] = z
    for i in range(n_steps):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * dt * k1)
        k3 = rhs(z + 0.5 * dt * k2)
        k4 = rhs(z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i + 1] = z
    times = dt * np.arange(n_steps + 1)
    return Trajectory(times=times, states=states, dt=dt)


def constraint_drift(traj: Trajectory) -> tuple[float, float]:
    phi1, phi2 = traj.constraint_values()
    return float(np.abs(phi1).max()), float(np.abs(phi2).max())


def hamiltonian_series(traj: Trajectory, metric: StaticMetric, charge: float = 0.0,
                       units: UnitContext = NATURAL_UNITS) -> np.ndarray:
    """Total Hamiltonian at every sample of the trajectory."""
    return np.array([total_hamiltonian(traj.point(i), metric, charge, units)
                     for i in range(len(traj))])


def relative_drift(series: np.ndarray) -> float:
    """Peak-to-peak spread of a conserved quantity relative to its first sample."""
    return float((series.max() - series.min()) / max(abs(series[0]), 1e-300))


def conservation_drift(traj: Trajectory, metric: StaticMetric, charge: float = 0.0,
                       units: UnitContext = NATURAL_UNITS) -> tuple[float, float]:
    """Relative peak-to-peak drift of (H, M) along the trajectory."""
    return (relative_drift(hamiltonian_series(traj, metric, charge, units)),
            relative_drift(traj.states[:, 2]))


def proper_time_residual(traj: Trajectory, metric: StaticMetric,
                         units: UnitContext = NATURAL_UNITS) -> float:
    """Peak deviation of the integrated tau rate from the metric rate
    sqrt(f^2 - g_ij xdot^i xdot^j / c^2), with rates taken by central
    differences of the trajectory itself."""
    if len(traj) < 3:
        raise ValueError("trajectory too short for central differences")
    c = units.c
    two_dt = traj.times[2:] - traj.times[:-2]
    tau_dot = (traj.tau[2:] - traj.tau[:-2]) / two_dt
    x_dot = (traj.x[2:] - traj.x[:-2]) / two_dt[:, None]
    worst = 0.0
    for i in range(tau_dot.size):
        xi = traj.x[i + 1]
        f = metric.lapse(xi)
        g3 = metric.metric3(xi)
        rate2 = f * f - float(x_dot[i] @ g3 @ x_dot[i]) / (c * c)
        rate = np.sqrt(max(rate2, 0.0))
        worst = max(worst, abs(tau_dot[i] - rate))
    return worst


def geodesic_lorentz_residual(traj: Trajectory, metric: StaticMetric, charge: float = 0.0,
                              units: UnitContext = NATURAL_UNITS) -> float:
    """Peak violation of the proper-time-parameterized equation of motion

        (M/c^2) [xddot^rho + Gamma^rho_{mu nu} xdot^mu xdot^nu]
            = e f^{rho mu} g_{mu nu} xdot^nu,

    with derivatives with respect to tau rebuilt from the coordinate-time
    samples by the chain rule (central differences)."""
    if len(traj) < 3:
        raise ValueError("trajectory too short for second differences")
    tau_arr = traj.tau
    if np.any(np.diff(tau_arr) <= 0.0):
        raise ValueError("tau must be strictly increasing along the trajectory")
    c = units.c
    t = traj.times
    dt = traj.dt
    x4 = np.empty((len(traj), 4))
    x4[:, 0] = c * t
    x4[:, 1:] = traj.x

    dx_dt = (x4[2:] - x4[:-2]) / (2.0 * dt)
    d2x_dt2 = (x4[2:] - 2.0 * x4[1:-1] + x4[:-2]) / (dt * dt)
    dtau_dt = (tau_arr[2:] - tau_arr[:-2]) / (2.0 * dt)
    d2tau_dt2 = (tau_arr[2:] - 2.0 * tau_arr[1:-1] + tau_arr[:-2]) / (dt * dt)

    M = traj.states[1:-1, 2]
    worst = 0.0
    for i in range(dx_dt.shape[0]):
        w = dtau_dt[i]
        xdot = dx_dt[i] / w
        xddot = (d2x_dt2[i] * w - dx_dt[i] * d2tau_dt2[i]) / w**3
        xi = traj.x[i + 1]
        gamma = christoffel(metric, xi, c)
        g4, _ = four_metric(metric, xi, c)
        fmn = field_tensor(metric, xi)
        g4_inv = np.linalg.inv(g4)
        f_up = g4_inv @ fmn @ g4_inv.T
        x_lower = g4 @ xdot
        lhs = (M[i] / (c * c)) * (xddot + np.einsum("rmn,m,n->r", gamma, xdot, xdot))
        rhs = charge * (f_up @ x_lower)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst
