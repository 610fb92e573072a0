"""Independent oracles for the test suite.

Everything here deliberately avoids the package's FFT/grid machinery:
Gauss-Hermite quadrature for Gaussian-weighted observables, dense
trapezoid quadrature with analytic derivatives for proper-time spreads of
1D profiles, closed forms for constant-force motion and the sharp-energy
variance minimum, and the exact reading-variance law of an unchirped
Gaussian clock with its minimizer over the rest-energy spread (quadrature
plus a golden section on the quadrature itself).  The t = 0 moment oracles
are the package's former per-function formulas (``variance_law_predict``,
``energy_sharpness``, ``uncertainty_product`` and the E moments), each
taking its own |psi|^2, multipliers and DFT of the state with numpy alone,
in the same expressions and summation order; like the package, they take
the D, E and H spreads as centred second moments.  The bracket oracle is the
scalar finite-difference algorithm the package replaced with its gradient
matrix: fresh gradients for every Poisson bracket and a Python sum over the
conjugate pairs.  The RK4 oracle is the plain four-stage loop, which
``integrate`` no longer runs for stationary flows.  One mutant sits beside
them: a metric whose lapse gradient is off, for the flow checks to catch.
"""
from __future__ import annotations

import math

import numpy as np

from clocklab.dynamics import ExtendedPhaseSpacePoint
from clocklab.metric import StaticMetric


def gauss_hermite_mean(fn, e0, sigma_e, p0, sigma_p, n=120):
    """<fn(E, p)> over the product Gaussian density centered (e0, p0)."""
    x, w = np.polynomial.hermite.hermgauss(n)
    E = e0 + math.sqrt(2.0) * sigma_e * x
    P = p0 + math.sqrt(2.0) * sigma_p * x
    W = np.outer(w, w) / math.pi
    return float((W * fn(E[:, None], P[None, :])).sum())


def dilation(E, P, c=1.0):
    return E / np.sqrt(E * E + (c * P) ** 2)


def profile_spreads(g, dg, dphi, lo, hi, hbar=1.0, n=200001):
    """(dE, dtau, product) for a 1D profile psi(E) = g(E) exp(i phi(E)).

    ``g`` and its derivative ``dg`` are real callables, ``dphi`` the phase
    derivative.  Moments come from dense trapezoid quadrature on an
    endpoint-inclusive grid with an odd point count, a completely different
    discretization from the package's periodic power-of-two grids:

        <tau>   = -hbar * int dphi g^2 / nrm
        <tau^2> =  hbar^2 * int (dg^2 + dphi^2 g^2) / nrm
    """
    E = np.linspace(lo, hi, n)
    g2 = g(E) ** 2
    nrm = np.trapezoid(g2, E)
    e_mean = np.trapezoid(E * g2, E) / nrm
    e2 = np.trapezoid(E * E * g2, E) / nrm
    d_e = math.sqrt(e2 - e_mean**2)
    dphi_v = dphi(E)
    tau_mean = -hbar * np.trapezoid(dphi_v * g2, E) / nrm
    tau2 = hbar**2 * np.trapezoid(dg(E) ** 2 + dphi_v**2 * g2, E) / nrm
    d_tau = math.sqrt(tau2 - tau_mean**2)
    return d_e, d_tau, d_e * d_tau


def gaussian_profile(e0, sigma):
    g = lambda E: np.exp(-((E - e0) ** 2) / (4.0 * sigma**2))
    dg = lambda E: -(E - e0) / (2.0 * sigma**2) * g(E)
    return g, dg


def two_hump_profile(e0, a, sigma):
    gp, dgp = gaussian_profile(e0 + a, sigma)
    gm, dgm = gaussian_profile(e0 - a, sigma)
    return (lambda E: gp(E) + gm(E)), (lambda E: dgp(E) + dgm(E))


def chirped_product(sigma, beta, hbar=1.0):
    """Closed-form dtau*dE for a Gaussian with quadratic phase beta*E^2."""
    return 0.5 * hbar * math.sqrt(1.0 + 16.0 * beta**2 * sigma**4 / hbar**2)


def hyperbolic_motion(m, force, t):
    """(x, tau) for constant proper force from rest (natural units)."""
    x = (math.sqrt(m * m + (force * t) ** 2) - m) / force
    tau = (m / force) * math.asinh(force * t / m)
    return x, tau


def sharp_energy_minimum(e_scale, t, hbar=1.0):
    """(sigma_e, min variance) minimizing (sigma t / E)^2 + (hbar/2 sigma)^2."""
    sigma_opt = math.sqrt(hbar * e_scale / (2.0 * t))
    return sigma_opt, hbar * t / e_scale


def exact_gaussian_variance(e0, sigma_e, p0, sigma_p, t, hbar=1.0, c=1.0):
    """Reading variance at time t of a product Gaussian with tau0 = 0.

    The exact law var_tau(t) = const + lin t + quad t^2 has, for this state,
    const = hbar^2 / (4 sigma_e^2), lin = 0 and quad = <D^2> - <D>^2 with
    D = E / sqrt(E^2 + c^2 p^2); quad is taken as the centered second moment
    so that a dilation pinned near 1 loses no digits to cancellation.
    """
    d = lambda E, P: dilation(E, P, c)
    d_mean = gauss_hermite_mean(d, e0, sigma_e, p0, sigma_p)
    var_d = gauss_hermite_mean(lambda E, P: (d(E, P) - d_mean) ** 2,
                               e0, sigma_e, p0, sigma_p)
    return hbar**2 / (4.0 * sigma_e**2) + var_d * t * t


def exact_gaussian_variance_minimum(e0, p0, sigma_p, t, lo, hi, hbar=1.0, c=1.0,
                                    n_scan=81, tol=1e-9):
    """(sigma_e, var) minimizing ``exact_gaussian_variance`` on [lo, hi].

    A log-spaced scan locates the best sample; a golden section on log
    sigma_e then refines it between that sample's neighbours.  A minimum at
    a scan edge is returned as that edge.
    """
    var = lambda log_s: exact_gaussian_variance(e0, math.exp(log_s), p0, sigma_p, t, hbar, c)
    grid = np.linspace(math.log(lo), math.log(hi), n_scan)
    i = int(np.argmin([var(x) for x in grid]))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, n_scan - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    while b - a > tol:
        x1, x2 = b - inv_phi * (b - a), a + inv_phi * (b - a)
        if var(x1) < var(x2):
            b = x2
        else:
            a = x1
    x = 0.5 * (a + b)
    return math.exp(x), var(x)


# The package's states carry no unit context: they are natural-unit states.
HBAR = C = 1.0


def _diagonal(state, mult):
    # products in the E-contiguous layout of the state, so that the sum
    # takes the elements in the package's order
    rho = np.abs(state.values) ** 2
    return float(np.multiply(mult, rho, order="F").sum() * state.cell_measure())


def _axes(state):
    return state.e_grid.nodes[:, None], state.p_grid.nodes[None, :]


def _tau_statistics(state):
    """(<tau>, <tau^2>, the DFT of psi along E) by Parseval's theorem: tau =
    i hbar d/dE acts on the spectrum as -hbar k (the Nyquist wavenumber
    zeroed), so <tau> = -(cell/n) sum k P(k) and <tau^2> = (cell/n) sum k^2
    P(k), with P(k) the power |spectrum|^2 summed over p."""
    grid = state.e_grid
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.step)
    k[grid.n // 2] = 0.0
    spec = np.fft.fft(state.values, axis=0)
    assert spec.flags.f_contiguous
    # summed by einsum in memory order, column after column of the
    # E-contiguous spectrum, as the package sums, so that the comparison
    # stays bitwise (np.vdot goes through BLAS, whose sums depend on the
    # thread count)
    columns = spec.T.view(np.float64)  # (n_p, 2 n_e): each column's (re, im) pairs
    sums = np.einsum("ij,ij->j", columns, columns)
    power = sums[::2] + sums[1::2]
    scale = state.cell_measure() / grid.n
    mean = -scale * float(np.einsum("i,i->", k, power))
    second = scale * float(np.einsum("i,i->", k * k, power))
    return mean, second, HBAR * np.fft.ifft(spec * -k[:, None], axis=0)


def _anti(state, mult, tpsi):
    return 2.0 * float((np.conj(np.multiply(mult, state.values, order="F")) * tpsi).sum().real
                       * state.cell_measure())


def per_function_variance_law(state):
    """(quad, lin, const, <D>), with D taken relative to the dilation rate v
    at the centre node of the grids: quad = <(D - <D>)^2>, lin = <[D - v,
    tau]_+> - 2 <D - v> <tau> and <D> = v + <D - v>."""
    E, P = _axes(state)
    denom = np.sqrt(E * E + (C * P) ** 2)
    d = np.divide(E, denom, out=np.zeros_like(denom), where=denom > 0.0)
    eg, pg = state.e_grid, state.p_grid
    e_c, p_c = eg.lo + eg.step * (eg.n // 2), pg.lo + pg.step * (pg.n // 2)
    v = e_c / math.hypot(e_c, C * p_c)
    d = d - v
    offset = _diagonal(state, d)
    tau_mean, tau_sq, tpsi = _tau_statistics(state)
    return (_diagonal(state, (d - offset) ** 2), _anti(state, d, tpsi) - 2.0 * offset * tau_mean,
            tau_sq - tau_mean**2, v + offset)


def per_function_energy_sharpness(state):
    """(<H>, dH/<H>), with dH from the centred second moment <(H - <H>)^2>:
    <H^2> - <H>^2 cancels about nine digits for a boosted clock."""
    E, P = _axes(state)
    h = np.sqrt(E * E + (C * P) ** 2)
    h_mean = _diagonal(state, h)
    return h_mean, math.sqrt(_diagonal(state, (h - h_mean) ** 2)) / h_mean


def per_function_uncertainty_product(state):
    """(d_tau, d_E, d_tau d_E) as ``uncertainty_product`` took them."""
    tau_mean, tau_sq, _ = _tau_statistics(state)
    d_tau = math.sqrt(max(tau_sq - tau_mean**2, 0.0))
    E, _ = _axes(state)
    e_mean = _diagonal(state, E)
    d_e = math.sqrt(_diagonal(state, (E - e_mean) ** 2))
    return d_tau, d_e, d_tau * d_e


def per_function_energy_moments(state):
    """(<E>, Var E)."""
    E, _ = _axes(state)
    e_mean = _diagonal(state, E)
    return e_mean, _diagonal(state, (E - e_mean) ** 2)


ORACLE_COORDINATES = ("tau", "p_tau", "M", "p_M", "x1", "x2", "x3", "p1", "p2", "p3")
_ORACLE_PAIRS = ((0, 1), (2, 3), (4, 7), (5, 8), (6, 9))


def oracle_coordinate(name):
    idx = ORACLE_COORDINATES.index(name)
    return lambda pt: pt.as_vector()[idx]


def oracle_phi1(pt):
    return pt.M - pt.p_tau


def oracle_phi2(pt):
    return pt.p_M


def _fd_gradient(obs, z, h_step):
    g = np.empty(10)
    for i in range(10):
        h = h_step * max(1.0, abs(z[i]))
        zp = z.copy(); zp[i] += h
        zm = z.copy(); zm[i] -= h
        g[i] = (obs(ExtendedPhaseSpacePoint.from_vector(zp))
                - obs(ExtendedPhaseSpacePoint.from_vector(zm))) / (2.0 * h)
    return g


def per_pair_poisson_bracket(obs_a, obs_b, pt, h_step=1e-5):
    """Central-difference canonical bracket, both gradients taken afresh."""
    z = pt.as_vector()
    ga = _fd_gradient(obs_a, z, h_step)
    gb = _fd_gradient(obs_b, z, h_step)
    return float(sum(ga[q] * gb[p] - ga[p] * gb[q] for q, p in _ORACLE_PAIRS))


def per_pair_dirac_bracket(obs_a, obs_b, pt, h_step=1e-5):
    """{A, B} + {A, phi1}{phi2, B} - {A, phi2}{phi1, B} from five Poisson brackets."""
    pb = lambda f, g: per_pair_poisson_bracket(f, g, pt, h_step)
    return (pb(obs_a, obs_b) + pb(obs_a, oracle_phi1) * pb(oracle_phi2, obs_b)
            - pb(obs_a, oracle_phi2) * pb(oracle_phi1, obs_b))


def per_pair_dirac_table(pt, h_step=1e-5):
    """Dirac brackets of the coordinate pairs (upper triangle, name order)."""
    names = ORACLE_COORDINATES
    return {(a, b): per_pair_dirac_bracket(oracle_coordinate(a), oracle_coordinate(b), pt, h_step)
            for i, a in enumerate(names) for b in names[i + 1:]}


def per_sample_rate_residual(traj, metric, c=1.0):
    """Proper-time rate residual of a single trajectory, one sample at a
    time: the loop the package replaced with array arithmetic.  Rates come
    from the fourth-order central stencil with weights (1, -8, 0, 8, -1)/12
    over samples i-2 .. i+2."""
    weights = (1.0 / 12.0, -8.0 / 12.0, 0.0, 8.0 / 12.0, -1.0 / 12.0)

    def derivative(series, i):
        return sum(w * series[i + k - 2] for k, w in enumerate(weights) if w) / traj.dt

    worst = 0.0
    for i in range(2, len(traj) - 2):
        tau_dot = derivative(traj.tau, i)
        x_dot = derivative(traj.x, i)
        f = float(metric.lapse(traj.x[i]))
        rate2 = f * f - float(x_dot @ x_dot) / (c * c)
        worst = max(worst, abs(tau_dot - math.sqrt(max(rate2, 0.0))))
    return worst


def christoffel(g4, dg4):
    """Connection coefficients Gamma^rho_{mu nu} at one point of a static
    four-metric g4 with spatial gradients dg4 (time derivatives vanish)."""
    # D[mu, nu, sigma] = partial_mu g_{nu sigma}
    D = np.zeros((4, 4, 4))
    D[1:] = dg4
    # term[m, n, s] = d_m g_{n s} + d_n g_{s m} - d_s g_{m n}
    term = D + D.transpose(2, 0, 1) - D.transpose(1, 2, 0)
    return 0.5 * np.einsum("rs,mns->rmn", np.linalg.inv(g4), term)


def per_sample_motion_residual(traj, metric, charge=0.0, c=1.0):
    """Covariant equation-of-motion residual per unit rest mass of a single
    trajectory, one sample at a time, from the full connection and a
    numerically inverted four-metric at each sample.  First and second
    derivatives come from the fourth-order central stencils with weights
    (1, -8, 0, 8, -1)/12 and (-1, 16, -30, 16, -1)/12 over samples
    i-2 .. i+2.  The tensors are built here from the two slopes of the
    background, g_00 = -(1 + lapse_g x^1)^2 and A_0 = a0_slope x^1, with
    nothing taken from ``clocklab.metric``."""
    g, slope = metric.lapse_g, metric.a0_slope
    dt = traj.dt
    first = (1.0 / 12.0, -8.0 / 12.0, 0.0, 8.0 / 12.0, -1.0 / 12.0)
    second = (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0)

    def derivative(weights, series, i):
        return sum(w * series[i + k - 2] for k, w in enumerate(weights) if w)

    worst = 0.0
    for i in range(2, len(traj) - 2):
        # x^0 = c t: its rate is c and its second derivative 0
        dx_dt = np.concatenate(([c], derivative(first, traj.x, i) / dt))
        d2x_dt2 = np.concatenate(([0.0], derivative(second, traj.x, i) / (dt * dt)))
        w = derivative(first, traj.tau, i) / dt
        d2tau = derivative(second, traj.tau, i) / (dt * dt)
        xdot = dx_dt / w
        xddot = (d2x_dt2 * w - dx_dt * d2tau) / w**3
        f = 1.0 + g * traj.x[i, 0]
        g4 = np.diag([-f * f, 1.0, 1.0, 1.0])
        dg4 = np.zeros((3, 4, 4))  # dg4[k] = d g4 / d x^(k+1)
        dg4[0, 0, 0] = -2.0 * f * g
        f_low = np.zeros((4, 4))  # f_{mu nu} = d_mu A_nu - d_nu A_mu
        f_low[1, 0], f_low[0, 1] = slope, -slope
        g4_inv = np.linalg.inv(g4)
        f_up = g4_inv @ f_low @ g4_inv.T
        lhs = xddot + np.einsum("rmn,m,n->r", christoffel(g4, dg4), xdot, xdot)
        rhs = (charge * c * c / traj.states[i, 2]) * (f_up @ (g4 @ xdot))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def rk4_reference(pt0, metric, charge, t_end, dt, hold_x=False):
    """States of the plain four-stage RK4 loop over ``dynamics._rhs_vector``
    for one point or a sequence of points: every step evaluates all four
    stages, whatever the metric."""
    from clocklab.dynamics import _rhs_vector

    def rhs(z):
        dz = _rhs_vector(z, metric, charge)
        if hold_x:
            dz[..., 4:10] = 0.0
        return dz

    z = pt0.as_vector() if isinstance(pt0, ExtendedPhaseSpacePoint) else np.array(
        [pt.as_vector() for pt in pt0])
    n_steps = int(round(t_end / dt))
    half, sixth = 0.5 * dt, dt / 6.0
    states = np.empty((n_steps + 1,) + z.shape)
    states[0] = z
    for i in range(n_steps):
        k1 = rhs(z)
        k2 = rhs(z + half * k1)
        k3 = rhs(z + half * k2)
        k4 = rhs(z + dt * k3)
        z = z + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i + 1] = z
    return states


def lapse_gradient_off(metric: StaticMetric, relative: float) -> StaticMetric:
    """The metric with the lapse gradient that the rates read off by
    ``relative``; H reads the lapse itself, which stays as it is."""
    class LapseGradientOff(type(metric)):
        def lapse_grad(self, x):
            return (1.0 + relative) * super().lapse_grad(x)

    return LapseGradientOff(metric.lapse_g, metric.a0_slope)
