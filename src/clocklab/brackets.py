"""Finite-difference canonical brackets on the extended phase space.

Observables are functions of states z of shape (..., 10), laid out as
(tau, p_tau, M, p_M, x^i, p_i), that return values of shape (...); the
bracket is the central-difference canonical sum over the five conjugate
pairs (tau, p_tau), (M, p_M), (x^i, p_i).  The Dirac bracket eliminates the
second-class pair phi1 = M - p_tau, phi2 = p_M (whose mutual bracket is 1):

    {A, B}_D = {A, B} + {A, phi1} {phi2, B} - {A, phi2} {phi1, B}.

Every bracket comes from one gradient matrix (Dirac, Can. J. Math. 2, 129
(1950)).  The rows of G are the gradients of the observables followed by
those of phi1 and phi2, each taken once; the Poisson matrix is P = G J G^T
with J the canonical symplectic form, and the Dirac matrix of the
observables x is

    D = P_xx + P_{x,phi1} (x) P_{phi2,x} - P_{x,phi2} (x) P_{phi1,x}.

A batch of N probe states is differenced at once: the (N, 10, 10) stacks of
+h and -h states are built once, and each observable is evaluated on each
stack, so the Dirac table of the ten coordinates costs 24 observable
evaluations (12 observables, two stacks) whatever N is.  Brackets are
phase-space identities, so probe states need not sit on the constraint
surface.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .dynamics import hamilton_rhs, total_hamiltonian
from .metric import StaticMetric

Observable = Callable[[np.ndarray], np.ndarray]  # (..., 10) -> (...)

DEFAULT_H_STEP = 1e-5

# The most probe points a configured bracket run takes: the run's arrays and CSV columns
# take about 12 kB per point, so 10^4 points peak near 123 MB (tracemalloc), about the
# budget of dynamics.MAX_STEPS (the default run takes 50 points)
MAX_POINTS = 10**4

# (coordinate index, momentum index) within the flat 10-vector layout
_CONJUGATE_PAIRS = ((0, 1), (2, 3), (4, 7), (5, 8), (6, 9))

COORDINATE_NAMES = ("tau", "p_tau", "M", "p_M", "x1", "x2", "x3", "p1", "p2", "p3")


def coordinate_observable(name: str) -> Observable:
    idx = COORDINATE_NAMES.index(name)
    return lambda z: z[..., idx]


def phi1(z: np.ndarray) -> np.ndarray:
    return z[..., 2] - z[..., 1]


def phi2(z: np.ndarray) -> np.ndarray:
    return z[..., 3]


def _bracket_matrices(observables: Sequence[Observable], states: np.ndarray,
                      h_step: float) -> tuple[np.ndarray, np.ndarray]:
    """(Poisson, Dirac) bracket matrices of the observables at each of the
    (N, 10) states, of shapes (N, n + 2, n + 2) and (N, n, n) for n
    observables (P also covers phi1 and phi2, last).

    Coordinate i of a state is stepped by h_step max(1, |z_i|).  P is
    accumulated pair by pair in _CONJUGATE_PAIRS order from zeros, so every
    entry is the same sequence of floating-point operations as the scalar
    sum over pairs at one point; D follows the module formula entry by entry.
    """
    if h_step <= 0.0:
        raise ValueError("h_step must be positive")
    z = np.asarray(states, dtype=float)
    h = h_step * np.maximum(1.0, np.abs(z))
    plus = np.repeat(z[:, None, :], 10, axis=1)  # plus[k, i] is state k with z_i stepped
    minus = plus.copy()
    diagonal = np.arange(10)
    plus[:, diagonal, diagonal] += h
    minus[:, diagonal, diagonal] -= h
    G = np.stack([(obs(plus) - obs(minus)) / (2.0 * h) for obs in (*observables, phi1, phi2)],
                 axis=1)
    P = np.zeros((len(z), G.shape[1], G.shape[1]))
    for q, p in _CONJUGATE_PAIRS:
        P += G[:, :, q, None] * G[:, None, :, p] - G[:, :, p, None] * G[:, None, :, q]
    n = len(observables)
    i1, i2 = n, n + 1
    D = (P[:, :n, :n] + P[:, :n, i1, None] * P[:, None, i2, :n]
         - P[:, :n, i2, None] * P[:, None, i1, :n])
    return P, D


def reduced_canonical_pair(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair (T, E) = (tau - p_M, p_tau), canonical under the Dirac
    bracket, at states of shape (..., 10); on the constraint surface T = tau
    and E = M."""
    return z[..., 0] - z[..., 3], z[..., 1]


def expected_dirac_table() -> dict[tuple[str, str], float]:
    """Dirac brackets of all coordinate pairs (upper triangle, name order)."""
    table: dict[tuple[str, str], float] = {}
    names = COORDINATE_NAMES
    special = {("tau", "p_tau"): 1.0, ("tau", "M"): 1.0,
               ("x1", "p1"): 1.0, ("x2", "p2"): 1.0, ("x3", "p3"): 1.0}
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            table[(a, b)] = special.get((a, b), 0.0)
    return table


def dirac_table(states: np.ndarray, h_step: float = DEFAULT_H_STEP) -> np.ndarray:
    """Numerical Dirac brackets of all coordinate pairs at each of the (N, 10)
    states: shape (N, 45), the pairs in the key order of
    ``expected_dirac_table``."""
    _, D = _bracket_matrices([coordinate_observable(name) for name in COORDINATE_NAMES],
                             states, h_step)
    rows, cols = np.triu_indices(len(COORDINATE_NAMES), 1)
    return D[:, rows, cols]


def flow_tolerance(h_step: float) -> float:
    """Bound on the finite-difference error of ``flow_residuals`` at states
    whose coordinates are of order 1: central differences of H err by about
    0.2 h^2 (truncation) plus 2 eps / h (rounding), and the bound allows
    five and eight times those."""
    return h_step * h_step + 16.0 * np.finfo(float).eps / h_step


def flow_residuals(states: np.ndarray, metric: StaticMetric, charge: float,
                   h_step: float = DEFAULT_H_STEP) -> tuple[float, float]:
    """Peak |{z_i, H}_D - dz_i/dt| over the (N, 10) on-surface states and the
    ten coordinates, with H the total Hamiltonian and dz/dt the rates of
    ``dynamics`` (Hamilton's equations from analytic partials), and peak
    |{T, E}_D - 1| of the reduced pair; both from one batch of brackets.

    The equations of motion are the Dirac flow of the constrained
    Hamiltonian, so the first residual is finite-difference error only
    (``flow_tolerance``)."""
    observables = [coordinate_observable(name) for name in COORDINATE_NAMES]
    observables += [lambda z: total_hamiltonian(z, metric, charge),
                    lambda z: reduced_canonical_pair(z)[0],
                    lambda z: reduced_canonical_pair(z)[1]]
    _, D = _bracket_matrices(observables, states, h_step)
    flow = np.abs(D[:, :10, 10] - hamilton_rhs(states, metric, charge)).max()
    pair = np.abs(D[:, 11, 12] - 1.0).max()
    return float(flow), float(pair)


def random_points(seed: int, count: int, scale: float = 2.0) -> np.ndarray:
    """Reproducible off-surface probe states, shape (count, 10); stream i is
    keyed (seed, i) under the counter-based Philox generator, so probes are
    splittable.  The key is built as uint64: a plain list of a seed above
    2**63 would pass through float64 and lose its low bits."""
    states = np.empty((count, 10))
    for i in range(count):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        states[i] = rng.uniform(-scale, scale, size=10)
    states[:, 2] += 2.0 * scale  # keep M away from zero so square roots stay off the cone
    return states
