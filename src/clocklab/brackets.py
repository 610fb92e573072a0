"""Finite-difference canonical brackets on the extended phase space.

Observables are scalar callables of an ExtendedPhaseSpacePoint; the bracket
is the central-difference canonical sum over the five conjugate pairs
(tau, p_tau), (M, p_M), (x^i, p_i).  The Dirac bracket eliminates the
second-class pair phi1 = M - p_tau, phi2 = p_M (whose mutual bracket is 1):

    {A, B}_D = {A, B} + {A, phi1} {phi2, B} - {A, phi2} {phi1, B}.

Every bracket comes from one gradient matrix (Dirac, Can. J. Math. 2, 129
(1950)).  The rows of G are the gradients of the observables followed by
those of phi1 and phi2, each taken once; the Poisson matrix is P = G J G^T
with J the canonical symplectic form, and the Dirac matrix of the
observables x is

    D = P_xx + P_{x,phi1} (x) P_{phi2,x} - P_{x,phi2} (x) P_{phi1,x}.

The Dirac table of the ten coordinates thus costs 12 gradients, 240
observable evaluations, per point.  Brackets are phase-space identities, so
probe points need not sit on the constraint surface.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .dynamics import ExtendedPhaseSpacePoint

Observable = Callable[[ExtendedPhaseSpacePoint], float]

DEFAULT_H_STEP = 1e-5

# (coordinate index, momentum index) within the flat 10-vector layout
_CONJUGATE_PAIRS = ((0, 1), (2, 3), (4, 7), (5, 8), (6, 9))

COORDINATE_NAMES = ("tau", "p_tau", "M", "p_M", "x1", "x2", "x3", "p1", "p2", "p3")


def coordinate_observable(name: str) -> Observable:
    idx = COORDINATE_NAMES.index(name)
    return lambda pt: pt.as_vector()[idx]


def phi1(pt: ExtendedPhaseSpacePoint) -> float:
    return pt.M - pt.p_tau


def phi2(pt: ExtendedPhaseSpacePoint) -> float:
    return pt.p_M


def _gradient(obs: Observable, z: np.ndarray, h_step: float) -> np.ndarray:
    g = np.empty(10)
    for i in range(10):
        h = h_step * max(1.0, abs(z[i]))
        zp = z.copy(); zp[i] += h
        zm = z.copy(); zm[i] -= h
        g[i] = (obs(ExtendedPhaseSpacePoint.from_vector(zp))
                - obs(ExtendedPhaseSpacePoint.from_vector(zm))) / (2.0 * h)
    return g


def _bracket_matrices(observables: Sequence[Observable], pt: ExtendedPhaseSpacePoint,
                      h_step: float) -> tuple[np.ndarray, np.ndarray]:
    """(Poisson, Dirac) bracket matrices of the observables at a point.

    P is accumulated pair by pair in _CONJUGATE_PAIRS order from zeros, so
    every entry is the same sequence of floating-point operations as the
    scalar sum over pairs; D follows the module formula entry by entry.
    """
    if h_step <= 0.0:
        raise ValueError("h_step must be positive")
    z = pt.as_vector()
    G = np.array([_gradient(obs, z, h_step) for obs in (*observables, phi1, phi2)])
    P = np.zeros((len(G), len(G)))
    for q, p in _CONJUGATE_PAIRS:
        P += np.outer(G[:, q], G[:, p]) - np.outer(G[:, p], G[:, q])
    n = len(observables)
    i1, i2 = n, n + 1
    D = (P[:n, :n] + np.outer(P[:n, i1], P[i2, :n])
         - np.outer(P[:n, i2], P[i1, :n]))
    return P, D


def poisson_bracket(obs_a: Observable, obs_b: Observable,
                    pt: ExtendedPhaseSpacePoint, h_step: float = DEFAULT_H_STEP) -> float:
    return float(_bracket_matrices((obs_a, obs_b), pt, h_step)[0][0, 1])


def dirac_bracket(obs_a: Observable, obs_b: Observable,
                  pt: ExtendedPhaseSpacePoint, h_step: float = DEFAULT_H_STEP) -> float:
    return float(_bracket_matrices((obs_a, obs_b), pt, h_step)[1][0, 1])


def reduced_canonical_pair(pt: ExtendedPhaseSpacePoint) -> tuple[float, float]:
    """The pair (T, E) = (tau - p_M, p_tau) that is canonical under the Dirac
    bracket; on the constraint surface T = tau and E = M."""
    return pt.tau - pt.p_M, pt.p_tau


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


def dirac_table(pt: ExtendedPhaseSpacePoint, h_step: float = DEFAULT_H_STEP
                ) -> dict[tuple[str, str], float]:
    """Numerical Dirac brackets of all coordinate pairs at a point."""
    names = COORDINATE_NAMES
    _, D = _bracket_matrices([coordinate_observable(name) for name in names], pt, h_step)
    return {(names[i], names[j]): float(D[i, j])
            for i in range(len(names)) for j in range(i + 1, len(names))}


def random_points(seed: int, count: int, scale: float = 2.0) -> list[ExtendedPhaseSpacePoint]:
    """Reproducible off-surface probe points; stream i is keyed (seed, i)
    under the counter-based Philox generator, so probes are splittable.
    The key is built as uint64: a plain list of a seed above 2**63 would
    pass through float64 and lose its low bits."""
    pts = []
    for i in range(count):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, i], dtype=np.uint64)))
        z = rng.uniform(-scale, scale, size=10)
        z[2] += 2.0 * scale  # keep M away from zero so square roots stay off the cone
        pts.append(ExtendedPhaseSpacePoint.from_vector(z))
    return pts
