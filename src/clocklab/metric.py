"""Static background fields for the clock: lapse, spatial metric and
electromagnetic potentials, all functions of the spatial position only.

The four-metric is diag(-f^2, g_ij) with x^0 = c*t.  Factories cover the
cases the test problems need: flat space, a uniform weak-field lapse
f = 1 + g x^1 / c^2, an isotropic weak field, and linear scalar potentials
for constant-force motion.  Gradients may be supplied analytically;
otherwise central finite differences are used.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

ScalarFn = Callable[[np.ndarray], float]
VectorFn = Callable[[np.ndarray], np.ndarray]
MatrixFn = Callable[[np.ndarray], np.ndarray]

_FD_STEP = 1e-6


def _fd_scalar_grad(fn: ScalarFn) -> VectorFn:
    def grad(x: np.ndarray) -> np.ndarray:
        out = np.empty(3)
        for k in range(3):
            h = _FD_STEP * max(1.0, abs(x[k]))
            xp = x.copy(); xp[k] += h
            xm = x.copy(); xm[k] -= h
            out[k] = (fn(xp) - fn(xm)) / (2.0 * h)
        return out
    return grad


def _fd_array_grad(fn: Callable[[np.ndarray], np.ndarray], shape: tuple[int, ...]):
    def grad(x: np.ndarray) -> np.ndarray:
        out = np.empty((3,) + shape)
        for k in range(3):
            h = _FD_STEP * max(1.0, abs(x[k]))
            xp = x.copy(); xp[k] += h
            xm = x.copy(); xm[k] -= h
            out[k] = (fn(xp) - fn(xm)) / (2.0 * h)
        return out
    return grad


def _zero_scalar(x: np.ndarray) -> float:
    return 0.0


def _zero_vector(x: np.ndarray) -> np.ndarray:
    return np.zeros(3)


def _identity3(x: np.ndarray) -> np.ndarray:
    return np.eye(3)


def _one(x: np.ndarray) -> float:
    return 1.0


@dataclass(frozen=True)
class StaticMetric:
    """Lapse f (g_00 = -f^2), spatial metric g_ij, potentials A_0 and A_i.

    All callables take a length-3 position array.  ``grad_*`` entries return
    the spatial gradient (leading axis indexes the derivative direction);
    pass None to fall back to central finite differences.
    """

    f: ScalarFn = _one
    g_spatial: MatrixFn = _identity3
    a0: ScalarFn = _zero_scalar
    a_spatial: VectorFn = _zero_vector
    grad_f: VectorFn | None = None
    grad_g_spatial: Callable[[np.ndarray], np.ndarray] | None = None  # (3,3,3): [k,i,j]
    grad_a0: VectorFn | None = None
    grad_a_spatial: Callable[[np.ndarray], np.ndarray] | None = None  # (3,3): [k,i]

    def lapse(self, x: np.ndarray) -> float:
        val = self.f(x)
        if val <= 0.0:
            raise ValueError(f"lapse must stay positive; got {val} at x={x}")
        return val

    def lapse_grad(self, x: np.ndarray) -> np.ndarray:
        fn = self.grad_f if self.grad_f is not None else _fd_scalar_grad(self.f)
        return np.asarray(fn(x), dtype=float)

    def metric3(self, x: np.ndarray) -> np.ndarray:
        g = np.asarray(self.g_spatial(x), dtype=float)
        if g.shape != (3, 3) or (abs(g[0, 1] - g[1, 0]) > 1e-12
                                 or abs(g[0, 2] - g[2, 0]) > 1e-12
                                 or abs(g[1, 2] - g[2, 1]) > 1e-12):
            raise ValueError("spatial metric must be a symmetric 3x3 matrix")
        return g

    def inverse_metric3(self, x: np.ndarray) -> np.ndarray:
        g = self.metric3(x)
        try:
            return np.linalg.inv(g)
        except np.linalg.LinAlgError:
            raise ValueError(f"singular spatial metric at x={x}") from None

    def metric3_grad(self, x: np.ndarray) -> np.ndarray:
        fn = self.grad_g_spatial
        if fn is None:
            fn = _fd_array_grad(self.g_spatial, (3, 3))
        return np.asarray(fn(x), dtype=float)

    def pot0(self, x: np.ndarray) -> float:
        return self.a0(x)

    def pot0_grad(self, x: np.ndarray) -> np.ndarray:
        fn = self.grad_a0 if self.grad_a0 is not None else _fd_scalar_grad(self.a0)
        return np.asarray(fn(x), dtype=float)

    def pot3(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.a_spatial(x), dtype=float)

    def pot3_grad(self, x: np.ndarray) -> np.ndarray:
        fn = self.grad_a_spatial
        if fn is None:
            fn = _fd_array_grad(self.a_spatial, (3,))
        return np.asarray(fn(x), dtype=float)


def _linear_a0(a0_slope: float) -> dict:
    """Scalar potential A_0 = a0_slope * x^1 and its gradient."""
    if a0_slope == 0.0:
        return dict(a0=_zero_scalar, grad_a0=lambda x: np.zeros(3))
    return dict(a0=lambda x: a0_slope * x[0],
                grad_a0=lambda x: np.array([a0_slope, 0.0, 0.0]))


def flat_metric(a0_slope: float = 0.0) -> StaticMetric:
    """Flat space; optionally with a scalar potential A_0 = a0_slope * x^1,
    which exerts a constant force on a charged clock."""
    return StaticMetric(
        grad_f=lambda x: np.zeros(3),
        grad_g_spatial=lambda x: np.zeros((3, 3, 3)),
        grad_a_spatial=lambda x: np.zeros((3, 3)),
        **_linear_a0(a0_slope),
    )


def uniform_lapse_metric(g_accel: float, c: float = 1.0, a0_slope: float = 0.0) -> StaticMetric:
    """Weak-field lapse f = 1 + g x^1 / c^2 over flat spatial sections;
    a clock held at height q runs fast by g q / c^2 relative to one at 0.
    ``a0_slope`` adds the scalar potential of ``flat_metric``."""
    slope = g_accel / c**2
    return StaticMetric(
        f=lambda x: 1.0 + slope * x[0],
        grad_f=lambda x: np.array([slope, 0.0, 0.0]),
        grad_g_spatial=lambda x: np.zeros((3, 3, 3)),
        grad_a_spatial=lambda x: np.zeros((3, 3)),
        **_linear_a0(a0_slope),
    )


def isotropic_weak_field_metric(phi: ScalarFn, grad_phi: VectorFn, c: float = 1.0) -> StaticMetric:
    """Isotropic weak field: f = 1 + phi/c^2, g_ij = (1 - 2 phi/c^2) delta_ij."""
    inv_c2 = 1.0 / c**2

    def g_sp(x: np.ndarray) -> np.ndarray:
        return (1.0 - 2.0 * inv_c2 * phi(x)) * np.eye(3)

    def g_sp_grad(x: np.ndarray) -> np.ndarray:
        dphi = np.asarray(grad_phi(x), dtype=float)
        return -2.0 * inv_c2 * dphi[:, None, None] * np.eye(3)[None, :, :]

    return StaticMetric(
        f=lambda x: 1.0 + inv_c2 * phi(x),
        g_spatial=g_sp,
        grad_f=lambda x: inv_c2 * np.asarray(grad_phi(x), dtype=float),
        grad_g_spatial=g_sp_grad,
        grad_a0=lambda x: np.zeros(3),
        grad_a_spatial=lambda x: np.zeros((3, 3)),
    )


def four_metric(metric: StaticMetric, x: np.ndarray, c: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Four-metric g_{mu nu} = diag(-f^2, g_ij) and its spatial gradients.

    Returns ``(g4, dg4)`` with ``dg4[k]`` the derivative of g4 with respect
    to x^k (k = 1..3 stored at index 0..2); time derivatives vanish.
    """
    f = metric.lapse(x)
    df = metric.lapse_grad(x)
    g3 = metric.metric3(x)
    dg3 = metric.metric3_grad(x)
    g4 = np.zeros((4, 4))
    g4[0, 0] = -f * f
    g4[1:, 1:] = g3
    dg4 = np.zeros((3, 4, 4))
    dg4[:, 0, 0] = -2.0 * f * df
    dg4[:, 1:, 1:] = dg3
    return g4, dg4


def christoffel(metric: StaticMetric, x: np.ndarray, c: float = 1.0) -> np.ndarray:
    """Connection coefficients Gamma^rho_{mu nu} of the static four-metric."""
    g4, dg4 = four_metric(metric, x, c)
    g4_inv = np.linalg.inv(g4)
    # D[mu, nu, sigma] = partial_mu g_{nu sigma}; time derivative is zero
    D = np.zeros((4, 4, 4))
    D[1:] = dg4
    # term[m, n, s] = d_m g_{n s} + d_n g_{s m} - d_s g_{m n}
    term = D + D.transpose(2, 0, 1) - D.transpose(1, 2, 0)
    return 0.5 * np.einsum("rs,mns->rmn", g4_inv, term)


def field_tensor(metric: StaticMetric, x: np.ndarray) -> np.ndarray:
    """Electromagnetic tensor f_{mu nu} = d_mu A_nu - d_nu A_mu for the
    static potentials (time derivatives vanish)."""
    da0 = metric.pot0_grad(x)
    da3 = metric.pot3_grad(x)
    dA = np.zeros((4, 4))        # dA[mu, nu] = d_mu A_nu
    dA[1:, 0] = da0
    dA[1:, 1:] = da3
    return dA - dA.T
