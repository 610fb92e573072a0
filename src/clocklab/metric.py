"""Static background fields for the clock, all functions of the spatial
position only: the lapse f and the scalar potential A_0.  Everything runs
at c = 1; the formulas keep the symbol.

The four-metric is diag(-f^2, delta_ij) with x^0 = c*t: gravity acts on
the clock only through the lapse, as in the paper's uniform field, and the
spatial sections are flat.  Factories cover the cases the test problems
need: flat space, a uniform weak-field lapse f = 1 + g x^1 / c^2, and
linear scalar potentials for constant-force motion.

Every callable takes positions of shape (..., 3) and returns values with the
same leading shape, so one call serves a batch of clocks or a whole
trajectory.  Each field comes with its analytic spatial gradient; the
derivative direction is the first axis after the leading ones.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

ScalarFn = Callable[[np.ndarray], np.ndarray]   # (..., 3) -> (...)
VectorFn = Callable[[np.ndarray], np.ndarray]   # (..., 3) -> (..., 3)


def _positive(values: np.ndarray, what: str) -> np.ndarray:
    low = values.min() if isinstance(values, np.ndarray) else values  # a scalar at one point
    if low <= 0.0:
        raise ValueError(f"{what} must stay positive; got {low}")
    return values


# field -> name of its gradient
_GRADIENTS = {"f": "grad_f", "a0": "grad_a0"}


@dataclass(frozen=True, eq=False)
class StaticMetric:
    """Lapse f (g_00 = -f^2) and scalar potential A_0 over flat spatial
    sections (g_ij = delta_ij); the vector potential A_i is zero.

    A field left as None is absent: f = 1 and A_0 = 0, and the dynamics skip
    its terms.  A field that is given needs its gradient: ``grad_f`` and
    ``grad_a0`` return values broadcastable to (..., 3).  The accessors
    below return floats for absent fields, which broadcast.
    """

    f: ScalarFn | None = None
    a0: ScalarFn | None = None
    grad_f: VectorFn | None = None
    grad_a0: VectorFn | None = None

    def __post_init__(self) -> None:
        for name, grad_name in _GRADIENTS.items():
            if (getattr(self, name) is None) != (getattr(self, grad_name) is None):
                raise ValueError(f"StaticMetric.{name} and {grad_name} go together")

    def lapse(self, x: np.ndarray):
        return 1.0 if self.f is None else _positive(self.f(x), "lapse")

    def lapse_grad(self, x: np.ndarray):
        return 0.0 if self.grad_f is None else self.grad_f(x)

    def inverse_metric3(self, x: np.ndarray) -> np.ndarray:
        """g^ij = delta_ij, broadcastable to (..., 3, 3)."""
        return np.eye(3)

    def pot0(self, x: np.ndarray):
        return 0.0 if self.a0 is None else self.a0(x)

    def pot0_grad(self, x: np.ndarray):
        return 0.0 if self.grad_a0 is None else self.grad_a0(x)


def _linear_a0(a0_slope: float) -> dict:
    """Scalar potential A_0 = a0_slope * x^1 and its gradient."""
    if a0_slope == 0.0:
        return {}
    direction = np.array([a0_slope, 0.0, 0.0])
    return dict(a0=lambda x: a0_slope * x[..., 0], grad_a0=lambda x: direction)


def flat_metric(a0_slope: float = 0.0) -> StaticMetric:
    """Flat space; optionally with a scalar potential A_0 = a0_slope * x^1,
    which exerts a constant force on a charged clock."""
    return StaticMetric(**_linear_a0(a0_slope))


def uniform_lapse_metric(g_accel: float, *, a0_slope: float = 0.0) -> StaticMetric:
    """Weak-field lapse f = 1 + g x^1 / c^2 over flat spatial sections;
    a clock held at height q runs fast by g q / c^2 relative to one at 0.
    ``a0_slope`` adds the scalar potential of ``flat_metric``."""
    direction = np.array([g_accel, 0.0, 0.0])
    return StaticMetric(
        f=lambda x: 1.0 + g_accel * x[..., 0],
        grad_f=lambda x: direction,
        **_linear_a0(a0_slope),
    )


def four_metric(metric: StaticMetric, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Four-metric g_{mu nu} = diag(-f^2, delta_ij) and its spatial gradients at
    positions x of shape (..., 3).

    Returns ``(g4, dg4)`` of shapes (..., 4, 4) and (..., 3, 4, 4), with
    ``dg4[..., k, :, :]`` the derivative with respect to x^k (k = 1..3 stored
    at index 0..2); time derivatives vanish.
    """
    f = metric.lapse(x)
    lead = x.shape[:-1]
    g4 = np.zeros(lead + (4, 4))
    g4[..., 0, 0] = -f * f
    g4[..., 1:, 1:] = np.eye(3)
    dg4 = np.zeros(lead + (3, 4, 4))
    dg4[..., 0, 0] = -2.0 * np.expand_dims(f, -1) * metric.lapse_grad(x)
    return g4, dg4


def inverse_four_metric(metric: StaticMetric, x: np.ndarray) -> np.ndarray:
    """g^{mu nu} = diag(-1/f^2, delta_ij) at positions x of shape (..., 3)."""
    f = metric.lapse(x)
    inv = np.zeros(x.shape[:-1] + (4, 4))
    inv[..., 0, 0] = -1.0 / (f * f)
    inv[..., 1:, 1:] = metric.inverse_metric3(x)
    return inv


def field_tensor(metric: StaticMetric, x: np.ndarray) -> np.ndarray:
    """Electromagnetic tensor f_{mu nu} = d_mu A_nu - d_nu A_mu for the
    static scalar potential (time derivatives and A_i vanish), at positions
    x of shape (..., 3); shape (..., 4, 4)."""
    dA = np.zeros(x.shape[:-1] + (4, 4))        # dA[..., mu, nu] = d_mu A_nu
    dA[..., 1:, 0] = metric.pot0_grad(x)
    return dA - np.swapaxes(dA, -1, -2)
