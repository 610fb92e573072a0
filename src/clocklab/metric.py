"""Static background fields for the clock, functions of the spatial
position only.  Everything runs at c = 1; the formulas keep the symbol.

The four-metric is diag(-f^2, delta_ij) with x^0 = c*t: gravity acts on
the clock only through the lapse, as in the paper's uniform field, and the
spatial sections are flat.  A background is two numbers: the lapse
f = 1 + g x^1 / c^2 of a uniform field g, and the scalar potential
A_0 = a0_slope x^1, which exerts a constant force on a charged clock.  The
accessors take positions of shape (..., 3) and return values with the same
leading shape, so one call serves a batch of clocks or a whole trajectory.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class LapseHorizonError(ValueError):
    """A position at or past the lapse horizon, where f <= 0."""


def check_lapse(f):
    """f, a lapse value or array of them, once every value is positive."""
    low = f.min() if isinstance(f, np.ndarray) else f  # a scalar at one point
    if low <= 0.0:
        raise LapseHorizonError(f"lapse must stay positive; got {low}")
    return f


@dataclass(frozen=True)
class StaticMetric:
    """Lapse f = 1 + lapse_g x^1 (g_00 = -f^2) and scalar potential
    A_0 = a0_slope x^1 over flat spatial sections (g_ij = delta_ij); the
    vector potential A_i is zero.

    A field whose slope is 0 is absent: its accessors return the floats
    f = 1 and 0, which broadcast, and the dynamics skip its terms.
    """

    lapse_g: float = 0.0
    a0_slope: float = 0.0

    def lapse(self, x: np.ndarray):
        return 1.0 if self.lapse_g == 0.0 else check_lapse(1.0 + self.lapse_g * x[..., 0])

    def lapse_grad(self, x: np.ndarray):
        return 0.0 if self.lapse_g == 0.0 else np.array([self.lapse_g, 0.0, 0.0])

    def inverse_metric3(self, x: np.ndarray) -> np.ndarray:
        """g^ij = delta_ij, broadcastable to (..., 3, 3).  Nothing in the
        package calls it; it stays because the benchmark tracer wraps it by
        name (``perfbench/tracer.py``, ``METHODS``)."""
        return np.eye(3)

    def pot0(self, x: np.ndarray):
        return 0.0 if self.a0_slope == 0.0 else self.a0_slope * x[..., 0]

    def pot0_grad(self, x: np.ndarray):
        return 0.0 if self.a0_slope == 0.0 else np.array([self.a0_slope, 0.0, 0.0])


def flat_metric(a0_slope: float = 0.0) -> StaticMetric:
    """Flat space; optionally with a scalar potential A_0 = a0_slope * x^1,
    which exerts a constant force on a charged clock."""
    return StaticMetric(a0_slope=a0_slope)


def uniform_lapse_metric(g_accel: float, *, a0_slope: float = 0.0) -> StaticMetric:
    """Weak-field lapse f = 1 + g x^1 / c^2 over flat spatial sections;
    a clock held at height q runs fast by g q / c^2 relative to one at 0.
    ``a0_slope`` adds the scalar potential of ``flat_metric``."""
    return StaticMetric(lapse_g=g_accel, a0_slope=a0_slope)
