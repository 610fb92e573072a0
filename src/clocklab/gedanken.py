"""Closed-form uncertainty bookkeeping for the two clock-weighing thought
experiments: the spring-suspended clock read against a gravitational field,
and the charged clock accelerated by a uniform electric field.

Both procedures trade a position-reading accuracy against a momentum kick
and end up with the same product of rest-mass and proper-time latitudes.
The reading-accuracy relation is sharpened to the equality dp = h/dq so the
cancellation of the product is exact and testable; reports carry the product
normalized both by h and by hbar/2 since both conventions are in use.

Unlike the physics layers, which run at hbar = c = 1, these formulas take
a ``UnitContext``: the runner passes natural units, and the tests also
check the cancellation in SI arithmetic (acceptance criterion 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .units import UnitContext


@dataclass(frozen=True)
class BoxExperiment:
    """Spring-weighing setup: scale read to dq over an interval t in gravity g."""

    delta_q: float
    t: float
    g: float

    def __post_init__(self) -> None:
        if self.delta_q <= 0.0 or self.t <= 0.0 or self.g <= 0.0:
            raise ValueError("delta_q, t and g must all be positive")


@dataclass(frozen=True)
class EFieldExperiment:
    """Electric-field weighing setup: distance read to dq after a kick,
    yielding the average velocity v of the clock."""

    delta_q: float
    t: float
    v: float

    def __post_init__(self) -> None:
        if self.delta_q <= 0.0 or self.t <= 0.0:
            raise ValueError("delta_q and t must be positive")
        if self.v <= 0.0:
            raise ValueError("cannot weigh a clock at rest: v must be positive")


@dataclass(frozen=True)
class UncertaintyReport:
    delta_p: float
    delta_m: float
    delta_tau: float
    product_ratio: float            # c^2 dm dtau / h
    product_ratio_half_hbar: float  # c^2 dm dtau / (hbar/2)

    def __post_init__(self) -> None:
        for name in ("delta_p", "delta_m", "delta_tau"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if not math.isfinite(self.product_ratio):
            raise ValueError("product ratio must be finite")


def spring_mass(k: float, l: float, g: float) -> float:
    """Mass inferred from a spring stretched by l: k*l = m*g."""
    if g <= 0.0:
        raise ValueError("gravitational acceleration must be positive")
    if k <= 0.0 or l < 0.0:
        raise ValueError("need k > 0 and l >= 0")
    return k * l / g


def _report(delta_p: float, delta_m: float, delta_tau: float, units: UnitContext) -> UncertaintyReport:
    ratio = units.c**2 * delta_m * delta_tau / units.h
    return UncertaintyReport(
        delta_p=delta_p,
        delta_m=delta_m,
        delta_tau=delta_tau,
        product_ratio=ratio,
        product_ratio_half_hbar=units.c**2 * delta_m * delta_tau / (0.5 * units.hbar),
    )


def box_uncertainties(exp: BoxExperiment, units: UnitContext) -> UncertaintyReport:
    """Latitudes for the spring weighing.

    Reading the scale to dq kicks the momentum by dp = h/dq, which limits the
    weight (hence mass) determination to dm = dp/(g t); meanwhile displacing
    the clock by dq inside the field shifts its accumulated reading by
    dtau = g dq t / c^2.  The product c^2 dm dtau equals h identically.
    """
    delta_p = units.h / exp.delta_q
    delta_m = delta_p / (exp.g * exp.t)
    delta_tau = exp.g * exp.delta_q * exp.t / units.c**2
    return _report(delta_p, delta_m, delta_tau, units)


def efield_uncertainties(exp: EFieldExperiment, units: UnitContext) -> UncertaintyReport:
    """Latitudes for the electric-field weighing.

    The distance reading to dq costs dp = h/dq, so with the measured average
    velocity v the mass is uncertain by dm = dp/v.  The same reading limits
    the velocity to dv = dq/t, and through time dilation the clock rate to
    dtau = (v/c^2) dq.  The product again cancels to h exactly.
    """
    if exp.v >= units.c:
        raise ValueError("superluminal speed: require v < c")
    delta_p = units.h / exp.delta_q
    delta_m = delta_p / exp.v
    delta_tau = (exp.v / units.c**2) * exp.delta_q
    return _report(delta_p, delta_m, delta_tau, units)


def dilation_factor(v: float, units: UnitContext) -> float:
    """Special-relativistic rate sqrt(1 - (v/c)^2) of a clock moving at v."""
    if v < 0.0:
        raise ValueError("speed must be nonnegative")
    if v >= units.c:
        raise ValueError("superluminal speed: require v < c")
    return math.sqrt(1.0 - (v / units.c) ** 2)
