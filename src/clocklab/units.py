"""Physical constants and unit-system bookkeeping.

All simulation modules run in natural units (hbar = c = 1, with the SI
second as the base of the system) and take no unit context, except the
closed-form ``gedanken`` weighings; SI values appear only at the I/O
boundary of the command-line layer.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

PLANCK_SI = 6.62607015e-34          # J s (exact, SI definition)
HBAR_SI = PLANCK_SI / (2.0 * math.pi)
LIGHT_SPEED_SI = 299792458.0        # m/s (exact)


class UnitSystem(enum.Enum):
    SI = "SI"
    NATURAL = "NATURAL"


@dataclass(frozen=True)
class UnitContext:
    """Constants in force for a calculation plus the unit-system tag."""

    hbar: float
    c: float
    system: UnitSystem

    def __post_init__(self) -> None:
        if self.hbar <= 0.0 or self.c <= 0.0:
            raise ValueError("hbar and c must be positive")
        if self.system is UnitSystem.NATURAL and (self.hbar != 1.0 or self.c != 1.0):
            raise ValueError("natural units require hbar = c = 1 exactly")

    @property
    def h(self) -> float:
        return 2.0 * math.pi * self.hbar


SI_UNITS = UnitContext(hbar=HBAR_SI, c=LIGHT_SPEED_SI, system=UnitSystem.SI)
NATURAL_UNITS = UnitContext(hbar=1.0, c=1.0, system=UnitSystem.NATURAL)

# Size of one natural unit of each dimension, expressed in SI units.
# The natural system is hbar = c = 1 with the second as base unit, so the
# natural time unit is 1 s, the length unit is c * 1 s, and so on.
_NATURAL_UNIT_SI = {
    "time": 1.0,
    "length": LIGHT_SPEED_SI,
    "speed": LIGHT_SPEED_SI,
    "acceleration": LIGHT_SPEED_SI,
    "energy": HBAR_SI,
    "mass": HBAR_SI / LIGHT_SPEED_SI**2,
    "momentum": HBAR_SI / LIGHT_SPEED_SI,
    "action": HBAR_SI,
    "dimensionless": 1.0,
}

def _unit_scale(dimension: str, ctx: UnitContext) -> float:
    try:
        natural_size = _NATURAL_UNIT_SI[dimension]
    except KeyError:
        raise ValueError(f"unknown dimension tag: {dimension!r}") from None
    return 1.0 if ctx.system is UnitSystem.SI else natural_size


def convert_units(value: float, dimension: str, src: UnitContext, dst: UnitContext) -> float:
    """Convert ``value`` of the given dimension between unit contexts.

    Round trips are identities to within a couple of ulps because the same
    scale factor is applied forward and backward.
    """
    return value * (_unit_scale(dimension, src) / _unit_scale(dimension, dst))
