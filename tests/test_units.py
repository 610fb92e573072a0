import math

import pytest
from hypothesis import given, strategies as st

from clocklab.units import (
    NATURAL_UNITS,
    SI_UNITS,
    UnitContext,
    UnitSystem,
    convert_units,
)

DIMS = ("mass", "time", "energy", "length", "momentum", "speed", "acceleration")


def test_h_is_two_pi_hbar():
    assert SI_UNITS.h == pytest.approx(2.0 * math.pi * SI_UNITS.hbar, rel=1e-15, abs=0)
    assert NATURAL_UNITS.h == 2.0 * math.pi


def test_natural_units_are_exactly_unity():
    assert NATURAL_UNITS.hbar == 1.0
    assert NATURAL_UNITS.c == 1.0
    with pytest.raises(ValueError):
        UnitContext(hbar=2.0, c=1.0, system=UnitSystem.NATURAL)


def test_one_kilogram_in_natural_units():
    # 1 kg scales by c^2/hbar (second-based natural system)
    assert convert_units(1.0, "mass", SI_UNITS, NATURAL_UNITS) == pytest.approx(
        8.522465362e50, rel=1e-9)


def test_zero_converts_to_zero():
    for dim in DIMS:
        assert convert_units(0.0, dim, SI_UNITS, NATURAL_UNITS) == 0.0


def test_unknown_dimension_rejected():
    with pytest.raises(ValueError, match="unknown dimension"):
        convert_units(1.0, "charge_density", SI_UNITS, NATURAL_UNITS)


@given(value=st.floats(min_value=1e-30, max_value=1e30), dim=st.sampled_from(DIMS))
def test_round_trip_is_identity(value, dim):
    there = convert_units(value, dim, SI_UNITS, NATURAL_UNITS)
    back = convert_units(there, dim, NATURAL_UNITS, SI_UNITS)
    assert back == pytest.approx(value, rel=1e-14, abs=0)
