import pytest
from hypothesis import given, strategies as st

from clocklab.gedanken import (
    BoxExperiment,
    EFieldExperiment,
    box_uncertainties,
    dilation_factor,
    efield_uncertainties,
    spring_mass,
)
from clocklab.units import NATURAL_UNITS, SI_UNITS

positive = st.floats(min_value=1e-9, max_value=1e9)


def test_spring_mass_direct():
    assert spring_mass(10.0, 0.981, 9.81) == pytest.approx(1.0, rel=1e-12)
    assert spring_mass(10.0, 0.0, 9.81) == 0.0


def test_spring_mass_rejects_zero_gravity():
    with pytest.raises(ValueError):
        spring_mass(10.0, 1.0, 0.0)


def test_box_reference_values():
    rep = box_uncertainties(BoxExperiment(delta_q=1e-6, t=1.0, g=9.81), SI_UNITS)
    # frozen arithmetic with h = 6.62607015e-34 J s and exact c
    assert rep.delta_m == pytest.approx(6.754403822629969e-29, rel=1e-12, abs=0)
    assert rep.delta_tau == pytest.approx(1.091509705e-22, rel=1e-9, abs=0)
    assert rep.product_ratio == pytest.approx(1.0, abs=1e-15)


def test_efield_reference_values():
    rep = efield_uncertainties(EFieldExperiment(delta_q=1e-6, t=1.0, v=1e3), SI_UNITS)
    assert rep.delta_m == pytest.approx(6.62607015e-31, rel=1e-12, abs=0)
    assert rep.delta_tau == pytest.approx(1.112650056e-20, rel=1e-9, abs=0)
    assert rep.product_ratio == pytest.approx(1.0, abs=1e-15)


def test_both_normalizations_reported():
    rep = box_uncertainties(BoxExperiment(delta_q=1e-6, t=1.0, g=9.81), SI_UNITS)
    # ratio to hbar/2 is 4*pi times the ratio to h
    assert rep.product_ratio_half_hbar == pytest.approx(4.0 * 3.141592653589793, rel=1e-12)


@given(dq=positive, t=positive, g=positive)
def test_box_cancellation_is_exact(dq, t, g):
    rep = box_uncertainties(BoxExperiment(delta_q=dq, t=t, g=g), NATURAL_UNITS)
    assert rep.product_ratio == pytest.approx(1.0, rel=1e-13, abs=0)


@given(dq=positive, t=positive, v=st.floats(min_value=1e-9, max_value=0.999))
def test_efield_cancellation_is_exact(dq, t, v):
    rep = efield_uncertainties(EFieldExperiment(delta_q=dq, t=t, v=v), NATURAL_UNITS)
    assert rep.product_ratio == pytest.approx(1.0, rel=1e-13, abs=0)


@given(dq=positive, t=positive, g=positive)
def test_box_scaling_in_reading_accuracy(dq, t, g):
    one = box_uncertainties(BoxExperiment(delta_q=dq, t=t, g=g), NATURAL_UNITS)
    two = box_uncertainties(BoxExperiment(delta_q=2.0 * dq, t=t, g=g), NATURAL_UNITS)
    assert two.delta_m == pytest.approx(0.5 * one.delta_m, rel=1e-12, abs=0)
    assert two.delta_tau == pytest.approx(2.0 * one.delta_tau, rel=1e-12, abs=0)
    assert two.product_ratio == pytest.approx(one.product_ratio, rel=1e-13, abs=0)


def test_dilation_reference_points():
    c = SI_UNITS.c
    assert dilation_factor(0.0, SI_UNITS) == 1.0
    assert dilation_factor(0.6 * c, SI_UNITS) == pytest.approx(0.8, rel=1e-15, abs=0)
    assert dilation_factor(0.99 * c, SI_UNITS) == pytest.approx(0.141067359797, rel=1e-10)


def test_dilation_rejects_superluminal():
    with pytest.raises(ValueError, match="superluminal"):
        dilation_factor(SI_UNITS.c, SI_UNITS)


@given(st.floats(min_value=0.0, max_value=0.999), st.floats(min_value=1e-6, max_value=1e-3))
def test_dilation_monotone_decreasing(frac, step):
    v1 = frac * NATURAL_UNITS.c
    v2 = min(frac + step, 0.9999) * NATURAL_UNITS.c
    assert dilation_factor(v2, NATURAL_UNITS) <= dilation_factor(v1, NATURAL_UNITS)


def test_efield_cannot_weigh_a_resting_clock():
    with pytest.raises(ValueError, match="rest"):
        EFieldExperiment(delta_q=1e-6, t=1.0, v=0.0)


def test_efield_rejects_superluminal_velocity():
    exp = EFieldExperiment(delta_q=1e-6, t=1.0, v=2.0 * SI_UNITS.c)
    with pytest.raises(ValueError, match="superluminal"):
        efield_uncertainties(exp, SI_UNITS)


def test_box_invariants_enforced():
    with pytest.raises(ValueError):
        BoxExperiment(delta_q=-1.0, t=1.0, g=9.81)
