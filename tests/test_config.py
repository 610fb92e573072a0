import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from clocklab.config import KINDS, ConfigError, SCHEMAS, parse_config
from clocklab.units import NATURAL_UNITS, SI_UNITS, UnitSystem, convert_units


def test_minimal_box_config():
    cfg = parse_config("""
        kind = GEDANKEN_BOX
        box.dq = 2e-6
        box.t = 1
        box.g = 9.81
    """)
    assert cfg.kind == "GEDANKEN_BOX"
    assert cfg.params["box.dq"] == 2e-6
    assert cfg.units is UnitSystem.NATURAL
    assert cfg.seed == 0


def test_defaults_fill_missing_keys():
    cfg = parse_config("kind = GEDANKEN_BOX")
    assert cfg.params["box.t"] == 1.0
    assert cfg.params["box.g"] == 9.81


def test_si_unit_tags_accepted_and_checked():
    cfg = parse_config("""
        kind = GEDANKEN_BOX
        units = SI
        box.dq = 1e-6 m
        box.g = 9.81 m/s^2
    """)
    assert cfg.params["box.g"] == 9.81


def test_unit_tag_mismatch_reported():
    with pytest.raises(ConfigError, match="expected length"):
        parse_config("""
            kind = GEDANKEN_BOX
            units = SI
            box.dq = 1 s
        """)


def test_unknown_kind():
    with pytest.raises(ConfigError, match="unknown kind"):
        parse_config("kind = GEDANKEN_BOXES")


def test_missing_kind_named():
    with pytest.raises(ConfigError, match="missing required key: kind"):
        parse_config("box.dq = 1e-6")


def test_all_violations_collected():
    try:
        parse_config("""
            kind = QUANTUM_MOMENTS
            quantum.e0 = abc
            quantum.sigma_e = -oops
            mystery.key = 4
        """)
    except ConfigError as err:
        text = "\n".join(err.violations)
        assert "quantum.e0" in text
        assert "quantum.sigma_e" in text
        assert "mystery.key" in text
        assert len(err.violations) == 3
    else:
        raise AssertionError("expected ConfigError")


def test_kind_hint_conflict():
    with pytest.raises(ConfigError, match="conflicts"):
        parse_config("kind = GEDANKEN_BOX", kind_hint="GEDANKEN_EFIELD")


def test_kind_hint_supplies_kind():
    cfg = parse_config("box.dq = 1e-6", kind_hint="GEDANKEN_BOX")
    assert cfg.kind == "GEDANKEN_BOX"


def test_sweep_with_log_range():
    cfg = parse_config("""
        kind = QUANTUM_BOUND_SWEEP
        sweep.param = quantum.sigma_e
        sweep.min = 0.05
        sweep.max = 2.0
        sweep.count = 20
        sweep.scale = log
    """)
    assert cfg.sweep is not None
    assert len(cfg.sweep.values) == 20
    assert cfg.sweep.values[0] == pytest.approx(0.05)
    assert cfg.sweep.values[-1] == pytest.approx(2.0)
    ratios = [cfg.sweep.values[i + 1] / cfg.sweep.values[i] for i in range(19)]
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)


def test_sweep_with_explicit_values():
    cfg = parse_config("""
        kind = GEDANKEN_BOX
        sweep.param = box.dq
        sweep.values = 1e-7, 1e-6, 1e-5
    """)
    assert cfg.sweep.values == (1e-7, 1e-6, 1e-5)


def test_removed_position_offset_is_an_unknown_key():
    # exp(i p x0) cancels in every observable, so quantum.x0 is gone
    with pytest.raises(ConfigError, match="unknown key for QUANTUM_MOMENTS: quantum.x0"):
        parse_config("kind = QUANTUM_MOMENTS\nquantum.x0 = 3\n")


def test_sweep_over_unknown_param():
    with pytest.raises(ConfigError, match="sweepable"):
        parse_config("""
            kind = GEDANKEN_BOX
            sweep.param = box.nope
            sweep.values = 1, 2
        """)


def test_sweep_values_with_range_keys_names_the_ignored_keys():
    with pytest.raises(ConfigError) as err:
        parse_config("""
            kind = GEDANKEN_BOX
            sweep.param = box.dq
            sweep.values = 1, 2
            sweep.min = 5
            sweep.max = 9
            sweep.count = 3
            sweep.scale = log
        """)
    assert err.value.violations == [
        "sweep.values: must be given alone, not with sweep.min, sweep.max, sweep.count, "
        "sweep.scale, which it would ignore"]


def test_times_list_parsed():
    cfg = parse_config("""
        kind = QUANTUM_MOMENTS
        quantum.times = 0, 1, 10, 100
    """)
    assert cfg.params["quantum.times"] == (0.0, 1.0, 10.0, 100.0)


def test_metric_choice_validated():
    with pytest.raises(ConfigError, match="classical.metric"):
        parse_config("""
            kind = CLASSICAL_TRAJECTORY
            classical.metric = curved
        """)


def test_duplicate_key_reported():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("""
            kind = GEDANKEN_BOX
            box.dq = 1e-6
            box.dq = 2e-6
        """)


def test_malformed_line_reported():
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("kind GEDANKEN_BOX")


_key_chars = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz._0123456789= #", min_size=0, max_size=30)


@given(kind=st.sampled_from(KINDS), lines=st.lists(_key_chars, max_size=6))
@settings(max_examples=60, deadline=None)
def test_fuzzed_configs_never_crash(kind, lines):
    """Arbitrary junk either parses cleanly or raises ConfigError."""
    text = f"kind = {kind}\n" + "\n".join(lines)
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert cfg.kind == kind


def test_every_schema_key_is_reachable():
    for kind in KINDS:
        for spec in SCHEMAS[kind]:
            if spec.kind == "string":
                value = spec.choices[0] if spec.choices else "flat"
            elif spec.kind == "list":
                value = "1, 2"
            elif spec.kind == "int":
                value = "1"
            elif spec.below is not None:
                value = "0.5"  # inside the open bound (efield.v < c = 1)
            else:
                value = "1"
            # the optimizer bracket takes both ends, 0 < lo < hi; a lapse
            # needs the uniform_lapse metric; a held clock is at rest
            partner = {"optimize.sigma_lo": "\noptimize.sigma_hi = 2",
                       "optimize.sigma_hi": "\noptimize.sigma_lo = 0.5",
                       "classical.lapse_g": "\nclassical.metric = uniform_lapse",
                       "classical.hold": "\nclassical.p1 = 0"}
            partner = partner.get(spec.key, "")
            cfg = parse_config(f"kind = {kind}\n{spec.key} = {value}{partner}")
            assert spec.key in cfg.params


def test_readme_key_table_is_the_schema():
    """The README's table of each kind's keys names every key of the
    kind's schema, written out in full, and no other."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([A-Z_]+)` \(`[a-z ]+`\) \| (.*) \|$", readme, re.MULTILINE)
    table = {kind: {key for key in re.findall(r"`([^`]+)`", keys) if "." in key}
             for kind, keys in rows}
    assert table == {kind: {spec.key for spec in SCHEMAS[kind]} for kind in KINDS}


# One key per kind to sweep, for the member comparison below.
_SWEPT_KEY = {
    "GEDANKEN_BOX": "box.dq",
    "GEDANKEN_EFIELD": "efield.t",
    "CLASSICAL_TRAJECTORY": "classical.p1",
    "CLASSICAL_BRACKETS": "brackets.scale",
    "QUANTUM_MOMENTS": "quantum.sigma_e",
    "QUANTUM_BOUND_SWEEP": "quantum.sigma_p",
    "QUANTUM_OPTIMIZE": "quantum.e0",
}


def _assert_members_close(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.keys() == b.keys()
        for key in b:
            x, y = a[key], b[key]
            if isinstance(y, (tuple, float)):
                assert x == pytest.approx(y, rel=1e-15, abs=0.0), key
            else:
                assert x == y, key


@pytest.mark.parametrize("kind", KINDS)
def test_si_and_natural_configs_give_the_same_members(kind):
    """Members are natural-unit values whatever the config's units: an SI
    config that gives every number in SI, and one that takes the defaults,
    resolve to the members of the NATURAL config with the same physics."""
    specs = {spec.key: spec for spec in SCHEMAS[kind]}

    def si(value, dimension):
        return convert_units(value, dimension, NATURAL_UNITS, SI_UNITS)

    def si_text(values, dimension):
        return ", ".join(repr(si(v, dimension)) for v in values)

    swept = specs[_SWEPT_KEY[kind]]
    values = (swept.default, 2.0 * swept.default)
    sweep = f"sweep.param = {swept.key}\nsweep.values = "
    natural = parse_config(f"kind = {kind}\n{sweep}{values[0]!r}, {values[1]!r}")
    assert natural.members[1][swept.key] == values[1]
    si_sweep = sweep + si_text(values, swept.dimension)
    lines = [f"{spec.key} = " + si_text(spec.default if spec.kind == "list" else (spec.default,),
                                        spec.dimension)
             for spec in specs.values() if spec.kind in ("number", "list")]
    given = parse_config(f"kind = {kind}\nunits = SI\n{si_sweep}\n" + "\n".join(lines))
    defaults = parse_config(f"kind = {kind}\nunits = SI\n{si_sweep}")
    _assert_members_close(given.members, natural.members)
    _assert_members_close(defaults.members, natural.members)
    # params echo the defaults in the config's own units
    for key, spec in specs.items():
        if spec.kind == "number":
            assert defaults.params[key] == pytest.approx(si(spec.default, spec.dimension),
                                                         rel=1e-15, abs=0.0)
        else:
            assert natural.params[key] == spec.default


_LATITUDES = "the latitudes dm and dtau leave the float range, so c^2 dm dtau / h is not finite"
_KINETIC_KEYS = ("classical.m = {}, classical.p1 = {}, classical.p2 = 0.0 and "
                 "classical.p3 = 0.0")
_DEFAULT_BRACKET = ("optimize.sigma_lo: the default bracket (both ends 0), a factor of ten "
                    "either side of sqrt(|(e0, p0)| / (2 t)), must satisfy 0 < lo < hi < inf; "
                    "give both ends, got ")


@pytest.mark.parametrize("kind, body, message", [
    ("GEDANKEN_BOX", "box.dq = 1e-320",
     f"box.dq: {_LATITUDES}, got box.dq = 1e-320, box.t = 1.0 and box.g = 9.81"),
    ("GEDANKEN_BOX", "units = SI\nbox.dq = 1e-300",
     f"box.dq: {_LATITUDES}, got box.dq = 1e-300 m, box.t = 1.0 s and "
     f"box.g = 2940964012.98 m/s^2"),
    ("GEDANKEN_EFIELD", "efield.dq = 1e-320",
     f"efield.dq: {_LATITUDES}, got efield.dq = 1e-320 and efield.v = 0.5"),
    ("CLASSICAL_TRAJECTORY", "classical.t_end = 1e12",
     "classical.t_end: must be a whole number of classical.dt steps, at least 4 and at most "
     "1000000, got classical.t_end = 1000000000000.0 and classical.dt = 0.001"),
    ("CLASSICAL_TRAJECTORY", "classical.lapse_g = 0.5",
     "classical.lapse_g: must be 0 under classical.metric = flat, got 0.5"),
    ("CLASSICAL_TRAJECTORY",
     "classical.metric = uniform_lapse\nclassical.lapse_g = 0.08\nclassical.x1 = -20",
     "classical.x1: must start where the lapse 1 + classical.lapse_g * classical.x1 / c^2 is "
     "positive, got classical.lapse_g = 0.08 and classical.x1 = -20.0"),
    ("CLASSICAL_TRAJECTORY", "classical.m = 1e-200\nclassical.p1 = 0",
     "classical.m: m^2 + p1^2 + p2^2 + p3^2 must be positive, got "
     + _KINETIC_KEYS.format("1e-200", "0.0")),
    ("CLASSICAL_TRAJECTORY", "classical.p1 = 1e155",
     "classical.m: m^2 + p1^2 + p2^2 + p3^2 overflows to inf, got "
     + _KINETIC_KEYS.format("1.0", "1e+155")),
    ("CLASSICAL_TRAJECTORY", "classical.m = 1e-150",
     "classical.m: the rate (m / sqrt(m^2 + p1^2 + p2^2 + p3^2))^3 underflows to 0, got "
     + _KINETIC_KEYS.format("1e-150", "0.75")),
    ("CLASSICAL_TRAJECTORY",
     "classical.metric = uniform_lapse\nclassical.lapse_g = 0.05\nclassical.hold = 1",
     "classical.hold: a held clock must be at rest (p1 = p2 = p3 = 0), got "
     "classical.p1 = 0.75, classical.p2 = 0.0 and classical.p3 = 0.0"),
    ("QUANTUM_OPTIMIZE", "optimize.sigma_lo = 2\noptimize.sigma_hi = 1",
     "optimize.sigma_lo: must be 0 with optimize.sigma_hi (the default bracket) or satisfy "
     "0 < optimize.sigma_lo < optimize.sigma_hi, got 2.0 and 1.0"),
    ("QUANTUM_OPTIMIZE", "quantum.e0 = 0\nquantum.p0 = 0",
     _DEFAULT_BRACKET + "quantum.e0 = 0.0, quantum.p0 = 0.0 and quantum.t = 100.0"),
    ("QUANTUM_OPTIMIZE", "units = SI\nquantum.e0 = 1e300\nquantum.p0 = 0\nquantum.t = 1e-300",
     _DEFAULT_BRACKET + "quantum.e0 = 1e+300 J, quantum.p0 = 0.0 kg*m/s and "
     "quantum.t = 1e-300 s"),
], ids=["latitude-box", "latitude-box-si", "latitude-efield", "step-rule", "flat-lapse",
        "lapse-horizon", "kinetic-root-zero", "kinetic-root-inf", "kinetic-rate-underflows",
        "held-at-rest", "bracket-order", "default-bracket", "default-bracket-si"])
def test_cross_key_rule_messages(kind, body, message):
    """The full message of each rule that joins keys, its values quoted as
    the config gives them."""
    with pytest.raises(ConfigError) as err:
        parse_config(f"kind = {kind}\n{body}")
    assert err.value.violations == [message]
