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
            elif spec.below is not None:
                value = "0.5"  # inside the open bound (efield.v < c = 1)
            elif spec.power_of_two:
                value = "8"  # the smallest grid size
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
