"""Scenario configuration: a flat-key text format with unit tags.

A config document is a sequence of ``key = value`` lines ('#' starts a
comment).  Keys are dotted names (``quantum.e0``, ``brackets.points``).  Values
are numbers, comma-separated number lists, or enumerated strings; in SI
configs a numeric value may carry a unit tag, e.g. ``box.g = 9.81 m/s^2``,
which must match the dimension the schema declares for that key.

Reserved top-level keys: ``kind``, ``units`` (SI or NATURAL), ``seed`` (an
integer in [0, 2**64)), ``output``, and the sweep block ``sweep.param`` plus
either ``sweep.values`` alone or ``sweep.min``/``sweep.max``/``sweep.count``
(with optional ``sweep.scale`` = linear|log).

This module is the unit boundary for input: schema defaults and bounds are
natural-unit values, ``ScenarioConfig.members`` holds one param dict per run
(sweep value applied, defaults filled) in natural units for the runner, and
``.params`` and ``.sweep`` keep the values in the config's own units.

Randomized probes (bracket points) are derived from ``seed`` with a
splittable counter scheme: probe i draws from a Philox stream keyed
(seed, i), so runs are reproducible and parallelizable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from .brackets import MAX_POINTS
from .dynamics import MAX_STEPS, whole_steps
from .search import default_bracket
from .units import NATURAL_UNITS, SI_UNITS, UnitContext, UnitSystem, convert_units

UNIT_TAGS = {
    "kg": "mass",
    "s": "time",
    "J": "energy",
    "m": "length",
    "kg*m/s": "momentum",
    "m/s": "speed",
    "m/s^2": "acceleration",
}

KINDS = (
    "GEDANKEN_BOX",
    "GEDANKEN_EFIELD",
    "CLASSICAL_TRAJECTORY",
    "CLASSICAL_BRACKETS",
    "QUANTUM_MOMENTS",
    "QUANTUM_BOUND_SWEEP",
    "QUANTUM_OPTIMIZE",
)


class ConfigError(Exception):
    """Carries every schema violation found, not just the first."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class ParamSpec:
    """One config key.  ``default`` and the open bounds ``above`` and
    ``below`` are natural-unit values: a key left out takes the default as
    is, and a given value is held to the bounds converted to the config's
    units."""

    key: str
    dimension: str = "dimensionless"
    default: Any = None
    kind: str = "number"  # number | int | list | string
    choices: tuple[str, ...] | None = None
    above: float | None = None
    below: float | None = None

    def range_violation(self, value: float, ctx: UnitContext) -> str | None:
        """The config error for a value outside the bounds, or None."""
        if self.above is None and self.below is None:
            return None
        scale = convert_units(1.0, self.dimension, NATURAL_UNITS, ctx)
        if self.above is not None and not value > self.above * scale:
            return f"{self.key}: must be greater than {self.above * scale!r}, got {value!r}"
        if self.below is not None and not value < self.below * scale:
            return f"{self.key}: must be less than {self.below * scale!r}, got {value!r}"
        return None


@dataclass(frozen=True)
class SweepSpec:
    param: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    params: dict[str, Any]  # given values plus defaults, in the config's units
    sweep: SweepSpec | None  # swept values as given
    output: str
    units: UnitSystem
    seed: int
    members: tuple[dict[str, Any], ...]  # one param dict per run, in natural units

    def echo(self) -> dict[str, Any]:
        """JSON-friendly snapshot for run reports."""
        sweep = None
        if self.sweep is not None:
            sweep = {"param": self.sweep.param, "values": list(self.sweep.values)}
        return {
            "kind": self.kind,
            "units": self.units.value,
            "seed": self.seed,
            "output": self.output,
            "params": {k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in sorted(self.params.items())},
            "sweep": sweep,
        }


def _quantum_state_params(sigma_e: float, p0: float, sigma_p: float) -> list[ParamSpec]:
    return [
        ParamSpec("quantum.e0", "energy", 10.0),
        ParamSpec("quantum.sigma_e", "energy", sigma_e, above=0.0),
        ParamSpec("quantum.tau0", "time", 0.0),
        ParamSpec("quantum.p0", "momentum", p0),
        ParamSpec("quantum.sigma_p", "momentum", sigma_p, above=0.0),
    ]


SCHEMAS: dict[str, list[ParamSpec]] = {
    "GEDANKEN_BOX": [
        ParamSpec("box.dq", "length", 1e-6, above=0.0),
        ParamSpec("box.t", "time", 1.0, above=0.0),
        ParamSpec("box.g", "acceleration", 9.81, above=0.0),
    ],
    "GEDANKEN_EFIELD": [
        ParamSpec("efield.dq", "length", 1e-6, above=0.0),
        ParamSpec("efield.t", "time", 1.0, above=0.0),
        # the clock must move, slower than light (c = 1 natural speed unit)
        ParamSpec("efield.v", "speed", 0.5, above=0.0, below=1.0),
    ],
    "CLASSICAL_TRAJECTORY": [
        ParamSpec("classical.metric", kind="string", default="flat",
                  choices=("flat", "uniform_lapse")),
        ParamSpec("classical.m", "energy", 1.0, above=0.0),
        ParamSpec("classical.charge", "dimensionless", 0.0),
        ParamSpec("classical.tau0", "time", 0.0),
        ParamSpec("classical.x1", "length", 0.0),
        ParamSpec("classical.x2", "length", 0.0),
        ParamSpec("classical.x3", "length", 0.0),
        ParamSpec("classical.p1", "momentum", 0.75),
        ParamSpec("classical.p2", "momentum", 0.0),
        ParamSpec("classical.p3", "momentum", 0.0),
        ParamSpec("classical.t_end", "time", 10.0, above=0.0),
        ParamSpec("classical.dt", "time", 1e-3, above=0.0),
        ParamSpec("classical.lapse_g", "acceleration", 0.0),
        ParamSpec("classical.a0_slope", "dimensionless", 0.0),
        ParamSpec("classical.hold", "dimensionless", 0.0),
    ],
    "CLASSICAL_BRACKETS": [
        ParamSpec("brackets.points", "dimensionless", 50, kind="int", above=0,
                  below=MAX_POINTS + 1),
        # a step of h_step max(1, |z_i|) >= |z_i| is no difference quotient
        ParamSpec("brackets.h_step", "dimensionless", 1e-5, above=0.0, below=1.0),
        # the probes reach M = 3 scale, and their range 2 scale must be finite
        ParamSpec("brackets.scale", "dimensionless", 2.0, above=0.0, below=1e307),
    ],
    "QUANTUM_MOMENTS": _quantum_state_params(0.5, 0.0, 0.5) + [
        ParamSpec("quantum.times", "time", (0.0, 1.0, 10.0, 100.0), kind="list"),
        ParamSpec("quantum.snapshot", kind="string", default=""),
    ],
    "QUANTUM_BOUND_SWEEP": _quantum_state_params(0.5, 1000.0, 0.05) + [
        ParamSpec("quantum.t", "time", 100.0, above=0.0),
    ],
    "QUANTUM_OPTIMIZE": [
        ParamSpec("quantum.e0", "energy", 10.0),
        ParamSpec("quantum.p0", "momentum", 1000.0),
        ParamSpec("quantum.sigma_p", "momentum", 0.05, above=0.0),
        ParamSpec("quantum.t", "time", 100.0, above=0.0),
        ParamSpec("optimize.sigma_lo", "energy", 0.0),
        ParamSpec("optimize.sigma_hi", "energy", 0.0),
    ],
}

_RESERVED = ("kind", "units", "seed", "output")
_SWEEP_KEYS = ("sweep.param", "sweep.values", "sweep.min", "sweep.max",
               "sweep.count", "sweep.scale")


def _split_lines(text: str) -> list[tuple[str, str]]:
    pairs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError([f"malformed line (expected key = value): {raw.strip()!r}"])
        key, value = line.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def _parse_number(key: str, text: str, dimension: str, units: UnitSystem,
                  violations: list[str]) -> float | None:
    parts = text.split(None, 1)
    try:
        value = float(parts[0])
    except (ValueError, IndexError):
        violations.append(f"{key}: non-numeric value {text!r}")
        return None
    if not math.isfinite(value):
        violations.append(f"{key}: value must be finite, got {text!r}")
        return None
    if len(parts) == 2:
        tag = parts[1].strip()
        tag_dim = UNIT_TAGS.get(tag)
        if tag_dim is None:
            violations.append(f"{key}: unknown unit tag {tag!r}")
            return None
        if units is not UnitSystem.SI:
            violations.append(f"{key}: unit tags are only meaningful in SI configs")
            return None
        if tag_dim != dimension:
            violations.append(
                f"{key}: unit tag {tag!r} is {tag_dim}, expected {dimension}")
            return None
    return value


def _parse_list(key: str, text: str, violations: list[str]) -> tuple[float, ...] | None:
    out = []
    for tok in text.split(","):
        try:
            value = float(tok.strip())
        except ValueError:
            violations.append(f"{key}: non-numeric list entry {tok.strip()!r}")
            return None
        if not math.isfinite(value):
            violations.append(f"{key}: list entries must be finite, got {tok.strip()!r}")
            return None
        out.append(value)
    if not out:
        violations.append(f"{key}: empty list")
        return None
    return tuple(out)


def _resolve_sweep(raw: dict[str, str], schema: dict[str, ParamSpec], units: UnitSystem,
                   violations: list[str]) -> SweepSpec | None:
    present = [k for k in _SWEEP_KEYS if k in raw]
    if not present:
        return None
    param = raw.get("sweep.param")
    if param is None:
        violations.append("sweep: missing sweep.param")
        return None
    spec = schema.get(param)
    if spec is None or spec.kind not in ("number",):
        violations.append(f"sweep: parameter {param!r} is not a sweepable numeric key")
        return None
    if "sweep.values" in raw:
        ignored = [k for k in ("sweep.min", "sweep.max", "sweep.count", "sweep.scale")
                   if k in raw]
        if ignored:
            violations.append(f"sweep.values: must be given alone, "
                              f"not with {', '.join(ignored)}, which it would ignore")
            return None
        values = _parse_list("sweep.values", raw["sweep.values"], violations)
        if values is None:
            return None
        return SweepSpec(param=param, values=values)
    missing = [k for k in ("sweep.min", "sweep.max", "sweep.count") if k not in raw]
    if missing:
        violations.append(f"sweep: missing {', '.join(missing)} (or give sweep.values)")
        return None
    lo = _parse_number("sweep.min", raw["sweep.min"], spec.dimension, units, violations)
    hi = _parse_number("sweep.max", raw["sweep.max"], spec.dimension, units, violations)
    count_txt = raw["sweep.count"]
    try:
        count = int(count_txt)
    except ValueError:
        violations.append(f"sweep.count: non-numeric value {count_txt!r}")
        return None
    scale = raw.get("sweep.scale", "linear")
    if scale not in ("linear", "log"):
        violations.append(f"sweep.scale: must be linear or log, got {scale!r}")
        return None
    if lo is None or hi is None:
        return None
    if count < 1 or hi <= lo or (scale == "log" and lo <= 0.0):
        violations.append("sweep: need count >= 1 and max > min (min > 0 for log scale)")
        return None
    if count == 1:
        values = (lo,)
    elif scale == "log":
        ratio = (hi / lo) ** (1.0 / (count - 1))
        values = tuple(lo * ratio**i for i in range(count))
    else:
        step = (hi - lo) / (count - 1)
        values = tuple(lo + step * i for i in range(count))
    return SweepSpec(param=param, values=values)


_MOMENTA = ("classical.p1", "classical.p2", "classical.p3")


def _got(written: Callable[[str], str], *keys: str) -> str:
    """The tail "got a = x, b = y and c = z" of a rule's message: each key
    and its value as the config gives it."""
    got = [f"{key} = {written(key)}" for key in keys]
    return f"got {', '.join(got[:-1])} and {got[-1]}"


def _bracket_violation(member: dict[str, Any], written: Callable[[str], str]) -> str | None:
    """The optimizer bracket is the default (both ends 0) or 0 < lo < hi;
    the default one, ``search.default_bracket``, must have 0 < lo < hi <
    inf, which keys far from 1 round away."""
    lo, hi = member["optimize.sigma_lo"], member["optimize.sigma_hi"]
    if 0.0 < lo < hi:
        return None
    if lo != 0.0 or hi != 0.0:
        return (f"optimize.sigma_lo: must be 0 with optimize.sigma_hi (the default bracket) "
                f"or satisfy 0 < optimize.sigma_lo < optimize.sigma_hi, "
                f"got {written('optimize.sigma_lo')} and {written('optimize.sigma_hi')}")
    lo, hi = default_bracket(member["quantum.e0"], member["quantum.p0"], member["quantum.t"])
    if 0.0 < lo < hi < math.inf:
        return None
    return (f"optimize.sigma_lo: the default bracket (both ends 0), a factor of ten either "
            f"side of sqrt(|(e0, p0)| / (2 t)), must satisfy 0 < lo < hi < inf; give both "
            f"ends, {_got(written, 'quantum.e0', 'quantum.p0', 'quantum.t')}")


def _step_rule_violation(member: dict[str, Any], written: Callable[[str], str]) -> str | None:
    """classical.t_end must be a whole number of classical.dt steps, at least
    four (the rate and motion audits take five-point central differences)
    and at most MAX_STEPS (the memory of the trajectory's table)."""
    n_steps = whole_steps(member["classical.t_end"], member["classical.dt"])
    if n_steps is not None and 4 <= n_steps <= MAX_STEPS:
        return None
    return (f"classical.t_end: must be a whole number of classical.dt steps, at least 4 "
            f"and at most {MAX_STEPS}, {_got(written, 'classical.t_end', 'classical.dt')}")


def _flat_lapse_violation(member: dict[str, Any], written: Callable[[str], str]) -> str | None:
    """A flat metric has no lapse field: classical.lapse_g is 0 there."""
    if member["classical.metric"] != "flat" or member["classical.lapse_g"] == 0.0:
        return None
    return (f"classical.lapse_g: must be 0 under classical.metric = flat, "
            f"got {written('classical.lapse_g')}")


def _lapse_horizon_violation(member: dict[str, Any],
                             written: Callable[[str], str]) -> str | None:
    """A clock starts where the lapse 1 + g x^1 / c^2 is positive, the same
    sum the metric checks at run time (c = 1 in a member)."""
    if 1.0 + member["classical.lapse_g"] * member["classical.x1"] > 0.0:
        return None
    return (f"classical.x1: must start where the lapse "
            f"1 + classical.lapse_g * classical.x1 / c^2 is positive, "
            f"{_got(written, 'classical.lapse_g', 'classical.x1')}")


def _kinetic_root_violation(member: dict[str, Any],
                            written: Callable[[str], str]) -> str | None:
    """The clock's kinetic root sqrt(m^2 + |p|^2) is real and nonzero: the
    sum the dynamics checks at run time, which a rest energy too small to
    square (1e-200) leaves at 0 when the momentum is 0.  And the cube of the
    clock's rate m / sqrt(m^2 + |p|^2) is nonzero: the motion audit divides
    by it, and a rest energy far below the momentum (1e-150 beside 0.5)
    leaves a clock with no proper time to audit.  The squares are products,
    as the dynamics forms them, so a sum past the float range reads inf."""
    m, p = member["classical.m"], [member[key] for key in _MOMENTA]
    root2 = m * m + sum(v * v for v in p)
    if not root2 > 0.0:
        problem = "m^2 + p1^2 + p2^2 + p3^2 must be positive"
    elif root2 == math.inf:
        problem = "m^2 + p1^2 + p2^2 + p3^2 overflows to inf"
    elif (m / math.sqrt(root2)) ** 3 == 0.0:
        problem = "the rate (m / sqrt(m^2 + p1^2 + p2^2 + p3^2))^3 underflows to 0"
    else:
        return None
    return f"classical.m: {problem}, {_got(written, 'classical.m', *_MOMENTA)}"


def _held_at_rest_violation(member: dict[str, Any], written: Callable[[str], str]) -> str | None:
    """A held clock is at rest: ``hold`` freezes x, while the clock's tau rate
    f M / sqrt(M^2 + |p|^2) would still read a momentum."""
    if member["classical.hold"] == 0.0 or not any(member[key] for key in _MOMENTA):
        return None
    return (f"classical.hold: a held clock must be at rest (p1 = p2 = p3 = 0), "
            f"{_got(written, *_MOMENTA)}")


def _latitude_violation(member: dict[str, Any], written: Callable[[str], str]) -> str | None:
    """The weighing's product c^2 dm dtau / h is finite.  Its latitudes are
    products of the keys, formed as ``gedanken`` forms them at c = 1, so keys
    far from 1 take one past the float range and the product to inf or nan."""
    if "box.dq" in member:
        keys = ("box.dq", "box.t", "box.g")
        dq, t, g = (member[key] for key in keys)
        product = NATURAL_UNITS.h / dq / (g * t) * (g * dq * t)  # dm = (h / dq) / (g t)
    else:
        keys = ("efield.dq", "efield.v")
        dq, v = (member[key] for key in keys)
        product = NATURAL_UNITS.h / dq / v * (v * dq)  # dm = (h / dq) / v
    if math.isfinite(product):
        return None
    return (f"{keys[0]}: the latitudes dm and dtau leave the float range, so c^2 dm dtau / h "
            f"is not finite, {_got(written, *keys)}")


# Rules that join keys, checked on every run member (natural units) once each
# key has passed alone; a message quotes the member's values as the config
# gives them.
_CROSS_KEY_RULES = {"GEDANKEN_BOX": (_latitude_violation,),
                    "GEDANKEN_EFIELD": (_latitude_violation,),
                    "CLASSICAL_TRAJECTORY": (_step_rule_violation, _flat_lapse_violation,
                                             _lapse_horizon_violation, _kinetic_root_violation,
                                             _held_at_rest_violation),
                    "QUANTUM_OPTIMIZE": (_bracket_violation,)}


def _convert(spec: ParamSpec, value: Any, src: UnitContext, dst: UnitContext) -> Any:
    """A value of ``spec`` moved between unit systems; ints and strings have none."""
    if src is dst or spec.kind not in ("number", "list"):
        return value
    if isinstance(value, tuple):
        return tuple(convert_units(v, spec.dimension, src, dst) for v in value)
    return convert_units(value, spec.dimension, src, dst)


def parse_config(text: str, kind_hint: str | None = None, overrides: str = "") -> ScenarioConfig:
    """Validate a config document, whose keys the entries of ``overrides``
    (a second document, such as the command line's) replace; a key given
    twice in one document is a violation.  Every per-key violation is
    reported together in one ConfigError, then the rules joining keys are
    checked on the run members."""
    violations: list[str] = []
    raw: dict[str, str] = {}
    for document in (text, overrides):
        given: dict[str, str] = {}
        for key, value in _split_lines(document):
            if key in given:
                violations.append(f"duplicate key: {key}")
            given[key] = value
        raw.update(given)

    kind = raw.get("kind", kind_hint)
    if kind is None:
        violations.append("missing required key: kind")
    elif kind not in KINDS:
        violations.append(f"unknown kind: {kind!r} (expected one of {', '.join(KINDS)})")
        kind = None
    elif kind_hint is not None and kind != kind_hint:
        violations.append(f"kind {kind!r} conflicts with the invoked subcommand ({kind_hint})")

    units_txt = raw.get("units", "NATURAL")
    try:
        units = UnitSystem(units_txt)
    except ValueError:
        violations.append(f"units: must be SI or NATURAL, got {units_txt!r}")
        units = UnitSystem.NATURAL

    seed = 0
    if "seed" in raw:
        try:
            seed = int(raw["seed"])
        except ValueError:
            violations.append(f"seed: non-integer value {raw['seed']!r}")
        if not 0 <= seed < 2**64:  # a Philox key word is a uint64
            violations.append(f"seed: must be in [0, 2**64), the Philox key range, got {seed}")

    if kind is None:
        raise ConfigError(violations)

    ctx = SI_UNITS if units is UnitSystem.SI else NATURAL_UNITS
    output = raw.get("output", f"{kind.lower()}.csv")
    schema = {spec.key: spec for spec in SCHEMAS[kind]}
    params: dict[str, Any] = {}

    for key, value in raw.items():
        if key in _RESERVED or key in _SWEEP_KEYS:
            continue
        spec = schema.get(key)
        if spec is None:
            violations.append(f"unknown key for {kind}: {key}")
            continue
        parsed: Any = None
        if spec.kind == "number":
            parsed = _parse_number(key, value, spec.dimension, units, violations)
        elif spec.kind == "int":
            try:
                parsed = int(value)
            except ValueError:
                violations.append(f"{key}: non-integer value {value!r}")
        elif spec.kind == "list":
            parsed = _parse_list(key, value, violations)
        elif spec.choices is not None and value not in spec.choices:
            violations.append(f"{key}: {value!r} is not one of {', '.join(spec.choices)}")
        else:
            parsed = value
        if parsed is None:
            continue
        problem = spec.range_violation(parsed, ctx)
        if problem is not None:
            violations.append(problem)
        else:
            params[key] = parsed

    sweep = _resolve_sweep(raw, schema, units, violations)
    if sweep is not None:
        if not all(math.isfinite(v) for v in sweep.values):
            violations.append("sweep: values must be finite")
        for value in sweep.values:
            problem = schema[sweep.param].range_violation(value, ctx)
            if problem is not None:
                violations.append(problem)
    if violations:
        raise ConfigError(violations)

    natural = {spec.key: (_convert(spec, params[spec.key], ctx, NATURAL_UNITS)
                          if spec.key in params else spec.default) for spec in SCHEMAS[kind]}
    members = (natural,) if sweep is None else tuple(
        {**natural, sweep.param: _convert(schema[sweep.param], value, ctx, NATURAL_UNITS)}
        for value in sweep.values)
    for spec in SCHEMAS[kind]:
        params.setdefault(spec.key, _convert(spec, spec.default, NATURAL_UNITS, ctx))
    rules = _CROSS_KEY_RULES.get(kind, ())
    if rules:
        tags = {dim: tag for tag, dim in UNIT_TAGS.items()} if units is UnitSystem.SI else {}

        def written_in(given: dict[str, Any]) -> Callable[[str], str]:
            return lambda key: f"{given[key]!r} {tags.get(schema[key].dimension, '')}".rstrip()

        given = [params] if sweep is None else [{**params, sweep.param: value}
                                                for value in sweep.values]
        # members that differ only in other keys break a rule with one message
        violations = list(dict.fromkeys(filter(None, (
            rule(member, written_in(values)) for rule in rules
            for member, values in zip(members, given)))))
        if violations:
            raise ConfigError(violations)
    return ScenarioConfig(kind=kind, params=params, sweep=sweep, output=output,
                          units=units, seed=seed, members=members)
