"""Seeded operation lists for the clocklab benchmark, and the checks each
operation's output must pass.

An operation is one command line, ``clocklab <group> <sub> --set k=v ...
--output PATH``.  A workload is a fixed list of operations drawn from
``random.Random("<workload>:<seed>")``: the seed changes the physical inputs
(momenta, lapse slopes, energy centres, evolution times, probe seeds) but not
the shape of the work (step counts, probe counts, sweep sizes and grid sizes
stay fixed), so figures from different seeds are comparable.  Every drawn
input is physical, so every operation is expected to exit 0.
"""
from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path

# SI size of one natural unit (hbar = c = 1, second-based), as in clocklab.units.
HBAR_SI = 1.054571817e-34
LIGHT_SPEED_SI = 299792458.0

# Upper-triangle pairs of the 10 canonical coordinates in a Dirac table.
DIRAC_PAIRS = 45
# Optimizer defaults that fix its evaluation count (clocklab.search).
GOLDEN_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
OPTIMIZER_LOG_TOL = 5e-3
OPTIMIZER_DEFAULT_SPAN = math.log(100.0)
# Defaults of the bound scenario (clocklab.config): a boosted clock read at t.
BOOSTED_P0 = 1000.0
BOUND_T = 100.0


@dataclass(frozen=True)
class Operation:
    group: str
    sub: str
    sets: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        return f"{self.group}-{self.sub}"

    def argv(self, output: Path | str) -> list[str]:
        args = [self.group, self.sub]
        for entry in self.sets:
            args += ["--set", entry]
        return args + ["--output", str(output)]

    def config_text(self, output: Path | str) -> str:
        """The document the command line composes from ``argv(output)``."""
        return "\n".join(list(self.sets) + [f"output = {output}"])


def _num(value: float) -> str:
    return repr(float(value))


def _classical(rng: random.Random, smoke: bool) -> list[Operation]:
    steps = ("classical.t_end=0.2",) if smoke else ()
    points = ("brackets.points=2",) if smoke else ()
    # flat cruise, given in SI so the unit layer converts every output cell
    p1, p2 = rng.uniform(0.3, 0.7), rng.uniform(-0.3, 0.3)
    cruise = Operation("classical", "trajectory", (
        "units=SI", f"classical.m={_num(HBAR_SI)}",
        f"classical.p1={_num(p1 * HBAR_SI / LIGHT_SPEED_SI)}",
        f"classical.p2={_num(p2 * HBAR_SI / LIGHT_SPEED_SI)}") + steps)
    lapse = Operation("classical", "trajectory", (
        "classical.metric=uniform_lapse", f"classical.lapse_g={_num(rng.uniform(0.01, 0.08))}",
        f"classical.p1={_num(rng.uniform(0.2, 0.8))}") + steps)
    # a held clock is at rest: p = 0 is the only input consistent with hold = 1
    held = Operation("classical", "trajectory", (
        "classical.metric=uniform_lapse", f"classical.lapse_g={_num(rng.uniform(0.01, 0.08))}",
        f"classical.x1={_num(rng.uniform(0.5, 3.0))}", "classical.p1=0.0",
        "classical.hold=1") + steps)
    sweep = Operation("classical", "trajectory", (
        "sweep.param=classical.p1", f"sweep.min={_num(rng.uniform(0.1, 0.3))}",
        f"sweep.max={_num(rng.uniform(0.6, 0.9))}",
        f"sweep.count={2 if smoke else 4}") + steps)
    brackets = [Operation("classical", "brackets",
                          (f"seed={rng.randrange(1, 2**31)}",) + points) for _ in range(3)]
    boxes = [Operation("gedanken", "box", (
        "units=SI", f"box.dq={_num(rng.uniform(1e-7, 1e-5))}",
        f"box.t={_num(rng.uniform(0.5, 5.0))}", f"box.g={_num(rng.uniform(1.0, 20.0))}"))
        for _ in range(3)]
    efields = [Operation("gedanken", "efield", (
        "units=SI", f"efield.dq={_num(rng.uniform(1e-7, 1e-5))}",
        f"efield.t={_num(rng.uniform(0.5, 5.0))}", f"efield.v={_num(rng.uniform(1e6, 1e8))}"))
        for _ in range(3)]
    return [cruise, boxes[0], lapse, efields[0], brackets[0], boxes[1], held,
            efields[1], brackets[1], sweep, boxes[2], brackets[2], efields[2]]


def _times(values: list[float]) -> str:
    return "quantum.times=" + ",".join(_num(t) for t in values)


def _bound_sweep(rng: random.Random, count: int) -> Operation:
    """A log sweep over sigma_e for a boosted clock (default p0 and t) whose
    members straddle the saturation width sigma* = sqrt(hbar <H> / 2t)
    without landing on it.  At sigma* the simulated variance sits about 2e-4
    of the bound below the sharp-energy bound hbar t / <H>, and the runner's
    sw_bound check, whose tolerance is 0, fails there."""
    e0 = rng.uniform(5.0, 20.0)
    sigma_star = math.sqrt(math.hypot(e0, BOOSTED_P0) / (2.0 * BOUND_T))
    ratio = rng.uniform(1.25, 1.32)
    above = max(1, count // 4 + rng.randrange(0, 2))  # members above sigma*
    lo = sigma_star / ratio ** (count - above - 0.5)
    return Operation("quantum", "bound", (
        f"quantum.e0={_num(e0)}", "sweep.param=quantum.sigma_e",
        f"sweep.min={_num(lo)}", f"sweep.max={_num(lo * ratio ** (count - 1))}",
        f"sweep.count={count}", "sweep.scale=log"))


def _quantum_sweep(rng: random.Random, smoke: bool) -> list[Operation]:
    # sigma_e stays within [0.2, 6], which keeps every E grid at 1024
    bounds = [_bound_sweep(rng, 3 if smoke else 12) for _ in range(4)]
    optimize = Operation("quantum", "optimize", (f"quantum.e0={_num(rng.uniform(5.0, 20.0))}",))
    # rest clock; times up to 120 keep the default 1024 x 256 grid
    moments = [Operation("quantum", "moments", (
        f"quantum.e0={_num(rng.uniform(8.0, 12.0))}",
        _times([0.0, rng.uniform(1.0, 10.0), rng.uniform(20.0, 60.0), rng.uniform(80.0, 120.0)])))
        for _ in range(2)]
    # Sweeps are the majority, so the median operation is a sweep: the
    # unswept operations vary far more from run to run on a small host.
    return [moments[0], bounds[0], bounds[1], optimize, bounds[2], moments[1], bounds[3]]


def _quantum_long(rng: random.Random, smoke: bool) -> list[Operation]:
    # rest clock to t in [900, 1400]: suggest_grids sizes the E axis to 8192
    ops = []
    for _ in range(4):
        top = rng.uniform(80.0, 120.0) if smoke else rng.uniform(900.0, 1400.0)
        ops.append(Operation("quantum", "moments", (
            f"quantum.e0={_num(rng.uniform(9.0, 11.0))}",
            _times([0.0, rng.uniform(0.005, 0.05) * top, rng.uniform(0.1, 0.4) * top, top]))))
    return ops


WORKLOADS = {
    "classical": _classical,
    "quantum-sweep": _quantum_sweep,
    "quantum-long": _quantum_long,
}

# One default-config run of each of the seven scenario kinds.
REFERENCE = [Operation(group, sub) for group, sub in (
    ("gedanken", "box"), ("gedanken", "efield"), ("classical", "trajectory"),
    ("classical", "brackets"), ("quantum", "moments"), ("quantum", "bound"),
    ("quantum", "optimize"))]


def generate(workload: str, seed: int, smoke: bool = False) -> list[Operation]:
    """The workload's operation list for a seed; ``smoke`` shrinks every
    operation for a quick end-to-end test of the harness."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), smoke)


def members(config) -> int:
    return 1 if config.sweep is None else len(config.sweep.values)


def _optimizer_evals(params: dict) -> int:
    lo, hi = params["optimize.sigma_lo"], params["optimize.sigma_hi"]
    span = math.log(hi / lo) if 0.0 < lo < hi else OPTIMIZER_DEFAULT_SPAN
    h, k = span, 0
    while h > OPTIMIZER_LOG_TOL:
        h *= GOLDEN_INV_PHI
        k += 1
    return 2 + k


def expected_rows(config) -> int:
    """Data rows the parsed config implies for its CSV."""
    p = config.params
    per_member = {
        "GEDANKEN_BOX": lambda: 1,
        "GEDANKEN_EFIELD": lambda: 1,
        "CLASSICAL_TRAJECTORY": lambda: int(round(p["classical.t_end"] / p["classical.dt"])) + 1,
        "CLASSICAL_BRACKETS": lambda: p["brackets.points"] * DIRAC_PAIRS,
        "QUANTUM_MOMENTS": lambda: len(p["quantum.times"]),
        "QUANTUM_BOUND_SWEEP": lambda: 1,
        "QUANTUM_OPTIMIZE": lambda: _optimizer_evals(p),
    }[config.kind]()
    return per_member * members(config)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _column(header: list[str], rows: list[list[str]], name: str) -> list[float]:
    idx = header.index(name)
    return [float(r[idx]) for r in rows]


def output_problem(config, header: list[str], rows: list[list[str]]) -> str | None:
    """Check a scenario CSV against the physics it must show, independently
    of the program's own self-checks; returns a description of the first
    problem, or None."""
    if len(rows) != expected_rows(config):
        return f"{len(rows)} rows, config implies {expected_rows(config)}"
    kind = config.kind
    if kind.startswith("GEDANKEN"):
        worst = max(abs(v - 1.0) for v in _column(header, rows, "product_ratio"))
        return None if worst <= 1e-12 else f"product_ratio off by {worst:.3e}"
    if kind == "CLASSICAL_TRAJECTORY":
        per_member = len(rows) // members(config)
        for start in range(0, len(rows), per_member):
            member = rows[start:start + per_member]
            drift = max(max(abs(v) for v in _column(header, member, c)) for c in ("phi1", "phi2"))
            energy = _column(header, member, "H")
            spread = (max(energy) - min(energy)) / abs(energy[0])
            if drift > 1e-9 * abs(_column(header, member, "M")[0]) or spread > 1e-9:
                return f"constraint drift {drift:.3e}, relative H spread {spread:.3e}"
        return None
    if kind == "CLASSICAL_BRACKETS":
        worst = max(_column(header, rows, "error"))
        return None if worst <= 1e-6 else f"Dirac bracket error {worst:.3e}"
    if kind in ("QUANTUM_MOMENTS", "QUANTUM_BOUND_SWEEP"):
        sim = _column(header, rows, "var_tau_sim")
        law = _column(header, rows, "var_tau_law")
        worst = max(abs(s - w) / w for s, w in zip(sim, law))
        return None if worst <= 1e-7 else f"variance law off by {worst:.3e}"
    if kind == "QUANTUM_OPTIMIZE":
        var = _column(header, rows, "var_tau")
        return None if min(var) > 0.0 else "non-positive variance in the optimizer trace"
    return f"no output check for {kind}"
