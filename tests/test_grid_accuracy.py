"""Readings on the grids that ``suggest_grids`` sizes by accuracy alone.

Every quantum operation of the benchmark workloads, at seeds 1-3, is run
and each variance it reads is compared with the exact law of
``oracles.exact_gaussian_variance``.  No reading may sit farther from it
than the same reading did on the former fixed 1024 x 256 grid floors, plus
1e-12 (relative).  Those former errors are pinned below, per operation and
rounded up to two digits.
"""
from __future__ import annotations

import csv
import importlib.util
import sys
from pathlib import Path

import pytest

from clocklab.cli import main
from clocklab.config import parse_config
from clocklab.runner import run

from oracles import exact_gaussian_variance

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

_KINDS = {"moments": "QUANTUM_MOMENTS", "bound": "QUANTUM_BOUND_SWEEP",
          "optimize": "QUANTUM_OPTIMIZE"}

# worst relative oracle error of each operation on 1024 x 256 grids,
# in workload order
FORMER_ERRORS = {
    ("quantum-sweep", 1): (5.4e-15, 1.9e-13, 2.0e-13, 3.8e-13, 3.7e-13, 4.2e-15, 3.6e-13),
    ("quantum-sweep", 2): (4.9e-15, 6.3e-13, 3.1e-13, 3.3e-13, 2.9e-13, 4.0e-15, 4.1e-13),
    ("quantum-sweep", 3): (4.6e-15, 3.2e-13, 3.4e-13, 4.7e-13, 2.8e-13, 3.6e-15, 2.9e-13),
    ("quantum-long", 1): (7.4e-15, 7.2e-15, 6.1e-15, 6.6e-15),
    ("quantum-long", 2): (8.0e-15, 1.6e-14, 4.9e-15, 1.9e-14),
    ("quantum-long", 3): (3.3e-15, 1.7e-14, 7.4e-15, 1.1e-14),
}

_CASES = [(workload, seed, i) for (workload, seed), errors in FORMER_ERRORS.items()
          for i in range(len(errors))]


def _worst_oracle_error(config, path: Path) -> float:
    """Largest |var - exact| / exact over the rows of an operation's CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    worst = 0.0
    if config.kind == "QUANTUM_OPTIMIZE":
        p = config.members[0]
        for row in rows:
            exact = exact_gaussian_variance(p["quantum.e0"], float(row["sigma_e"]),
                                            p["quantum.p0"], p["quantum.sigma_p"], p["quantum.t"])
            worst = max(worst, abs(float(row["var_tau"]) - exact) / exact)
        return worst
    per_member = len(rows) // len(config.members)
    for m, p in enumerate(config.members):
        assert p["quantum.tau0"] == 0.0  # the oracle's state
        for row in rows[m * per_member:(m + 1) * per_member]:
            exact = exact_gaussian_variance(p["quantum.e0"], p["quantum.sigma_e"], p["quantum.p0"],
                                            p["quantum.sigma_p"], float(row["t"]))
            worst = max(worst, abs(float(row["var_tau_sim"]) - exact) / exact)
    return worst


@pytest.mark.parametrize("workload, seed, index", _CASES,
                         ids=[f"{w}-{s}-{i}" for w, s, i in _CASES])
def test_workload_readings_stay_at_the_oracle(tmp_path, workload, seed, index):
    op = workloads.generate(workload, seed)[index]
    out = tmp_path / "op.csv"
    config = parse_config(f"kind = {_KINDS[op.sub]}\n" + op.config_text(out))
    assert run(config).all_passed
    worst = _worst_oracle_error(config, out)
    assert worst <= FORMER_ERRORS[(workload, seed)][index] + 1e-12


def test_wide_momentum_rest_clock_passes_at_long_times(tmp_path):
    # D - v grows as p^2, so the tau reach is sized at the reading's tail;
    # taken at the 4-sigma corners it left this clock on n_e = 4096, where
    # the reading wrapped and missed the exact variance by 1.0e-7
    out = tmp_path / "wide.csv"
    assert main(["quantum", "moments", "--set", "quantum.e0=20", "--set", "quantum.sigma_p=1.8",
                 "--set", "quantum.times=0,9000", "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        t = float(row["t"])
        assert float(row["var_tau_sim"]) == pytest.approx(
            exact_gaussian_variance(20.0, 0.5, 0.0, 1.8, t), rel=1e-12)


def test_wide_momentum_rest_clock_takes_the_p_nodes_it_needs(tmp_path):
    # sigma_p / e0 = 0.2: 16 Gauss-Hermite nodes on p miss the exact variance
    # at t = 100 by 1.2e-9, so the node rule must take more (it takes 32)
    out = tmp_path / "wide.csv"
    assert main(["quantum", "moments", "--set", "quantum.e0=10", "--set", "quantum.sigma_p=2",
                 "--set", "quantum.times=0,100", "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["t"]) for row in rows] == [0.0, 100.0]
    for row in rows:
        assert float(row["var_tau_sim"]) == pytest.approx(
            exact_gaussian_variance(10.0, 0.5, 0.0, 2.0, float(row["t"])), rel=1e-12)
