"""The mutant table: each mutant scales one physics term by a factor where
the code reads it, a CLI run goes through ``cli.main`` in-process, and the
row names the self-check that must fail.  A mutant that no check of its
runs catches is listed in ``UNCAUGHT`` with the reason, and the test asserts
that it is still uncaught, so a change that closes the gap moves its row to
``CAUGHT``.  Every run passes unmutated (``test_every_table_run_passes``),
so a failure in the table is the mutant's."""
from pathlib import Path

import pytest

import clocklab.dynamics as dynamics
import clocklab.gedanken as gedanken
import clocklab.moments as moments
from clocklab.cli import main

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _rate(index: int, factor: float):
    """One of the ten rates ``dynamics._rates`` returns (0: the tau rate)."""
    def patch(rates):
        def mutant(*args):
            out = list(rates(*args))
            out[index] = out[index] * factor
            return tuple(out)
        return mutant
    return dynamics, "_rates", patch


def _pair_term(term: str, factor: float):
    """A term of the (x^1, p_1) rates of ``dynamics._pair_rates``: dx^1/dt,
    or in dp_1/dt the lapse force -g b or the field force e slope."""
    def patch(pair_rates):
        def mutant(M, phi1, p2, p3, g, slope, charge, sqrt):
            rates = pair_rates(M, phi1, p2, p3, g, slope, charge, sqrt)

            def mutated(x1, p1):
                dx1, dp1, terms = rates(x1, p1)
                if term == "dx1":
                    return dx1 * factor, dp1, terms
                if term == "lapse":  # terms[5] is b
                    return dx1, dp1 - (factor - 1.0) * g * terms[5], terms
                return dx1, dp1 + (factor - 1.0) * charge * slope, terms
            return mutated
        return mutant
    return dynamics, "_pair_rates", patch


def _multiplier(name: str, factor: float):
    """A multiplier as ``moments`` reads it: D, or H, whose mean is <H>."""
    return moments, name, lambda multiplier: lambda state: multiplier(state) * factor


def _latitude(name: str, factor: float):
    """The weighing's delta_m or delta_tau, as ``gedanken._report`` receives it."""
    def patch(report):
        def mutant(delta_p, delta_m, delta_tau, units):
            if name == "delta_m":
                delta_m = delta_m * factor
            else:
                delta_tau = delta_tau * factor
            return report(delta_p, delta_m, delta_tau, units)
        return mutant
    return gedanken, "_report", patch


# name: the term, x the factor it is scaled by
MUTANTS = {
    "tau-rate-x1+1e-6": _rate(0, 1.0 + 1e-6),
    "dx1-dt-x1+1e-6": _pair_term("dx1", 1.0 + 1e-6),
    "lapse-force-x2": _pair_term("lapse", 2.0),
    "lapse-force-x1+1e-6": _pair_term("lapse", 1.0 + 1e-6),
    "field-force-x2": _pair_term("field", 2.0),
    "field-force-x1+1e-6": _pair_term("field", 1.0 + 1e-6),
    "D-x1+1e-6": _multiplier("dilation_multiplier", 1.0 + 1e-6),
    "H-mean-x1+1e-6": _multiplier("energy_multiplier", 1.0 + 1e-6),
    "H-mean-x1-1e-6": _multiplier("energy_multiplier", 1.0 - 1e-6),
    "H-mean-x1.01": _multiplier("energy_multiplier", 1.01),
    "dm-x1+1e-6": _latitude("delta_m", 1.0 + 1e-6),
    "dtau-x1+1e-6": _latitude("delta_tau", 1.0 + 1e-6),
}

RUNS = {
    "trajectory": ["classical", "trajectory"],
    "lapse": ["classical", "trajectory", "--set", "classical.metric=uniform_lapse",
              "--set", "classical.lapse_g=0.05", "--set", "classical.t_end=1"],
    "constant-force": ["classical", "trajectory", "--config",
                       str(EXAMPLES / "constant_force.cfg"), "--set", "classical.t_end=1"],
    "brackets": ["classical", "brackets"],
    "moments": ["quantum", "moments"],
    "bound": ["quantum", "bound"],
    "optimize": ["quantum", "optimize"],
    "box": ["gedanken", "box"],
    "efield": ["gedanken", "efield"],
}

# (mutant, run, the check that fails)
CAUGHT = [
    ("tau-rate-x1+1e-6", "trajectory", "proper_time_residual"),
    ("tau-rate-x1+1e-6", "trajectory", "tau_final"),
    ("tau-rate-x1+1e-6", "brackets", "dirac_flow"),
    ("dx1-dt-x1+1e-6", "trajectory", "proper_time_residual"),
    ("dx1-dt-x1+1e-6", "brackets", "dirac_flow"),
    # the lapse force acts only under a lapse, and no default run has one
    ("lapse-force-x2", "lapse", "motion_residual"),
    ("lapse-force-x1+1e-6", "lapse", "h_conservation"),
    ("lapse-force-x1+1e-6", "brackets", "dirac_flow"),
    ("field-force-x2", "constant-force", "motion_residual"),
    ("field-force-x1+1e-6", "brackets", "dirac_flow"),
    ("D-x1+1e-6", "moments", "mean_linearity"),
    ("dm-x1+1e-6", "box", "product_ratio"),
    ("dm-x1+1e-6", "efield", "product_ratio"),
    ("dtau-x1+1e-6", "box", "product_ratio"),
    ("dtau-x1+1e-6", "efield", "product_ratio"),
]

_H_GAP = ("<H> enters only the clock bound hbar t / <H>: sw_bound holds the reading "
          "above it one-sidedly, sw_bound_floor and sw_saturation hold the optimizer's "
          "minimum to it within 1e-3 and 5%, and no check compares <H> with a value "
          "taken another way (ROADMAP item 2)")

# (mutant, run): why none of the run's checks fails
UNCAUGHT = {(mutant, run): _H_GAP
            for mutant in ("H-mean-x1+1e-6", "H-mean-x1-1e-6", "H-mean-x1.01")
            for run in ("bound", "optimize")}


def _run(tmp_path, capsys, run: str) -> tuple[int, str]:
    code = main(RUNS[run] + ["--output", str(tmp_path / "x.csv")])
    return code, capsys.readouterr().out


def _mutate(monkeypatch, mutant: str) -> None:
    module, name, patch = MUTANTS[mutant]
    monkeypatch.setattr(module, name, patch(getattr(module, name)))


@pytest.mark.parametrize("run", list(RUNS))
def test_every_table_run_passes(tmp_path, capsys, run):
    code, out = _run(tmp_path, capsys, run)
    assert code == 0, out


@pytest.mark.parametrize("mutant, run, check", CAUGHT,
                         ids=[f"{m}-{r}-{c}" for m, r, c in CAUGHT])
def test_mutant_fails_its_check(tmp_path, capsys, monkeypatch, mutant, run, check):
    _mutate(monkeypatch, mutant)
    code, out = _run(tmp_path, capsys, run)
    assert code == 1
    assert f"[FAIL] {check}: " in out


@pytest.mark.parametrize("mutant, run", list(UNCAUGHT), ids=[f"{m}-{r}" for m, r in UNCAUGHT])
def test_uncaught_mutant_is_still_uncaught(tmp_path, capsys, monkeypatch, mutant, run):
    _mutate(monkeypatch, mutant)
    code, out = _run(tmp_path, capsys, run)
    assert code == 0, f"no longer uncaught ({UNCAUGHT[mutant, run]}): move it to CAUGHT\n{out}"


def test_every_mutant_has_a_row():
    rows = {m for m, _, _ in CAUGHT} | {m for m, _ in UNCAUGHT}
    assert rows == set(MUTANTS)
