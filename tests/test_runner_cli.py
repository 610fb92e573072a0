import hashlib
import json
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import clocklab
from clocklab.cli import main
from clocklab.config import parse_config
from clocklab.csvio import FloatBlock, emit_csv
from clocklab.runner import run
from clocklab.units import NATURAL_UNITS, SI_UNITS, convert_units

ROOT = Path(__file__).resolve().parent.parent


def _cfg(tmp_path, kind, body="", name="out.csv"):
    out = tmp_path / name
    return parse_config(f"kind = {kind}\noutput = {out}\n{body}"), out


# --- csv ---------------------------------------------------------------------

def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    assert emit_csv([], ["a", "b"], path) == 0
    assert path.read_text() == "a,b\n"


def test_emit_csv_counts_rows(tmp_path):
    path = tmp_path / "three.csv"
    rows = [[1, 2.0, "x", True]] * 3
    assert emit_csv(rows, ["i", "f", "s", "flag"], path) == 3
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[1] == "1,2.00000000000000e+00,x,1"


def test_emit_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match="row 1"):
        emit_csv([[1, 2], [3]], ["a", "b"], tmp_path / "bad.csv")


def test_emit_csv_float_blocks_match_cell_path(tmp_path):
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((5000, 4)) * 10.0 ** rng.integers(-300, 300, (5000, 4))
    matrix[0] = [0.0, -0.0, np.inf, np.nan]
    header = ["lead", "a", "b", "c", "d"]
    fast, cells = tmp_path / "fast.csv", tmp_path / "cells.csv"
    blocks = [FloatBlock((0.25,), matrix[:4097]), [7, "x|y", True, -1.5, 2.0],
              FloatBlock((-3e-7,), matrix[4097:])]
    assert emit_csv(blocks, header, fast) == 5001
    rows = ([[0.25] + row for row in matrix[:4097].tolist()] + [[7, "x|y", True, -1.5, 2.0]]
            + [[-3e-7] + row for row in matrix[4097:].tolist()])
    assert emit_csv(rows, header, cells) == 5001
    assert fast.read_bytes() == cells.read_bytes()
    with pytest.raises(ValueError, match="row 0 has 4 cells, header has 5"):
        emit_csv([FloatBlock((), matrix)], header, tmp_path / "bad.csv")


def test_float_format_has_at_least_12_significant_digits(tmp_path):
    path = tmp_path / "prec.csv"
    emit_csv([[1.0 / 3.0]], ["x"], path)
    cell = path.read_text().splitlines()[1]
    assert float(cell) == pytest.approx(1.0 / 3.0, rel=1e-14)


# --- runner ------------------------------------------------------------------

def test_gedanken_box_run(tmp_path):
    cfg, out = _cfg(tmp_path, "GEDANKEN_BOX")
    report = run(cfg)
    assert report.all_passed
    assert report.rows_written == 1
    assert out.exists()
    assert out.with_suffix(".report.json").exists()


def test_gedanken_sweep_rows(tmp_path):
    cfg, out = _cfg(tmp_path, "GEDANKEN_BOX",
                    "sweep.param = box.dq\nsweep.values = 1e-7, 1e-6, 1e-5\n")
    report = run(cfg)
    assert report.rows_written == 3
    header = out.read_text().splitlines()[0]
    assert header.startswith("sweep_value,")


def test_trajectory_run_columns_and_checks(tmp_path):
    cfg, out = _cfg(tmp_path, "CLASSICAL_TRAJECTORY",
                    "classical.t_end = 2\nclassical.dt = 1e-2\n")
    report = run(cfg)
    assert report.all_passed
    header = out.read_text().splitlines()[0].split(",")
    assert header == ["t", "tau", "p_tau", "M", "p_M", "x1", "x2", "x3",
                      "p1", "p2", "p3", "phi1", "phi2", "H"]
    names = {c.name for c in report.checks}
    assert {"constraint_drift", "h_conservation", "m_conservation",
            "proper_time_residual", "motion_residual", "tau_final"} <= names
    # a held clock is pushed off its free motion, so the covariant audit is skipped
    cfg, out = _cfg(tmp_path, "CLASSICAL_TRAJECTORY",
                    "classical.t_end = 2\nclassical.dt = 1e-2\nclassical.metric = uniform_lapse\n"
                    "classical.lapse_g = 0.05\nclassical.x1 = 1\nclassical.p1 = 0\n"
                    "classical.hold = 1\n", name="held.csv")
    report = run(cfg)
    assert report.all_passed
    assert "motion_residual" not in {c.name for c in report.checks}


def test_motion_residual_passes_at_fine_steps(tmp_path, capsys):
    # At dt = 1e-5 the second differences of the samples round to about
    # 2e-5 here, above the fixed 1e-6; the tolerance follows the rounding bound.
    code = main(["classical", "trajectory", "--set", "classical.metric=uniform_lapse",
                 "--set", "classical.lapse_g=0.08", "--set", "classical.p1=0.8",
                 "--set", "classical.tau0=5", "--set", "classical.t_end=0.05",
                 "--set", "classical.dt=1e-5", "--output", str(tmp_path / "fine.csv")])
    assert code == 0
    report = json.loads((tmp_path / "fine.report.json").read_text())
    motion = next(c for c in report["checks"] if c["name"] == "motion_residual")
    assert 1e-6 < motion["measured"] < motion["tolerance"]


def test_brackets_run(tmp_path):
    cfg, out = _cfg(tmp_path, "CLASSICAL_BRACKETS", "brackets.points = 3\n")
    report = run(cfg)
    assert report.all_passed
    assert report.rows_written == 3 * 45


def test_quantum_moments_run(tmp_path):
    cfg, out = _cfg(tmp_path, "QUANTUM_MOMENTS", "quantum.times = 0, 1, 10\n")
    report = run(cfg)
    assert report.all_passed
    assert report.rows_written == 3
    names = {c.name for c in report.checks}
    assert {"variance_law", "mean_linearity", "uncertainty_floor", "commutator"} <= names


def test_quantum_bound_sweep_run(tmp_path):
    cfg, out = _cfg(tmp_path, "QUANTUM_BOUND_SWEEP", """
sweep.param = quantum.sigma_e
sweep.min = 0.05
sweep.max = 2.0
sweep.count = 4
sweep.scale = log
""")
    report = run(cfg)
    assert report.all_passed
    assert report.rows_written == 4


def test_quantum_optimize_run(tmp_path):
    cfg, out = _cfg(tmp_path, "QUANTUM_OPTIMIZE")
    report = run(cfg)
    assert report.all_passed
    names = {c.name for c in report.checks}
    assert names == {"sw_bound_floor", "sw_saturation"}


def test_si_trajectory_columns_scale(tmp_path):
    # a clock at rest with a 1 J rest energy, run for one SI second
    body = ("classical.t_end = 1 s\nclassical.dt = 1e-2 s\nclassical.p1 = 0 kg*m/s\n"
            "classical.m = 1 J\nunits = SI\n")
    cfg_si, out_si = _cfg(tmp_path, "CLASSICAL_TRAJECTORY", body, name="si.csv")
    report = run(cfg_si)
    assert report.all_passed
    rows = out_si.read_text().splitlines()
    header = rows[0].split(",")
    last = dict(zip(header, rows[-1].split(",")))
    # emitted columns are SI: one second of coordinate time, one of proper time
    assert float(last["t"]) == pytest.approx(1.0, rel=1e-12)
    assert float(last["tau"]) == pytest.approx(1.0, rel=1e-9)
    m_si = float(last["M"])
    assert convert_units(m_si, "energy", SI_UNITS, NATURAL_UNITS) == pytest.approx(
        convert_units(1.0, "energy", SI_UNITS, NATURAL_UNITS), rel=1e-12)
    assert m_si == pytest.approx(1.0, rel=1e-12)


def test_si_output_converts_each_column_once(tmp_path, monkeypatch):
    import clocklab.runner as runner
    convert = runner.convert_units
    calls = []

    def counting_convert(*args):
        calls.append(args)
        return convert(*args)

    monkeypatch.setattr(runner, "convert_units", counting_convert)
    counts = {}
    for t_end in ("0.5", "2"):
        calls.clear()
        cfg, _ = _cfg(tmp_path, "CLASSICAL_TRAJECTORY",
                      f"units = SI\nclassical.t_end = {t_end} s\nclassical.dt = 1e-2 s\n"
                      "classical.p1 = 0 kg*m/s\n")
        report = run(cfg)
        assert report.all_passed
        counts[report.rows_written] = len(calls)
    assert sorted(counts) == [51, 201]
    assert counts[51] == counts[201]


def test_quantum_readings_report_tau_window_and_grids(tmp_path):
    cfg, _ = _cfg(tmp_path, "QUANTUM_BOUND_SWEEP", "quantum.t = 100\n")
    report = run(cfg)
    window = {c.name: c for c in report.checks}["tau_window"]
    assert window.passed and 0.0 <= window.measured <= window.tolerance
    assert report.diagnostics == {"n_e": 1024, "n_p": 256}
    # a sweep reports the largest grid of its members
    cfg, _ = _cfg(tmp_path, "QUANTUM_MOMENTS", "quantum.times = 0, 3000\n"
                  "sweep.param = quantum.sigma_p\nsweep.values = 0.5, 1.0\n", name="s.csv")
    report = run(cfg)
    assert report.all_passed
    assert "tau_window" in {c.name for c in report.checks}
    assert report.diagnostics == {"n_e": 2048, "n_p": 256}


def test_report_json_contents(tmp_path):
    cfg, out = _cfg(tmp_path, "GEDANKEN_EFIELD")
    run(cfg)
    payload = json.loads(out.with_suffix(".report.json").read_text())
    assert payload["all_passed"] is True
    assert payload["scenario"]["kind"] == "GEDANKEN_EFIELD"
    assert payload["checks"][0]["name"] == "product_ratio"
    assert payload["diagnostics"] == {}
    # quantum runs report the grid they used: a rest clock read at t = 1000
    # needs only the residual drift in its tau window, so n_e stays at 1024
    # (sized for the whole drift t <D>, it would be 8192)
    cfg, out = _cfg(tmp_path, "QUANTUM_MOMENTS", "quantum.times = 0, 1000\n", name="q.csv")
    run(cfg)
    payload = json.loads(out.with_suffix(".report.json").read_text())
    assert payload["diagnostics"] == {"n_e": 1024, "n_p": 256}
    # every report says how long it computed and wrote, and with what
    assert set(payload["timings"]) == {"compute_s", "write_s"}
    assert all(isinstance(v, float) and v >= 0.0 for v in payload["timings"].values())
    assert payload["versions"] == {"clocklab": clocklab.__version__, "numpy": np.__version__,
                                   "python": platform.python_version()}
    # classical trajectories report their RK4 work: a p1 sweep is one batch
    # of all its members, a lapse_g sweep one batch per member; a free flat
    # batch takes one RHS evaluation, an unheld lapse clock four per step;
    # their timings split compute_s into the integrate and audit phases
    steps = "classical.t_end = 1\nclassical.dt = 1e-2\n"
    for body, diagnostics in (
            ("", {"rk4_steps": 100, "rhs_evals": 1, "batch_members": 1}),
            ("sweep.param = classical.p1\nsweep.values = 0.2, 0.4, 0.6\n",
             {"rk4_steps": 100, "rhs_evals": 1, "batch_members": 3}),
            ("classical.metric = uniform_lapse\nsweep.param = classical.lapse_g\n"
             "sweep.values = 0.01, 0.02\n",
             {"rk4_steps": 200, "rhs_evals": 800, "batch_members": 1}),
            ("classical.metric = uniform_lapse\nclassical.lapse_g = 0.01\n"
             "sweep.param = classical.p1\nsweep.values = 0.2, 0.4, 0.6\n",
             {"rk4_steps": 100, "rhs_evals": 1200, "batch_members": 3})):
        cfg, out = _cfg(tmp_path, "CLASSICAL_TRAJECTORY", steps + body, name="c.csv")
        run(cfg)
        payload = json.loads(out.with_suffix(".report.json").read_text())
        assert payload["diagnostics"] == diagnostics
        timings = payload["timings"]
        assert set(timings) == {"compute_s", "integrate_s", "audit_s", "write_s"}
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        assert timings["integrate_s"] + timings["audit_s"] <= timings["compute_s"]


# --- cli ---------------------------------------------------------------------

def test_cli_box_exit_zero(tmp_path, capsys):
    out = tmp_path / "box.csv"
    code = main(["gedanken", "box", "--output", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "[PASS] product_ratio" in printed


def test_cli_config_file_and_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("kind = GEDANKEN_BOX\nbox.dq = 1e-6\n")
    out = tmp_path / "o.csv"
    code = main(["gedanken", "box", "--config", str(cfg_file),
                 "--set", "box.t=2.0", "--output", str(out)])
    assert code == 0
    assert out.exists()


def test_cli_rejects_bad_config(tmp_path, capsys):
    code = main(["gedanken", "box", "--set", "box.dq=not_a_number",
                 "--output", str(tmp_path / "x.csv")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("group, sub, setting", [
    ("gedanken", "box", "box.dq=nan"),
    ("quantum", "moments", "quantum.sigma_e=inf"),
    ("quantum", "moments", "quantum.times=0, nan"),
    ("classical", "trajectory", "classical.dt=nan"),
    ("classical", "brackets", "brackets.points=0"),
    ("classical", "brackets", "brackets.points=-3"),
    ("quantum", "bound", "grid.e.n=0"),
    ("quantum", "moments", "grid.p.n=-4"),
])
def test_cli_rejects_nonfinite_numbers_and_nonpositive_counts(tmp_path, capsys, group, sub,
                                                              setting):
    out = tmp_path / "x.csv"
    code = main([group, sub, "--set", setting, "--output", str(out)])
    assert code == 2
    assert f"config error: {setting.split('=')[0]}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("group, sub, settings, key", [
    ("quantum", "bound", ["quantum.t=0"], "quantum.t"),
    ("quantum", "optimize", ["quantum.t=-5"], "quantum.t"),
    ("gedanken", "box", ["box.dq=-1"], "box.dq"),
    ("gedanken", "efield", ["efield.v=2"], "efield.v"),
    ("gedanken", "efield", ["units=SI", "efield.v=299792458"], "efield.v"),
    ("classical", "brackets", ["brackets.h_step=0"], "brackets.h_step"),
    ("classical", "brackets", ["brackets.scale=-2"], "brackets.scale"),
    ("classical", "trajectory", ["classical.dt=0"], "classical.dt"),
    ("classical", "trajectory", ["classical.m=0", "classical.p1=0.75"], "classical.m"),
    ("classical", "trajectory", ["sweep.param=classical.m", "sweep.values=1, -1"], "classical.m"),
    ("quantum", "bound", ["sweep.param=quantum.sigma_e", "sweep.min=-0.5", "sweep.max=1.0",
                          "sweep.count=4"], "quantum.sigma_e"),
    ("quantum", "optimize", ["optimize.sigma_lo=0.5"], "optimize.sigma_lo"),
    ("quantum", "optimize", ["optimize.sigma_lo=3", "optimize.sigma_hi=1"], "optimize.sigma_lo"),
    ("quantum", "optimize", ["optimize.sigma_lo=-1", "optimize.sigma_hi=20"],
     "optimize.sigma_lo"),
    ("classical", "brackets", ["seed=-1"], "seed"),
    ("classical", "brackets", [f"seed={2**64}"], "seed"),
    ("gedanken", "box", ["sweep.param=box.dq", "sweep.values=1,2", "sweep.min=5"],
     "sweep.values"),
], ids=["bound-t", "optimize-t", "box-dq", "efield-v", "efield-v-si", "h-step", "scale", "dt",
        "m", "sweep-m", "sweep-sigma-e", "bracket-hi-unset", "bracket-reversed",
        "bracket-negative", "seed-negative", "seed-2**64", "sweep-values-with-min"])
def test_cli_rejects_out_of_range_values(tmp_path, capsys, group, sub, settings, key):
    out = tmp_path / "x.csv"
    argv = [group, sub]
    for setting in settings:
        argv += ["--set", setting]
    code = main(argv + ["--output", str(out)])
    assert code == 2
    assert f"config error: {key}: must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sub, settings, key, message", [
    ("moments", ["grid.p.n=4"], "grid.p.n", "must be a power of two, at least 8, got 4"),
    ("bound", ["grid.e.n=12"], "grid.e.n", "must be a power of two, at least 8, got 12"),
    ("bound", ["grid.e.n=8", "quantum.sigma_e=0.05"], "grid.e.n",
     "grid too coarse on the E axis"),
    ("optimize", ["grid.p.n=64"], "grid.p.n", "grid too coarse on the p axis"),
], ids=["p-not-grid-size", "e-not-power-of-two", "e-too-coarse", "optimize-p-too-coarse"])
def test_cli_rejects_grid_counts_that_cannot_hold_the_state(tmp_path, capsys, sub, settings,
                                                            key, message):
    out = tmp_path / "x.csv"
    argv = ["quantum", sub]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv + ["--output", str(out)]) == 2
    assert f"config error: {key}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_cross_key_message_quotes_si_values_as_written(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["quantum", "optimize", "--set", "units=SI", "--set", "optimize.sigma_lo=1e-33 J",
                 "--set", "optimize.sigma_hi=5e-34 J", "--output", str(out)])
    assert code == 2
    assert "got 1e-33 J and 5e-34 J" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("settings", [
    ["classical.dt=0.3"],
    ["units=SI", "classical.t_end=1 s", "classical.dt=0.3 s"],
    ["sweep.param=classical.dt", "sweep.values=0.001, 0.3"],
    ["classical.dt=0.25", "sweep.param=classical.t_end", "sweep.values=1, 1.1, 2"],
    ["classical.t_end=0.001"],
    ["sweep.param=classical.t_end", "sweep.values=1, 0.001"],
], ids=["dt", "dt-si", "sweep-dt", "sweep-t-end", "one-step", "sweep-one-step"])
def test_cli_rejects_partial_integration_step(tmp_path, capsys, settings):
    out = tmp_path / "x.csv"
    argv = ["classical", "trajectory"]
    for setting in settings:
        argv += ["--set", setting]
    code = main(argv + ["--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error: classical.t_end: must be a whole number of classical.dt steps" in err
    assert "classical.dt = " in err
    assert err.count("config error") == 1
    assert not out.exists()


def test_cli_missing_config_file(tmp_path, capsys):
    code = main(["gedanken", "box", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2


def test_cli_runtime_error_exit(tmp_path, capsys):
    # a rest-clock optimizer bracket cannot reach the bound: bracket failure
    code = main(["quantum", "optimize", "--set", "quantum.p0=0",
                 "--set", "optimize.sigma_lo=0.05", "--set", "optimize.sigma_hi=1.0",
                 "--output", str(tmp_path / "x.csv")])
    assert code == 3
    assert "runtime error" in capsys.readouterr().err


def test_cli_kind_conflict_between_config_and_subcommand(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("kind = GEDANKEN_BOX\n")
    code = main(["gedanken", "efield", "--config", str(cfg_file)])
    assert code == 2


def test_cli_determinism_byte_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["classical", "brackets", "--set", "brackets.points=4", "--seed", "9"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_seeds_keep_every_bit_up_to_the_top_of_the_key_range(tmp_path):
    """A seed above 2**53 keys its own Philox stream, not a float-rounded
    neighbour's, and 2**64 - 1 is a valid key."""
    rows = {}
    for seed in (2**53, 2**53 + 1, 2**64 - 1):
        out = tmp_path / f"{seed}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["classical", "brackets", "--set", "brackets.points=2",
                         "--seed", str(seed), "--output", str(out)]) == 0
        rows[seed] = out.read_bytes()
    assert len(set(rows.values())) == 3


_SHORT_RUN = "classical.t_end = 2\nclassical.dt = 1e-2\n"
_HELD = ("classical.metric = uniform_lapse\nclassical.lapse_g = 0.05\nclassical.p1 = 0\n"
         "classical.hold = 1\n")


@pytest.mark.parametrize("kind, base, sweep", [
    ("QUANTUM_BOUND_SWEEP", "", "sweep.param = quantum.sigma_e\nsweep.values = 0.1, 0.5, 2.0\n"),
    ("GEDANKEN_BOX", "",
     "sweep.param = box.dq\nsweep.min = 1e-7\nsweep.max = 1e-5\nsweep.count = 8\n"),
    ("CLASSICAL_TRAJECTORY", _SHORT_RUN + "classical.p2 = 0.1\n",
     "sweep.param = classical.p1\nsweep.values = 0.2, 0.45, 0.7, 0.9\n"),
    ("CLASSICAL_TRAJECTORY", _SHORT_RUN + _HELD,
     "sweep.param = classical.x1\nsweep.values = 0.5, 1.5, 3.0\n"),
    ("CLASSICAL_TRAJECTORY", _SHORT_RUN + "classical.metric = uniform_lapse\n",
     "sweep.param = classical.lapse_g\nsweep.values = 0.01, 0.04, 0.08\n"),
], ids=["quantum-bound", "gedanken-box", "classical-flat-p1", "classical-held-x1",
        "classical-lapse-g"])
def test_sweep_matches_member_runs(tmp_path, kind, base, sweep):
    cfg, out = _cfg(tmp_path, kind, base + sweep, name="sweep.csv")
    report = run(cfg)
    sweep_lines = out.read_text().splitlines()
    expected_lines = None
    worst = {}
    for i, value in enumerate(cfg.sweep.values):
        member_cfg, member_out = _cfg(tmp_path, kind, base + f"{cfg.sweep.param} = {value!r}\n",
                                      name=f"member{i}.csv")
        member_report = run(member_cfg)
        header, *rows = member_out.read_text().splitlines()
        if expected_lines is None:
            expected_lines = ["sweep_value," + header]
        expected_lines += [f"{value:.14e}," + row for row in rows]
        for c in member_report.checks:
            if c.name not in worst or c.measured > worst[c.name].measured:
                worst[c.name] = c
    assert sweep_lines == expected_lines
    assert {c.name: c for c in report.checks} == worst


def test_one_evolve_per_reading(tmp_path, monkeypatch):
    # and one moment pass per state: one tau transform per reading plus one
    # per state, one dilation multiplier and one |psi|^2 per state
    import clocklab.moments as moments
    from clocklab.states import MomentumSpaceState
    evolve = moments.evolve
    times = []

    def counting_evolve(state, t):
        if t != 0.0:
            times.append(t)
        return evolve(state, t)

    monkeypatch.setattr(moments, "evolve", counting_evolve)
    transforms = _count_calls(monkeypatch, moments, "tau_statistics")
    dilations = _count_calls(monkeypatch, moments, "dilation_multiplier")
    densities = _count_calls(monkeypatch, MomentumSpaceState, "density")
    cfg, _ = _cfg(tmp_path, "QUANTUM_BOUND_SWEEP",
                  "sweep.param = quantum.sigma_e\nsweep.values = 0.1, 0.5, 2.0\n",
                  name="bound.csv")
    assert run(cfg).all_passed
    assert times == [100.0] * 3
    assert (len(transforms), len(dilations), len(densities)) == (6, 3, 3)
    for calls in (times, transforms, dilations, densities):
        calls.clear()
    cfg, _ = _cfg(tmp_path, "QUANTUM_MOMENTS", "quantum.times = 0, 1, 10\n", name="moments.csv")
    assert run(cfg).all_passed
    assert times == [1.0, 10.0]
    assert (len(transforms), len(dilations), len(densities)) == (3, 1, 1)


def test_quantum_moments_snapshot_export(tmp_path):
    snap = tmp_path / "state.csv"
    cfg, out = _cfg(tmp_path, "QUANTUM_MOMENTS",
                    f"quantum.times = 0, 1\nquantum.snapshot = {snap}\n")
    run(cfg)
    lines = snap.read_text().splitlines()
    assert lines[0] == "axis,coordinate,density"
    e_rows = [l.split(",") for l in lines[1:] if l.startswith("E,")]
    p_rows = [l.split(",") for l in lines[1:] if l.startswith("p,")]
    assert len(e_rows) >= 1024 and len(p_rows) >= 256
    # each marginal integrates to one on its own axis
    e_coords = np.array([float(r[1]) for r in e_rows])
    e_dens = np.array([float(r[2]) for r in e_rows])
    de = e_coords[1] - e_coords[0]
    assert e_dens.sum() * de == pytest.approx(1.0, abs=1e-10)


def _count_calls(monkeypatch, module, name: str) -> list:
    """Record the arguments of every call to ``module.name``."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_one_hamiltonian_pass_per_trajectory(tmp_path, monkeypatch):
    # one vectorized pass over all samples of each integrated batch
    import clocklab.dynamics as dynamics
    calls = _count_calls(monkeypatch, dynamics, "total_hamiltonian")
    cfg, _ = _cfg(tmp_path, "CLASSICAL_TRAJECTORY", _SHORT_RUN)
    report = run(cfg)
    assert report.all_passed
    assert report.rows_written == 201
    assert [args[0].shape for args in calls] == [(201, 1, 10)]
    calls.clear()
    cfg, _ = _cfg(tmp_path, "CLASSICAL_TRAJECTORY",
                  _SHORT_RUN + "sweep.param = classical.p1\nsweep.values = 0.2, 0.4, 0.6, 0.8\n")
    assert run(cfg).all_passed
    assert [args[0].shape for args in calls] == [(201, 4, 10)]
    calls.clear()
    cfg, _ = _cfg(tmp_path, "CLASSICAL_TRAJECTORY", _SHORT_RUN + "classical.metric = uniform_lapse\n"
                  "sweep.param = classical.lapse_g\nsweep.values = 0.01, 0.02\n")
    assert run(cfg).all_passed
    assert [args[0].shape for args in calls] == [(201, 1, 10)] * 2


def test_sweep_integrates_as_one_batch(tmp_path, monkeypatch):
    import clocklab.dynamics as dynamics
    vector_calls = _count_calls(monkeypatch, dynamics, "_rhs_vector")
    float_calls = _count_calls(monkeypatch, dynamics, "_rhs_floats")
    # one integration of the whole batch: the stationary flat flow takes one
    # (4, 10) RHS evaluation; under a lapse each member steps on floats, four
    # stage evaluations per RK4 step
    for metric, vector_shapes, stages in (("uniform_lapse", [], 4 * 200 * 4),
                                          ("flat", [(4, 10)], 0)):
        vector_calls.clear()
        float_calls.clear()
        cfg, _ = _cfg(tmp_path, "CLASSICAL_TRAJECTORY",
                      "classical.t_end = 0.2\nclassical.dt = 1e-3\n"
                      f"classical.metric = {metric}\nclassical.lapse_g = 0.05\n"
                      "sweep.param = classical.p1\nsweep.values = 0.2, 0.4, 0.6, 0.8\n")
        report = run(cfg)
        assert report.all_passed and report.diagnostics["batch_members"] == 4
        assert [args[0].shape for args in vector_calls] == vector_shapes
        assert len(float_calls) == stages


# sha256 of each scenario's CSV at its default config, recorded before the
# Dirac brackets moved to one gradient matrix per point (the three quantum
# ones re-recorded when readings moved to the co-moving frame and the law's
# quad coefficient to a centred moment, which move the last digits of
# mean_tau, var_tau_sim, var_tau_law and quad, and again when the grid sums
# moved from BLAS dot products to einsum, which moves the last digits of
# every quantum column, and the moments and bound ones again when sharpness
# moved to a centred H spread, which moves only that column); a change to
# any of them must be justified in CHANGES.md.
GOLDEN_CSV_SHA256 = {
    ("gedanken", "box"): "ba3f2e47f9571ed247c570a49564d3c9a32e08a3618991dbdf82ddc2e5926b63",
    ("gedanken", "efield"): "7c4cf442d9d227228fdfd5b6183e6a8216a0abf370beb88d9dd945b352f93116",
    ("classical", "trajectory"):
        "954fd1869f7e4717491064471a419359e8bbd3eee953eadedfd3b23247554eae",
    ("classical", "brackets"): "16c0f3de7af22263db6e15ce1153b03334a9ff27c8ad5d3bd4f39c6da8d566ac",
    ("quantum", "moments"): "ba9dd5d30922ce88774d9f4ae16cb4bec31d5e35880502a6cf5df9f8f945722a",
    ("quantum", "bound"): "106b33de546670cee87c15ec15b4158f3e103d0e69195af5c68dc92b6dba1dec",
    ("quantum", "optimize"): "e4761307bd6a1f28d9bc277e444c3a1bf231db57786bf3360e98e9ac6a2d5134",
}


@pytest.mark.parametrize("group, sub", list(GOLDEN_CSV_SHA256),
                         ids=[f"{g}-{s}" for g, s in GOLDEN_CSV_SHA256])
def test_default_scenario_csv_matches_golden_digest(tmp_path, group, sub):
    out = tmp_path / "default.csv"
    assert main([group, sub, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV_SHA256[(group, sub)]


# Every golden digest run in one child process with OpenBLAS held to one
# thread: the CSV bytes must not depend on the BLAS thread count.
_GOLDEN_DIGESTS_SCRIPT = """
import hashlib, sys, tempfile
from pathlib import Path
from clocklab.cli import main
with tempfile.TemporaryDirectory() as work:
    for group, sub in (arg.split("-") for arg in sys.argv[1:]):
        out = Path(work) / f"{group}-{sub}.csv"
        assert main([group, sub, "--output", str(out)]) == 0
        print("sha256", group, sub, hashlib.sha256(out.read_bytes()).hexdigest())
"""


def test_golden_digests_hold_on_one_blas_thread():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _GOLDEN_DIGESTS_SCRIPT] + [f"{g}-{s}" for g, s in GOLDEN_CSV_SHA256],
        env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    got = {(group, sub): digest for tag, group, sub, digest
           in (line.split() for line in done.stdout.splitlines() if line.startswith("sha256 "))}
    assert got == GOLDEN_CSV_SHA256


# The SI dimension of every dimensioned CSV column; the others carry no unit.
_COLUMN_DIMS = {
    "delta_q": "length", "t": "time", "g": "acceleration", "v": "speed",
    "delta_p": "momentum", "delta_m": "mass", "delta_tau": "time",
    "tau": "time", "p_tau": "energy", "M": "energy", "p_M": "time",
    "x1": "length", "x2": "length", "x3": "length",
    "p1": "momentum", "p2": "momentum", "p3": "momentum",
    "phi1": "energy", "phi2": "time", "H": "energy",
    "mean_tau": "time", "var_tau_sim": "time^2", "var_tau_law": "time^2", "lin": "time",
    "const": "time^2", "bound": "time^2", "sigma_e": "energy", "var_tau": "time^2",
}


@pytest.mark.parametrize("group, sub", list(GOLDEN_CSV_SHA256),
                         ids=[f"{g}-{s}" for g, s in GOLDEN_CSV_SHA256])
def test_si_default_run_is_the_natural_default_in_si(tmp_path, group, sub):
    """Defaults are natural-unit values, so an SI run that takes them is the
    default scenario, written in SI."""
    natural, si = tmp_path / "natural.csv", tmp_path / "si.csv"
    assert main([group, sub, "--output", str(natural)]) == 0
    assert main([group, sub, "--set", "units=SI", "--output", str(si)]) == 0
    header, *natural_rows = [line.split(",") for line in natural.read_text().splitlines()]
    si_header, *si_rows = [line.split(",") for line in si.read_text().splitlines()]
    assert si_header == header and len(si_rows) == len(natural_rows)
    for name, column in zip(header, zip(*natural_rows), strict=True):
        si_column = [row[header.index(name)] for row in si_rows]
        if name not in _COLUMN_DIMS:
            assert si_column == list(column), name
            continue
        base, _, power = _COLUMN_DIMS[name].partition("^")
        factor = convert_units(1.0, base, NATURAL_UNITS, SI_UNITS) ** int(power or 1)
        assert [float(cell) for cell in si_column] == pytest.approx(
            [float(cell) * factor for cell in column], rel=1e-12, abs=0.0), name


def test_bracket_rule_checks_each_sweep_member(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["quantum", "optimize", "--set", "optimize.sigma_lo=0.5",
                 "--set", "sweep.param=optimize.sigma_hi", "--set", "sweep.values=2, 0.1",
                 "--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("config error") == 1
    assert "config error: optimize.sigma_lo: must be" in err
    assert "got 0.5 and 0.1" in err
    assert not out.exists()


@pytest.mark.parametrize("settings, written", [
    (["classical.lapse_g=0.08", "classical.x1=-20"],
     "classical.lapse_g = 0.08 and classical.x1 = -20.0"),
    (["classical.lapse_g=0.08", "classical.x1=-12.5"],
     "classical.lapse_g = 0.08 and classical.x1 = -12.5"),
    (["units=SI", "classical.lapse_g=9.8", "classical.x1=-1e16"],
     "classical.lapse_g = 9.8 m/s^2 and classical.x1 = -1e+16 m"),
], ids=["below", "on-horizon", "si"])
def test_cli_start_below_the_lapse_horizon_is_a_config_error(tmp_path, capsys, settings,
                                                             written):
    """A uniform_lapse clock that starts where 1 + g x1 / c^2 <= 0 exits 2
    naming classical.x1, quoting the values as written, and writes nothing."""
    out = tmp_path / "x.csv"
    argv = ["classical", "trajectory", "--set", "classical.metric=uniform_lapse"]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: classical.x1: must start where the lapse" in err
    assert f"got {written}" in err
    assert not out.exists()


@pytest.mark.parametrize("settings, written", [
    (["classical.m=1e-200", "classical.p1=0"],
     "classical.m = 1e-200, classical.p1 = 0.0, classical.p2 = 0.0 and classical.p3 = 0.0"),
    (["units=SI", "classical.m=1e-200 J", "classical.p1=0"],
     "classical.m = 1e-200 J, classical.p1 = 0.0 kg*m/s, classical.p2 = 0.0 kg*m/s and "
     "classical.p3 = 0.0 kg*m/s"),
], ids=["natural", "si"])
def test_cli_rest_energy_too_small_to_square_is_a_config_error(tmp_path, capsys, settings,
                                                              written):
    """A clock whose m^2 underflows to 0 at zero momentum has no kinetic
    root: it exits 2 naming classical.m, quoting the values as written, and
    writes nothing."""
    out = tmp_path / "x.csv"
    argv = ["classical", "trajectory"]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: classical.m: m^2 + p1^2 + p2^2 + p3^2 must be positive" in err
    assert f"got {written}" in err
    assert not out.exists()


@pytest.mark.parametrize("sub, settings, key", [
    ("moments", ["quantum.e0=0"], "quantum.e0"),
    ("optimize", ["quantum.e0=0.5", "quantum.p0=0"], "quantum.e0"),
    ("moments", ["quantum.times=0,1e7"], "quantum.times"),
], ids=["moments-tip", "optimize-tip", "moments-e-grid"])
def test_cli_refused_clock_state_is_a_config_error(tmp_path, capsys, sub, settings, key):
    """A clock state the runtime refuses (support at the cone tip, or an E
    grid too large to build) exits 2 naming the key, and writes nothing."""
    out, snapshot = tmp_path / "x.csv", tmp_path / "snapshot.csv"
    argv = ["quantum", sub]
    for setting in settings + ([f"quantum.snapshot={snapshot}"] if sub == "moments" else []):
        argv += ["--set", setting]
    code = main(argv + ["--output", str(out)])
    assert code == 2
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not out.exists() and not snapshot.exists()
