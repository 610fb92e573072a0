import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import clocklab
from clocklab.brackets import flow_tolerance
from clocklab.cli import main
from clocklab.config import parse_config
from clocklab.csvio import FloatBlock, emit_csv
from clocklab.runner import _TRAJ_COLS, _check, _si_factor, _to_si, run
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


def _cell_path_bytes(rows, header, path) -> bytes:
    """The bytes of ``rows`` written cell by cell: every FloatBlock unrolled
    into mixed rows."""
    unrolled = []
    for row in rows:
        unrolled += ([[*row.lead, *cells] for cells in row.matrix.tolist()]
                     if isinstance(row, FloatBlock) else [row])
    emit_csv(unrolled, header, path)
    return Path(path).read_bytes()


def test_emit_csv_float_blocks_match_cell_path(tmp_path):
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((5000, 7)) * 10.0 ** rng.integers(-300, 300, (5000, 7))
    matrix[0, :4] = [0.0, -0.0, np.inf, np.nan]
    # constant columns, formatted once per block: a plain one, -0.0, and one
    # that is constant in the first block only (its last row differs)
    matrix[:, 4], matrix[:, 5], matrix[:4097, 6] = 2.5e-300, -0.0, 1.0 / 3.0
    header = ["lead", "a", "b", "c", "d", "e", "f", "g"]
    fast = tmp_path / "fast.csv"
    blocks = [FloatBlock((0.25,), matrix[:4097]), [7, "x|y", True, -1.5, 2.0, 3.0, 4.0, 5.0],
              FloatBlock((-3e-7,), matrix[4097:])]
    assert emit_csv(blocks, header, fast) == 5001
    assert fast.read_bytes() == _cell_path_bytes(blocks, header, tmp_path / "cells.csv")
    with pytest.raises(ValueError, match="row 0 has 7 cells, header has 8"):
        emit_csv([FloatBlock((), matrix)], header, tmp_path / "bad.csv")


# quiet NaNs of three payloads: they format alike but never share a cell
_NAN_PAYLOADS = np.array([0x7FF8000000000000, 0x7FF80000DEADBEEF, 0xFFF8000000000001],
                         dtype=np.uint64).view(np.float64).tolist()
_FLOAT_CELLS = (st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, 1.0 / 3.0, *_NAN_PAYLOADS])
                | st.floats())


@st.composite
def _float_blocks(draw):
    """1-3 FloatBlocks of one width, with 0-6 rows each, whose columns are
    constant (one drawn cell repeated) or drawn cell by cell, in a C,
    Fortran or strided layout, or scaled in place by runner._to_si."""
    width = draw(st.integers(1, 5))
    lead_cells = st.text(alphabet="ab%s.|-", max_size=4) | st.integers() | _FLOAT_CELLS
    n_lead = draw(st.integers(0, 2))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 6))
        columns = [[draw(_FLOAT_CELLS)] * n if draw(st.booleans())
                   else draw(st.lists(_FLOAT_CELLS, min_size=n, max_size=n))
                   for _ in range(width)]
        matrix = np.array(columns, dtype=float).reshape(width, n).T
        layout = draw(st.sampled_from(["c", "fortran", "strided", "si"]))
        if layout == "c":
            matrix = np.ascontiguousarray(matrix)
        elif layout == "fortran":
            matrix = np.asfortranarray(matrix)
        elif layout == "strided":
            wide = np.zeros((2 * n, 2 * width))
            wide[::2, ::2] = matrix
            matrix = wide[::2, ::2]
        else:
            matrix = _to_si(np.ascontiguousarray(matrix),
                            [_si_factor(dim) for _, dim in _TRAJ_COLS[:width]])
        blocks.append(FloatBlock(tuple(draw(lead_cells) for _ in range(n_lead)), matrix))
    return blocks


@given(blocks=_float_blocks())
@example(blocks=[FloatBlock((), np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]))])
@example(blocks=[FloatBlock((), np.array([_NAN_PAYLOADS, [np.inf, -np.inf, np.nan]]).T)])
@example(blocks=[FloatBlock(("a%sb", 1), np.full((5, 3), -2.5)),
                 FloatBlock(("%%", 2), np.array([[1.0, -0.0, np.nan]])),
                 FloatBlock(("%(x)s", 3), np.empty((0, 3)))])
@example(blocks=[FloatBlock((0.5,), np.arange(12.0).reshape(3, 4).T[:, ::2])])
@settings(max_examples=150, deadline=None)
def test_float_blocks_with_constant_columns_write_the_cell_path_bytes(tmp_path_factory, blocks):
    """A FloatBlock writes exactly the bytes of its rows written cell by
    cell, whichever of its columns hold one bit pattern throughout."""
    out = tmp_path_factory.mktemp("blocks")
    header = [f"c{i}" for i in range(len(blocks[0].lead) + blocks[0].matrix.shape[1])]
    assert emit_csv(blocks, header, out / "fast.csv") == sum(len(b.matrix) for b in blocks)
    assert (out / "fast.csv").read_bytes() == _cell_path_bytes(blocks, header, out / "cells.csv")


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
    # At dt = 1e-5 the second derivatives of the samples round to about
    # 6e-5 here, above the fixed 1e-6; the tolerance follows the rounding bound.
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
    assert [c.name for c in report.checks] == ["dirac_table", "dirac_flow", "reduced_pair"]


@pytest.mark.parametrize("settings", [[], ["brackets.h_step=1e-3"]], ids=["default", "coarse"])
def test_brackets_flow_check_passes(tmp_path, capsys, settings):
    """Every bracket run checks the rates of the dynamics against the Dirac
    flow of the total Hamiltonian, at a tolerance that follows the step."""
    out = tmp_path / "x.csv"
    argv = ["classical", "brackets"]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv + ["--output", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "[PASS] dirac_flow: " in printed and "[PASS] reduced_pair: " in printed
    checks = {c["name"]: c for c in
              json.loads(out.with_suffix(".report.json").read_text())["checks"]}
    h_step = 1e-3 if settings else 1e-5
    assert checks["dirac_flow"]["tolerance"] == flow_tolerance(h_step)
    assert 0.0 < checks["dirac_flow"]["measured"] < checks["dirac_flow"]["tolerance"]


def test_brackets_flow_check_fails_a_mutant_lapse_gradient(tmp_path, capsys, monkeypatch):
    """Rates whose lapse gradient is off by 1e-6 relative fail the flow check
    (H reads the lapse, only the rates its gradient), and the CSV still holds
    the table."""
    import clocklab.runner as runner
    from oracles import lapse_gradient_off

    monkeypatch.setattr(runner, "_FLOW_METRIC", lapse_gradient_off(runner._FLOW_METRIC, 1e-6))
    out = tmp_path / "x.csv"
    assert main(["classical", "brackets", "--output", str(out)]) == 1
    printed = capsys.readouterr().out
    assert "[FAIL] dirac_flow: " in printed
    assert "[PASS] dirac_table: " in printed and "[PASS] reduced_pair: " in printed
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV_SHA256[
        ("classical", "brackets")]


@pytest.mark.parametrize("scale", ["1e-300", "1e-160", "1e150", "1e300"])
def test_cli_extreme_bracket_scales_run_every_check(tmp_path, capsys, scale):
    """At any scale the probes may take, every bracket check reads a finite
    value and passes: the flow check runs at the probes divided by the
    scale, so no square in H overflows or underflows."""
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["classical", "brackets", "--set", f"brackets.scale={scale}",
                     "--set", "brackets.points=10", "--output", str(out)])
    assert code == 0, capsys.readouterr().err
    checks = json.loads(out.with_suffix(".report.json").read_text())["checks"]
    assert [c["name"] for c in checks] == ["dirac_table", "dirac_flow", "reduced_pair"]
    assert all(c["passed"] and math.isfinite(c["measured"]) for c in checks)


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
    assert report.diagnostics == {"n_e": 128, "n_p": 128}
    # a sweep reports the largest grid of its members
    cfg, _ = _cfg(tmp_path, "QUANTUM_MOMENTS", "quantum.times = 0, 3000\n"
                  "sweep.param = quantum.sigma_p\nsweep.values = 0.5, 1.0\n", name="s.csv")
    report = run(cfg)
    assert report.all_passed
    assert "tau_window" in {c.name for c in report.checks}
    assert report.diagnostics == {"n_e": 4096, "n_p": 128}


def test_report_json_contents(tmp_path):
    cfg, out = _cfg(tmp_path, "GEDANKEN_EFIELD")
    run(cfg)
    payload = json.loads(out.with_suffix(".report.json").read_text())
    assert payload["all_passed"] is True
    assert payload["scenario"]["kind"] == "GEDANKEN_EFIELD"
    assert payload["checks"][0]["name"] == "product_ratio"
    assert payload["diagnostics"] == {}
    # quantum runs report the grid they used: a rest clock read at t = 1000
    # needs only the residual drift in its tau window, so n_e is 512 (sized
    # for the whole drift t <D>, it would be 8192)
    cfg, out = _cfg(tmp_path, "QUANTUM_MOMENTS", "quantum.times = 0, 1000\n", name="q.csv")
    run(cfg)
    payload = json.loads(out.with_suffix(".report.json").read_text())
    assert payload["diagnostics"] == {"n_e": 512, "n_p": 128}
    # every report says how long it computed and wrote, and with what; a
    # quantum run also splits compute_s into its build, moments and reading
    # phases
    assert set(payload["timings"]) == {"compute_s", "build_s", "moments_s", "read_s",
                                       "write_s"}
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
    ("classical", "brackets", ["brackets.h_step=1"], "brackets.h_step"),
    ("classical", "brackets", ["brackets.scale=1e308"], "brackets.scale"),
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
], ids=["bound-t", "optimize-t", "box-dq", "efield-v", "efield-v-si", "h-step", "scale",
        "h-step-above", "scale-above", "dt",
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
    ("moments", ["grid.e.n=65536", "quantum.times=0,1"], "grid.e.n",
     "must be at most 32768, got 65536"),
    ("moments", ["grid.p.n=65536"], "grid.p.n", "must be at most 32768, got 65536"),
], ids=["p-not-grid-size", "e-not-power-of-two", "e-above-max", "p-above-max"])
def test_cli_rejects_grid_counts_that_cannot_hold_the_state(tmp_path, capsys, sub, settings,
                                                            key, message):
    out = tmp_path / "x.csv"
    argv = ["quantum", sub]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv + ["--output", str(out)]) == 2
    assert f"config error: {key}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sub, settings, grids", [
    ("bound", ["grid.e.n=8", "quantum.sigma_e=0.05"], {"n_e": 128, "n_p": 128}),
    ("optimize", ["grid.p.n=64"], {"n_e": 1024, "n_p": 128}),
    ("moments", ["grid.e.n=2048", "grid.p.n=256"], {"n_e": 2048, "n_p": 256}),
], ids=["e-too-coarse", "optimize-p-too-coarse", "floors-above-the-rule"])
def test_grid_floors_below_the_accuracy_rule_are_raised(tmp_path, sub, settings, grids):
    # grid.e.n and grid.p.n are floors: one too coarse to resolve the state
    # is raised to the size the accuracy rule needs, and one above it is kept
    out = tmp_path / "x.csv"
    argv = ["quantum", sub]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv + ["--output", str(out)]) == 0
    assert json.loads(out.with_suffix(".report.json").read_text())["diagnostics"] == grids


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
    ["classical.t_end=0.002"],
    ["classical.t_end=0.003"],
    ["sweep.param=classical.t_end", "sweep.values=1, 0.001"],
], ids=["dt", "dt-si", "sweep-dt", "sweep-t-end", "one-step", "two-steps", "three-steps",
        "sweep-one-step"])
def test_cli_rejects_partial_integration_step(tmp_path, capsys, settings):
    """A partial step, or fewer than the four steps the five-point rate
    audit needs, is a config error naming classical.t_end."""
    out = tmp_path / "x.csv"
    argv = ["classical", "trajectory"]
    for setting in settings:
        argv += ["--set", setting]
    code = main(argv + ["--output", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert ("config error: classical.t_end: must be a whole number of classical.dt steps, "
            "at least 4") in err
    assert "classical.dt = " in err
    assert err.count("config error") == 1
    assert not out.exists()


def test_cli_four_steps_run_every_trajectory_audit(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["classical", "trajectory", "--set", "classical.t_end=0.004",
                 "--output", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 6


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
    grids = json.loads(out.with_suffix(".report.json").read_text())["diagnostics"]
    assert (len(e_rows), len(p_rows)) == (grids["n_e"], grids["n_p"])
    # each marginal integrates to one on its own axis
    e_coords = np.array([float(r[1]) for r in e_rows])
    e_dens = np.array([float(r[2]) for r in e_rows])
    de = e_coords[1] - e_coords[0]
    assert e_dens.sum() * de == pytest.approx(1.0, abs=1e-10)


def test_bound_member_takes_one_transform_per_reading(tmp_path, monkeypatch):
    # the reading is one forward transform along E (Parseval sums), and the
    # moment pass one forward and the one inverse its cross term needs
    forward = _count_calls(monkeypatch, np.fft, "fft")
    inverse = _count_calls(monkeypatch, np.fft, "ifft")
    cfg, _ = _cfg(tmp_path, "QUANTUM_BOUND_SWEEP", "quantum.t = 100\n")
    assert run(cfg).all_passed
    assert (len(forward), len(inverse)) == (1 + 1, 1)
    assert all(args[0].shape == (128, 128) for args in forward + inverse)


def test_quantum_member_takes_abs_of_psi_once(tmp_path, monkeypatch):
    # the build takes |psi| once, for the boundary check, the peak the tip
    # check compares with and the density the moment pass weighs by; the
    # tip check takes it again only on the cells near E = p = 0, which this
    # grid holds (E spans -1 to 11)
    calls = _count_calls(monkeypatch, np, "abs")
    cfg, out = _cfg(tmp_path, "QUANTUM_MOMENTS", "quantum.e0 = 5\nquantum.times = 0, 1\n")
    assert run(cfg).all_passed
    grids = json.loads(out.with_suffix(".report.json").read_text())["diagnostics"]
    full = [args[0].shape for args in calls if np.ndim(args[0]) == 2]
    assert full == [(grids["n_e"], grids["n_p"])]
    assert any(np.ndim(args[0]) == 1 for args in calls)


@pytest.mark.parametrize("kind, body", [
    ("QUANTUM_MOMENTS", "quantum.times = 0, 10, 100\n"),
    ("QUANTUM_BOUND_SWEEP", "sweep.param = quantum.sigma_e\nsweep.values = 0.5, 1.0, 2.0\n"),
    ("QUANTUM_OPTIMIZE", ""),
])
def test_quantum_reports_time_build_moments_and_readings(tmp_path, kind, body):
    cfg, out = _cfg(tmp_path, kind, body)
    assert run(cfg).all_passed
    timings = json.loads(out.with_suffix(".report.json").read_text())["timings"]
    phases = [timings[name] for name in ("build_s", "moments_s", "read_s")]
    assert all(isinstance(v, float) and math.isfinite(v) and v >= 0.0 for v in phases)
    # phases are summed over the members, and all of them lie inside compute_s
    assert sum(phases) <= timings["compute_s"]
    assert timings["read_s"] > 0.0 and timings["build_s"] > 0.0


def test_fast_free_clocks_pass_the_rate_audit_above_its_rounding(tmp_path):
    # dx/dt from differenced samples carries rounding of about eps |x| / dt,
    # which the metric rate of a clock at rate 1e-4 or 1e-5 magnifies past
    # 1e-8; the audit's floor tracks it, and the clock is exact to rounding
    for p1 in ("1e4", "1e5"):
        out = tmp_path / f"fast-{p1}.csv"
        assert main(["classical", "trajectory", "--set", f"classical.p1={p1}",
                     "--output", str(out)]) == 0
        checks = json.loads(out.with_suffix(".report.json").read_text())["checks"]
        rate = next(c for c in checks if c["name"] == "proper_time_residual")
        assert rate["passed"] and 1e-8 < rate["tolerance"] < 1e-6


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
    for metric, vector_shapes, stages in (
            ("classical.metric = uniform_lapse\nclassical.lapse_g = 0.05\n", [], 4 * 200 * 4),
            ("classical.metric = flat\n", [(4, 10)], 0)):
        vector_calls.clear()
        float_calls.clear()
        cfg, _ = _cfg(tmp_path, "CLASSICAL_TRAJECTORY",
                      "classical.t_end = 0.2\nclassical.dt = 1e-3\n" + metric +
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
# moved to a centred H spread, which moves only that column, and all three
# when readings became Parseval sums over an E-contiguous spectrum and the
# cross term was measured from the frame rate, which moves the last digits
# of every quantum column, and all three when the grid sizes came from the
# accuracy rule alone, which moves the last digits of every quantum column);
# a change to any of them must be justified in CHANGES.md.
GOLDEN_CSV_SHA256 = {
    ("gedanken", "box"): "ba3f2e47f9571ed247c570a49564d3c9a32e08a3618991dbdf82ddc2e5926b63",
    ("gedanken", "efield"): "7c4cf442d9d227228fdfd5b6183e6a8216a0abf370beb88d9dd945b352f93116",
    ("classical", "trajectory"):
        "954fd1869f7e4717491064471a419359e8bbd3eee953eadedfd3b23247554eae",
    ("classical", "brackets"): "16c0f3de7af22263db6e15ce1153b03334a9ff27c8ad5d3bd4f39c6da8d566ac",
    ("quantum", "moments"): "561abc2b2aa33c269ba9398da9bcaf7a758ce93cd8eb2a9443a4ed2a5904cf94",
    ("quantum", "bound"): "57a77d2e17995f73ac24ac1811253518f1d323d33fc8ab9c1fe34b651202897e",
    ("quantum", "optimize"): "7df50b4cc39c23721de781e88583746ab780383673404c2d77411ed0bda76530",
}


@pytest.mark.parametrize("group, sub", list(GOLDEN_CSV_SHA256),
                         ids=[f"{g}-{s}" for g, s in GOLDEN_CSV_SHA256])
def test_default_scenario_csv_matches_golden_digest(tmp_path, group, sub):
    out = tmp_path / "default.csv"
    assert main([group, sub, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV_SHA256[(group, sub)]


def test_uniform_lapse_at_zero_is_the_flat_stationary_flow(tmp_path):
    """At lapse_g = 0 (the default) a uniform_lapse clock is the flat one: the
    same CSV bytes, one RHS evaluation and the tau_final check."""
    out = tmp_path / "x.csv"
    assert main(["classical", "trajectory", "--set", "classical.metric=uniform_lapse",
                 "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV_SHA256[
        ("classical", "trajectory")]
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert report["diagnostics"]["rhs_evals"] == 1
    assert "tau_final" in {c["name"] for c in report["checks"]}


# Every golden digest run in one child process with OpenBLAS held to one
# thread: the CSV bytes must not depend on the BLAS thread count.
_GOLDEN_DIGESTS_SCRIPT = """
import hashlib, sys, tempfile
from pathlib import Path
from clocklab.brackets import flow_tolerance
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


@pytest.mark.parametrize("settings, code, message", [
    (["classical trajectory", "classical.lapse_g=0.5"], 2,
     "config error: classical.lapse_g: must be 0 under classical.metric = flat, got 0.5"),
    (["classical trajectory", "sweep.param=classical.lapse_g", "sweep.values=0, 0.5"], 2,
     "config error: classical.lapse_g: must be 0 under classical.metric = flat, got 0.5"),
    (["classical trajectory", "classical.tau0=1e13"], 1, "[FAIL] motion_residual: measured=inf"),
    (["classical trajectory", "classical.a0_slope=1e18", "classical.charge=1"], 1,
     "[FAIL] motion_residual: measured=inf"),
    (["classical trajectory", "classical.metric=uniform_lapse", "classical.lapse_g=5",
      "classical.p1=-1e8"], 1, "[FAIL] motion_residual: measured=inf"),
    (["classical trajectory", "classical.metric=uniform_lapse", "classical.lapse_g=0.05",
      "classical.tau0=1e13", "classical.p1=0", "classical.t_end=1"], 1,
     "[FAIL] proper_time_residual: measured=1.281102e+00 tolerance=inf"),
    (["classical trajectory", "classical.metric=uniform_lapse", "classical.lapse_g=1e12",
      "classical.x1=1"], 2,
     "config error: classical.dt: too coarse, a step crossed the lapse horizon (lapse must "
     "stay positive; got -1.5"),
    (["quantum moments", "quantum.sigma_e=1e-300"], 2,
     "config error: quantum.sigma_e: grid needs finite lo < hi on the E axis"),
    (["quantum moments", "quantum.e0=1e300"], 2,
     "config error: quantum.sigma_e: grid needs finite lo < hi on the E axis"),
    (["quantum bound", "quantum.p0=1e300"], 2,
     "config error: quantum.sigma_p: grid needs finite lo < hi on the p axis"),
    (["quantum optimize", "quantum.p0=1e300"], 2,
     "config error: quantum.sigma_p: grid needs finite lo < hi on the p axis"),
    (["quantum optimize", "quantum.e0=1e20", "quantum.p0=0", "quantum.t=1e30"], 2,
     "config error: optimize.sigma_lo: grid needs finite lo < hi on the E axis"),
], ids=["flat-lapse", "flat-lapse-sweep", "tau-stalls-at-tau0", "tau-stalls-under-force",
        "tau-stalls-under-lapse", "tau-rounds-under-lapse", "step-past-horizon",
        "sigma-e-rounds", "e0-rounds", "p0-rounds", "optimize-p0-rounds",
        "optimize-sigma-rounds"])
def test_cli_bad_inputs_end_in_a_config_error_or_a_failed_check(tmp_path, capsys, settings,
                                                                code, message):
    """Each input ends as a config error naming its key, with no CSV, or as
    a failed check; none in a runtime error."""
    out = tmp_path / "x.csv"
    argv = settings[0].split()
    for setting in settings[1:]:
        argv += ["--set", setting]
    assert main(argv + ["--output", str(out)]) == code
    captured = capsys.readouterr()
    assert message in captured.out + captured.err
    assert out.exists() == (code == 1)


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


@pytest.mark.parametrize("settings, written", [
    (["classical.m=1e-150", "classical.p1=0.5"],
     "classical.m = 1e-150, classical.p1 = 0.5, classical.p2 = 0.0 and classical.p3 = 0.0"),
    (["units=SI", "classical.m=1e-200 J"], "classical.m = 1e-200 J, classical.p1 = "),
], ids=["natural", "si"])
def test_cli_rest_energy_too_small_to_audit_is_a_config_error(tmp_path, capsys, settings,
                                                              written):
    """A clock whose rate m / sqrt(m^2 + |p|^2) cubes to 0 has no proper time
    for the motion audit to divide by: it exits 2 naming classical.m, before
    any arithmetic warns, and writes nothing."""
    out = tmp_path / "x.csv"
    argv = ["classical", "trajectory"]
    for setting in settings:
        argv += ["--set", setting]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: classical.m: the rate (m / sqrt(m^2 + p1^2 + p2^2 + p3^2))^3" in err
    assert f"got {written}" in err
    assert err.count("config error") == 1
    assert not out.exists()


def test_check_fails_against_a_tolerance_that_is_not_finite():
    for measured in (0.0, 1e300, np.inf, np.nan):
        result = _check("motion_residual", measured, floor=np.inf)
        assert not result.passed and result.tolerance == np.inf
    assert _check("motion_residual", 0.5, floor=1.0).passed
    assert not _check("motion_residual", np.nan).passed


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
