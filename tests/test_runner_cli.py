import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import clocklab
from clocklab.brackets import flow_tolerance
from clocklab.cli import main
from clocklab.config import parse_config
from clocklab.csvio import emit_csv
from clocklab.runner import _TRAJ_COLS, _check, _si_factor, _to_si, run
from clocklab.units import NATURAL_UNITS, SI_UNITS, convert_units
from oracles import reference_csv

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
    table = [np.full(3, 1), np.full(3, 2.0), np.full(3, "x"), np.full(3, True)]
    assert emit_csv([table], ["i", "f", "s", "flag"], path) == 3
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert lines[1] == "1,2.00000000000000e+00,x,1"


def test_emit_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match="table 1 is not 2 columns of one length"):
        emit_csv([[np.ones(2), np.ones(2)], [np.ones(3)]], ["a", "b"], tmp_path / "bad.csv")
    with pytest.raises(ValueError, match="table 0 is not 2 columns of one length"):
        emit_csv([[np.ones(2), np.ones(3)]], ["a", "b"], tmp_path / "bad.csv")


def test_emit_csv_tables_match_the_reference(tmp_path):
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((5000, 7)) * 10.0 ** rng.integers(-300, 300, (5000, 7))
    matrix[0, :4] = [0.0, -0.0, np.inf, np.nan]
    # constant columns, formatted once per table: a plain one, -0.0, and one
    # that is constant in the first table only (4097 rows, two chunks)
    matrix[:, 4], matrix[:, 5], matrix[:4097, 6] = 2.5e-300, -0.0, 1.0 / 3.0
    header = ["lead", "a", "b", "c", "d", "e", "f", "g"]
    # a float matrix's column views, led by a constant column as a sweep leads
    # them, and a table of mixed integer, str, bool and float columns
    tables = [[np.full(4097, 0.25), *matrix[:4097].T],
              [np.arange(3), np.array(["x|y", "a%sb", "x|y"]), np.array([True, False, True]),
               *np.full((5, 3), -1.5)],
              [np.full(903, -3e-7), *matrix[4097:].T]]
    fast = tmp_path / "fast.csv"
    assert emit_csv(tables, header, fast) == 5003
    assert fast.read_bytes() == reference_csv(tables, header)


# quiet NaNs of three payloads: they format alike but never share a cell
_NAN_PAYLOADS = np.array([0x7FF8000000000000, 0x7FF80000DEADBEEF, 0xFFF8000000000001],
                         dtype=np.uint64).view(np.float64).tolist()
_FLOAT_CELLS = (st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, 1.0 / 3.0, *_NAN_PAYLOADS])
                | st.floats())
# strings the csv module writes unquoted, '%' among them
_CELLS = {"float": _FLOAT_CELLS, "int": st.integers(-2**63, 2**63 - 1), "bool": st.booleans(),
          "str": st.text(alphabet="ab%s.|-()", min_size=1, max_size=4)}


@st.composite
def _tables(draw):
    """1-3 tables of one width, with 0-6 rows each, whose columns are float,
    integer, bool or str, constant (one drawn cell repeated) or drawn cell by
    cell; a float column is contiguous, a strided view into a wider matrix
    (as a trajectory's columns are), or scaled in place by runner._to_si."""
    kinds = draw(st.lists(st.sampled_from(list(_CELLS)), min_size=1, max_size=5))
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 6))
        table = []
        for i, kind in enumerate(kinds):
            cells = ([draw(_CELLS[kind])] * n if draw(st.booleans())
                     else draw(st.lists(_CELLS[kind], min_size=n, max_size=n)))
            column = np.array(cells, dtype={"float": float, "int": np.int64, "bool": bool,
                                            "str": str}[kind])
            layout = draw(st.sampled_from(["contiguous", "strided", "si"]))
            if kind == "float" and layout == "strided":
                wide = np.zeros((n, 3))
                wide[:, 1] = column
                column = wide[:, 1]
            elif kind == "float" and layout == "si":
                column = _to_si([column], [_si_factor(_TRAJ_COLS[i][1])])[0]
            table.append(column)
        tables.append(table)
    return tables


@given(tables=_tables())
@example(tables=[[np.array([0.0, -0.0, 0.0]), np.ones(3)]])
@example(tables=[[np.array(_NAN_PAYLOADS), np.array([np.inf, -np.inf, np.nan])]])
@example(tables=[[np.full(5, "a%sb"), np.full(5, 1), np.full(5, -2.5)],
                 [np.array(["%%"]), np.array([2]), np.array([np.nan])],
                 [np.array([], dtype=str), np.array([], dtype=int), np.array([])]])
@example(tables=[[np.array([0.5]), np.array(["%(x)s"]), np.array([False])]])
@example(tables=[[np.arange(12.0).reshape(3, 4).T[:, 0], np.array([7, 7, 7, -8])]])
@settings(max_examples=150, deadline=None)
def test_tables_with_constant_columns_write_the_reference_bytes(tmp_path_factory, tables):
    """A table writes exactly the bytes of its rows written cell by cell
    through csv.writer, whichever of its columns hold one value (for a float,
    one bit pattern) throughout, a one-row or zero-row table too."""
    out = tmp_path_factory.mktemp("tables") / "fast.csv"
    header = [f"c{i}" for i in range(len(tables[0]))]
    assert emit_csv(tables, header, out) == sum(len(table[0]) for table in tables)
    assert out.read_bytes() == reference_csv(tables, header)


def test_float_format_has_at_least_12_significant_digits(tmp_path):
    path = tmp_path / "prec.csv"
    emit_csv([[np.array([1.0 / 3.0])]], ["x"], path)
    cell = path.read_text().splitlines()[1]
    assert float(cell) == pytest.approx(1.0 / 3.0, rel=1e-14)


def _around(centres, steps=8):
    """Each centre and its ``steps`` nextafter neighbours on either side."""
    down = up = np.asarray(centres, dtype=float)
    cells = [down]
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        cells += [down, up]
    return np.concatenate(cells)


def _float_families():
    """At least 10^4 float cells from each family the fast float formatter
    must get right, or hand to '%.14e' itself."""
    rng = np.random.default_rng(28)
    decades = [float(f"1e{k}") for k in range(-323, 309)]
    specials = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, np.inf, -np.inf, np.nan]
    return {
        # NaN payloads, infinities, subnormals and every sign among them
        "bit-patterns": rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64),
        # a 5 in the 16th digit: an exact tie at 15 digits
        "16-digit-integers": (rng.integers(10**15, 9 * 10**15, 20000) * rng.choice([-1, 1], 20000)
                              ).astype(float),
        "half-integers": rng.integers(0, 2**52, 20000) + 0.5,
        # the doubles nearest to 15-digit ties at every scale, led by five whose
        # long double scaled value falls on the wrong side of the tie, 2^-16 to
        # 2^-14 from it (found by a search against exact fractions)
        "near-ties": np.array([4.412956524485885e-64, 4.312268597914515e-70,
                               9.588348071071115e+256, 2.665872858992425e+278,
                               9.052372674317815e-73] + [float(f"{n}5e{k}") for n, k in zip(
            rng.integers(10**14, 10**15, 20000).tolist(), rng.integers(-320, 290, 20000).tolist())]),
        # every 10^k, for 10^k printed exactly or not, and its neighbours
        "powers-of-ten": _around(decades),
        "next-decade-carries": np.concatenate(
            [_around([float(f"9.999999999999995e{k}") for k in range(-323, 308)]),
             [9.999999999999995e-5, 999999999999999.5, -9.999999999999995e-5]]),
        "extremes": np.array(specials * 1250),
        "si-sized": np.concatenate([rng.uniform(1.0, 10.0, 10000) * 1e-34,
                                    rng.uniform(1.0, 10.0, 10000) * 1e-43]),
    }


_FAMILIES = _float_families()


def _written_cells(tmp_path, cells) -> bytes:
    path = tmp_path / "cells.csv"
    assert emit_csv([[cells]], ["x"], path) == len(cells)
    return path.read_bytes()


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_float_cells_are_those_of_percent_format(tmp_path, family):
    """Every float cell of a varying column reads exactly '%.14e' % x, for
    at least 10^4 cells of each family of hard or edge cases."""
    cells = _FAMILIES[family]
    assert len(cells) >= 10**4
    assert _written_cells(tmp_path, cells) == b"x\n" + b"".join(
        b"%.14e\n" % x for x in cells.tolist())


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_float_cells_write_the_same_bytes_when_every_cell_falls_back(tmp_path, monkeypatch,
                                                                      family):
    """With a margin of 1 every cell goes to '%.14e' itself and the file is
    the same.  With no margin at all, the near-ties of the 16-digit integers
    take the fast path and some of them round the wrong way, so the margin is
    what keeps those cells exact."""
    import clocklab.csvio as csvio
    cells = _FAMILIES[family]
    fast = _written_cells(tmp_path, cells)
    monkeypatch.setattr(csvio, "_MARGIN", 1.0)
    assert _written_cells(tmp_path, cells) == fast
    if family == "16-digit-integers":
        monkeypatch.setattr(csvio, "_MARGIN", -1.0)
        assert _written_cells(tmp_path, cells) != fast


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
    # 5e-5 here, above the fixed 1e-6; the tolerance follows the rounding bound.
    code = main(["classical", "trajectory", "--set", "classical.metric=uniform_lapse",
                 "--set", "classical.lapse_g=0.08", "--set", "classical.p1=0.8",
                 "--set", "classical.x1=5", "--set", "classical.t_end=0.05",
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
    from oracles import lapse_gradient_off

    lapse_gradient_off(monkeypatch, 1e-6)
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
    assert report.diagnostics == {"n_e": 128, "n_p": 16}
    # a sweep reports the largest grid of its members
    cfg, _ = _cfg(tmp_path, "QUANTUM_MOMENTS", "quantum.times = 0, 3000\n"
                  "sweep.param = quantum.sigma_p\nsweep.values = 0.5, 1.0\n", name="s.csv")
    report = run(cfg)
    assert report.all_passed
    assert "tau_window" in {c.name for c in report.checks}
    assert report.diagnostics == {"n_e": 4096, "n_p": 16}


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
    assert payload["diagnostics"] == {"n_e": 512, "n_p": 16}
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


def test_cli_calls_in_one_process_see_only_their_own_entries(tmp_path):
    """The parser is built once per process; a ``--set`` entry of one call
    does not reach the next."""
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(["gedanken", "box", "--set", "box.t=2.0", "--output", str(first)]) == 0
    assert main(["gedanken", "box", "--output", str(second)]) == 0
    params = [json.loads(out.with_suffix(".report.json").read_text())["scenario"]["params"]
              for out in (first, second)]
    assert [p["box.t"] for p in params] == [2.0, 1.0]  # 1.0 is the default


@pytest.mark.parametrize("flag, value, echoed", [
    ("--set", "classical.x1=3", (3.0, "file.csv", 4)),
    ("--output", "cli.csv", (2.0, "cli.csv", 4)),
    ("--seed", "5", (2.0, "file.csv", 5)),
], ids=["set", "output", "seed"])
def test_cli_entry_replaces_the_config_file_value(tmp_path, monkeypatch, flag, value, echoed):
    """A command-line entry replaces the value the config file gives its key."""
    monkeypatch.chdir(tmp_path)
    Path("run.cfg").write_text("classical.x1 = 2\noutput = file.csv\nseed = 4\n")
    assert main(["classical", "trajectory", "--config", "run.cfg", flag, value]) == 0
    report = json.loads(Path(echoed[1]).with_suffix(".report.json").read_text())
    scenario = report["scenario"]
    assert (scenario["params"]["classical.x1"], scenario["output"], scenario["seed"]) == echoed


@pytest.mark.parametrize("text, flags", [
    ("classical.x1 = 2\nclassical.x1 = 3\n", ["--set", "classical.x1=4"]),
    ("", ["--set", "classical.x1=3", "--set", "classical.x1=4"]),
    ("", ["--set", "seed=3", "--seed", "4"]),
], ids=["twice-in-the-file", "twice-on-the-command-line", "set-and-flag"])
def test_cli_key_given_twice_in_one_source_is_a_duplicate(tmp_path, capsys, text, flags):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(text)
    argv = ["classical", "trajectory", "--config", str(cfg_file), "--output",
            str(tmp_path / "x.csv")]
    assert main(argv + flags) == 2
    assert "config error: duplicate key: " in capsys.readouterr().err


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
    # the p axis takes at most 256 Gauss-Hermite nodes; no larger node set is built
    ("moments", ["grid.p.n=65536"], "grid.p.n", "must be at most 256, got 65536"),
    ("bound", ["grid.p.n=512"], "grid.p.n", "must be at most 256, got 512"),
], ids=["p-not-grid-size", "e-not-power-of-two", "e-above-max", "p-above-max",
        "p-above-node-max"])
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
    ("bound", ["grid.e.n=8", "quantum.sigma_e=0.05"], {"n_e": 128, "n_p": 16}),
    # a wide rest clock read at t = 100 needs 32 Gauss-Hermite nodes on p
    ("moments", ["quantum.sigma_p=2", "grid.p.n=16"], {"n_e": 512, "n_p": 32}),
    ("optimize", ["grid.p.n=8"], {"n_e": 1024, "n_p": 16}),
    ("moments", ["grid.e.n=2048", "grid.p.n=256"], {"n_e": 2048, "n_p": 256}),
], ids=["e-too-coarse", "p-too-few-nodes", "optimize-p-too-coarse", "floors-above-the-rule"])
def test_grid_floors_below_the_accuracy_rule_are_raised(tmp_path, sub, settings, grids):
    # grid.e.n and grid.p.n are floors: one too coarse to resolve the state
    # is raised to the size the accuracy rules need, and one above it is kept
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


def test_cli_runtime_error_exit(tmp_path, capsys, monkeypatch):
    # every bad input ends in a config error or a failed check, so a runner
    # that raises stands in for a fault of the program
    def fault(members, seed):
        raise RuntimeError("a fault of the program")

    monkeypatch.setitem(clocklab.runner._RUNNERS, "QUANTUM_OPTIMIZE", fault)
    code = main(["quantum", "optimize", "--output", str(tmp_path / "x.csv")])
    assert code == 3
    assert "runtime error in QUANTUM_OPTIMIZE: a fault of the program" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


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
            c = replace(c, member=i, sweep_value=value)
            # a failure first, then the largest share of the tolerance
            share = c.measured / c.tolerance if c.tolerance > 0.0 else c.measured
            if c.name not in worst or (not c.passed, share) > worst[c.name][0]:
                worst[c.name] = ((not c.passed, share), c)
    assert sweep_lines == expected_lines
    assert {c.name: c for c in report.checks} == {name: c for name, (_, c) in worst.items()}


@pytest.mark.parametrize("settings, failing, member", [
    (["sweep.param=classical.p1", "sweep.values=0.75,1e5"],
     "tau_final", "member=1 classical.p1=100000.0"),
    (["sweep.param=classical.p1", "sweep.values=1e5,0.75"],
     "tau_final", "member=0 classical.p1=100000.0"),
    (["sweep.param=classical.p1", "sweep.values=0.75,1e11"],
     "proper_time_residual", "member=1 classical.p1=100000000000.0"),
    (["classical.charge=1", "sweep.param=classical.a0_slope", "sweep.values=0,1e18"],
     "motion_residual", "member=1 classical.a0_slope=1e+18"),
], ids=["tau-final", "tau-final-first", "rate", "motion"])
def test_cli_sweep_fails_on_its_failing_member(tmp_path, capsys, monkeypatch, settings,
                                               failing, member):
    """A sweep of a member that fails alone beside one that passes alone exits
    1, and the failed check names the failing member and its value, on the
    printed line and in the report, although the passing member may read
    more against a larger tolerance.  No free clock fails tau_final, so its
    rows run on rates whose tau rate is off by 1e-12: the slow clock's
    tolerance, a share of its advance, is below that, the fast clock's not."""
    from oracles import tau_rate_off

    if failing == "tau_final":
        tau_rate_off(monkeypatch, 1e-12)
    out = tmp_path / "x.csv"
    argv = ["classical", "trajectory", "--output", str(out)]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == 1
    line, = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith(f"[FAIL] {failing}: ")]
    assert line.endswith(f" {member}")
    checks = {c["name"]: c for c in
              json.loads(out.with_suffix(".report.json").read_text())["checks"]}
    index, value = member.split()
    assert (checks[failing]["member"], checks[failing]["sweep_value"]) == (
        int(index.partition("=")[2]), float(value.partition("=")[2]))
    assert checks[failing]["passed"] is False


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
    # the p marginal at each Gauss-Hermite node is the momentum density
    # itself, a Gaussian of sigma_p = 0.5 about p0 = 0
    p_coords = np.array([float(r[1]) for r in p_rows])
    p_dens = np.array([float(r[2]) for r in p_rows])
    gaussian = np.exp(-p_coords**2 / (2 * 0.5**2)) / (np.sqrt(2 * np.pi) * 0.5)
    np.testing.assert_allclose(p_dens, gaussian, rtol=1e-10)


def test_swept_snapshot_holds_every_member(tmp_path):
    # each member's marginals, led by its swept value, are the rows the
    # member's own run writes
    snap = tmp_path / "sweep_state.csv"
    cfg, _ = _cfg(tmp_path, "QUANTUM_MOMENTS", f"quantum.times = 0, 1\nquantum.snapshot = {snap}\n"
                  "sweep.param = quantum.sigma_e\nsweep.values = 0.5, 1\n", name="sweep.csv")
    assert run(cfg).all_passed
    lines = snap.read_text().splitlines()
    assert lines[0] == "sweep_value,axis,coordinate,density"
    rows = lines[1:]
    for value in ("0.5", "1"):
        single = tmp_path / f"state_{value}.csv"
        cfg, _ = _cfg(tmp_path, "QUANTUM_MOMENTS", f"quantum.times = 0, 1\nquantum.sigma_e = "
                      f"{value}\nquantum.snapshot = {single}\n", name=f"single_{value}.csv")
        assert run(cfg).all_passed
        own = single.read_text().splitlines()[1:]
        led = f"{float(value):.14e},"
        assert rows[:len(own)] == [led + row for row in own]
        rows = rows[len(own):]
    assert rows == []


def test_bound_member_takes_one_transform_per_reading(tmp_path, monkeypatch):
    # the reading is one forward transform along E (Parseval sums), and the
    # moment pass one forward and the one inverse its cross term needs
    forward = _count_calls(monkeypatch, np.fft, "fft")
    inverse = _count_calls(monkeypatch, np.fft, "ifft")
    cfg, _ = _cfg(tmp_path, "QUANTUM_BOUND_SWEEP", "quantum.t = 100\n")
    assert run(cfg).all_passed
    assert (len(forward), len(inverse)) == (1 + 1, 1)
    assert all(args[0].shape == (128, 16) for args in forward + inverse)


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
    import clocklab.runner as runner
    calls = _count_calls(monkeypatch, runner, "total_hamiltonian")
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
    vector_calls = _count_calls(monkeypatch, dynamics, "hamilton_rhs")
    rate_calls = _count_calls(monkeypatch, dynamics, "_rates")
    columns = dynamics.COLUMN_CLOCKS
    # one integration of the whole batch: the stationary flat flow takes one
    # (4, 10) RHS evaluation; under a lapse a small batch steps each member
    # on floats, four stage evaluations per RK4 step, and a batch of
    # COLUMN_CLOCKS members steps on columns, four per step for the batch
    lapse = "classical.metric = uniform_lapse\nclassical.lapse_g = 0.05\n"
    for setting, members, vector_shapes, stages, rate_shape in (
            (lapse, 4, [], 4 * 200 * 4, ()),
            (lapse, columns, [], 4 * 200, (columns,)),
            ("classical.metric = flat\n", 4, [(4, 10)], 1, (4,))):
        vector_calls.clear()
        rate_calls.clear()
        cfg, _ = _cfg(tmp_path, "CLASSICAL_TRAJECTORY",
                      "classical.t_end = 0.2\nclassical.dt = 1e-3\n" + setting +
                      "sweep.param = classical.p1\nsweep.min = 0.2\nsweep.max = 0.8\n"
                      f"sweep.count = {members}\n")
        report = run(cfg)
        assert report.all_passed and report.diagnostics["batch_members"] == members
        assert [args[0].shape for args in vector_calls] == vector_shapes
        assert len(rate_calls) == stages
        assert {np.shape(args[0]) for args in rate_calls} == {rate_shape}


_HORIZON_ARGV = ["classical", "trajectory", "--set", "classical.metric=uniform_lapse",
                 "--set", "classical.lapse_g=1", "--set", "classical.dt=1.5",
                 "--set", "classical.t_end=6", "--set", "sweep.param=classical.p1"]


def test_cli_column_sweep_past_the_horizon_is_a_config_error(tmp_path, capsys, monkeypatch):
    """A lapse sweep large enough to step on columns, where only the member
    falling at p1 = -1e3 crosses the horizon in one coarse step: the run
    exits 2 naming classical.dt and that member, writes nothing and raises
    nothing stray; without that member it runs and writes its rows.  The
    batch steps on columns; only then, to find the member, are its clocks
    stepped alone on floats."""
    import clocklab.dynamics as dynamics
    rate_calls = _count_calls(monkeypatch, dynamics, "_rates")
    rising = [str(1e3 * (j + 1)) for j in range(dynamics.COLUMN_CLOCKS)]
    out = tmp_path / "x.csv"
    argv = _HORIZON_ARGV + ["--output", str(out)]
    assert main(argv + ["--set", "sweep.values=" + ",".join(["-1e3"] + rising[1:])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: classical.dt: too coarse, a step crossed the lapse "
                          "horizon (lapse must stay positive; got ")
    assert err.endswith(") member=0 classical.p1=-1000.0\n")
    assert "runtime error" not in err and not out.exists()
    shapes = [np.shape(args[0]) for args in rate_calls]
    batch = shapes.count((len(rising),))
    assert batch and set(shapes[:batch]) == {(len(rising),)} and set(shapes[batch:]) == {()}
    assert main(argv + ["--set", "sweep.values=" + ",".join(rising)]) == 1  # too coarse to pass
    assert len(out.read_text().splitlines()) == 1 + 5 * len(rising)


def test_cli_float_sweep_past_the_horizon_names_its_member(tmp_path, capsys):
    """A 2-member lapse sweep, stepped clock by clock on floats, whose second
    member crosses the horizon: the config error names that member."""
    out = tmp_path / "x.csv"
    assert main(_HORIZON_ARGV + ["--set", "sweep.values=1e3, -1e3", "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: classical.dt: too coarse, a step crossed the lapse "
                          "horizon (lapse must stay positive; got ")
    assert err.endswith(") member=1 classical.p1=-1000.0\n")
    assert not out.exists()


@pytest.mark.parametrize("sub, settings, message", [
    ("moments", ["sweep.param=quantum.sigma_e", "sweep.values=1, 1e-300"],
     "quantum.sigma_e: grid needs finite lo < hi on the E axis, got 10.0 -+ 1.2e-299 "
     "member=1 quantum.sigma_e=1e-300"),
    ("bound", ["sweep.param=quantum.p0", "sweep.values=1e300, 1000"],
     "quantum.sigma_p: grid needs finite lo < hi on the p axis, got 1e+300 -+ "
     "0.6000000000000001 member=0 quantum.p0=1e+300"),
    ("optimize", ["sweep.param=quantum.p0", "sweep.values=1000, 1e300"],
     "quantum.sigma_p: grid needs finite lo < hi on the p axis, got 1e+300 -+ "
     "0.6000000000000001 member=1 quantum.p0=1e+300"),
], ids=["moments", "bound", "optimize"])
def test_cli_quantum_sweep_config_error_names_its_member(tmp_path, capsys, sub, settings,
                                                         message):
    """A config error one member of a quantum sweep causes names that member
    and its swept value, as a failing check line does."""
    out = tmp_path / "x.csv"
    argv = ["quantum", sub]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv + ["--output", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


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
# accuracy rule alone, which moves the last digits of every quantum column,
# and all three when p moved to Gauss-Hermite nodes and evolution to a phase
# relative to H_c(p), which moves the last digits of every quantum column);
# a change to any of them must be justified in CHANGES.md.
GOLDEN_CSV_SHA256 = {
    ("gedanken", "box"): "ba3f2e47f9571ed247c570a49564d3c9a32e08a3618991dbdf82ddc2e5926b63",
    ("gedanken", "efield"): "7c4cf442d9d227228fdfd5b6183e6a8216a0abf370beb88d9dd945b352f93116",
    ("classical", "trajectory"):
        "954fd1869f7e4717491064471a419359e8bbd3eee953eadedfd3b23247554eae",
    ("classical", "brackets"): "16c0f3de7af22263db6e15ce1153b03334a9ff27c8ad5d3bd4f39c6da8d566ac",
    ("quantum", "moments"): "77ae71ae09583809356b851f68bf2b653d8f3d4ab76089fae92f5b5ddc7e60ef",
    ("quantum", "bound"): "9cb2e05009d4c6f9eae16dd28671b12638943f35266b6202666c76ac3a27586d",
    ("quantum", "optimize"): "75594869736c593e85d6060d865ae0131813819f5fd5580dd0d5799eda4573c3",
}

# sha256 of the CSVs of runs off the defaults, one for each way a run builds
# its rows: a sweep column before SI-scaled columns, an integer column SI
# leaves alone, a flag that reads 0 (the rest clock), a str column after the
# sweep column, a swept run with its snapshot ("{snapshot}" stands for the
# snapshot's path; every member's state is written there) and an SI
# trajectory sweep.  Recorded when the CSV writer took tables of typed
# columns, on the code before that change; the quantum ones re-recorded when
# p moved to Gauss-Hermite nodes, and the snapshot when it took every member.
GOLDEN_RUN_SHA256 = {
    "gedanken-box-si-sweep": (
        ["gedanken", "box", "--set", "units=SI", "--set", "box.t=1.0 s",
         "--set", "box.g=9.81 m/s^2", "--set", "sweep.param=box.dq",
         "--set", "sweep.min=1e-9 m", "--set", "sweep.max=1e-3 m",
         "--set", "sweep.count=4", "--set", "sweep.scale=log"],
        {"csv": "d84953a8b76f5d364e37801a5502d24e53a4bc2fadb188b2c66c3d277eb0e823"}),
    "quantum-optimize-si": (
        ["quantum", "optimize", "--set", "units=SI"],
        {"csv": "d8c4658792f70ccf266c2adc0d051e8724cced280727865af5a134112f5f9b79"}),
    "quantum-bound-rest-clock": (
        ["quantum", "bound", "--set", "quantum.p0=0", "--set", "quantum.sigma_e=1"],
        {"csv": "1d1b98032bdafa7f84a988e7c762612e25fd4738c0dd78eab732de7b3a3938a1"}),
    "classical-brackets-sweep": (
        ["classical", "brackets", "--set", "brackets.points=3",
         "--set", "sweep.param=brackets.scale", "--set", "sweep.values=1, 100"],
        {"csv": "a15d32c56ace6984c07664b86483a474b6b5bc97dd4db52774b9c8c95997044a"}),
    "quantum-moments-sweep-snapshot": (
        ["quantum", "moments", "--set", "sweep.param=quantum.sigma_e",
         "--set", "sweep.values=0.5, 1", "--set", "quantum.snapshot={snapshot}"],
        {"csv": "e9cbc0eb84ef412a6ddaceff9af8da273ea21bd967300b38824c5c412785cd58",
         "snapshot": "81e72c274c1889c719f3a2222d407772b13676807350c286b1ec7b6bfcd77fd0"}),
    "classical-trajectory-si-p1-sweep": (
        ["classical", "trajectory", "--set", "units=SI",
         "--set", "sweep.param=classical.p1", "--set", "sweep.values=1e-43, 2e-43"],
        {"csv": "dd03e54b3b425ee21831e9f783ff88813d2376d6a92485bf56a406f0ff634b19"}),
}


@pytest.mark.parametrize("group, sub", list(GOLDEN_CSV_SHA256),
                         ids=[f"{g}-{s}" for g, s in GOLDEN_CSV_SHA256])
def test_default_scenario_csv_matches_golden_digest(tmp_path, group, sub):
    out = tmp_path / "default.csv"
    assert main([group, sub, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV_SHA256[(group, sub)]


@pytest.mark.parametrize("name", list(GOLDEN_RUN_SHA256))
def test_run_csv_matches_golden_digest(tmp_path, name):
    argv, digests = GOLDEN_RUN_SHA256[name]
    out, snapshot = tmp_path / "run.csv", tmp_path / "snapshot.csv"
    argv = [arg.replace("{snapshot}", str(snapshot)) for arg in argv]
    assert main(argv + ["--output", str(out)]) == 0
    assert {file: hashlib.sha256(path.read_bytes()).hexdigest()
            for file, path in (("csv", out), ("snapshot", snapshot)) if path.exists()} == digests


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


@pytest.mark.parametrize("settings, rhs_evals, free", [
    (["classical.charge=1"], 1, True),
    (["classical.a0_slope=0.3", "classical.charge=0"], 1, True),
    (["classical.a0_slope=0.3", "classical.charge=1"], 40000, False),
    (["classical.metric=uniform_lapse", "classical.lapse_g=0.05", "classical.x1=1",
      "classical.p1=0", "classical.hold=1"], 1, False),
], ids=["charged-without-a-field", "neutral-in-a-potential", "charged-in-a-potential", "held"])
def test_free_clocks_take_one_evaluation_and_the_tau_final_check(tmp_path, settings, rhs_evals,
                                                                free):
    """A clock no field acts on (no lapse slope, and no potential slope or no
    charge) takes one RHS evaluation and gets the tau_final check; a held
    clock takes one evaluation without that check."""
    out = tmp_path / "x.csv"
    argv = ["classical", "trajectory", "--output", str(out)]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == 0
    report = json.loads(out.with_suffix(".report.json").read_text())
    assert report["diagnostics"]["rhs_evals"] == rhs_evals
    assert ("tau_final" in {c["name"] for c in report["checks"]}) == free


# Every golden digest run in one child process with OpenBLAS held to one
# thread: the CSV bytes must not depend on the BLAS thread count.
_GOLDEN_DIGESTS_SCRIPT = """
import hashlib, json, sys, tempfile
from pathlib import Path
from clocklab.cli import main
with tempfile.TemporaryDirectory() as work:
    for name, argv in json.loads(sys.argv[1]).items():
        out, snapshot = Path(work) / f"{name}.csv", Path(work) / f"{name}.snapshot.csv"
        argv = [arg.replace("{snapshot}", str(snapshot)) for arg in argv]
        assert main(argv + ["--output", str(out)]) == 0
        for file, path in (("csv", out), ("snapshot", snapshot)):
            if path.exists():
                print("sha256", name, file, hashlib.sha256(path.read_bytes()).hexdigest())
"""


def test_golden_digests_hold_on_one_blas_thread():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = {f"{g}-{s}": [g, s] for g, s in GOLDEN_CSV_SHA256}
    runs.update({name: argv for name, (argv, _) in GOLDEN_RUN_SHA256.items()})
    done = subprocess.run([sys.executable, "-c", _GOLDEN_DIGESTS_SCRIPT, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    got = {(name, file): digest for tag, name, file, digest
           in (line.split() for line in done.stdout.splitlines() if line.startswith("sha256 "))}
    want = {(f"{g}-{s}", "csv"): digest for (g, s), digest in GOLDEN_CSV_SHA256.items()}
    want.update({(name, file): digest for name, (_, digests) in GOLDEN_RUN_SHA256.items()
                 for file, digest in digests.items()})
    assert got == want


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
    (["classical trajectory", "classical.a0_slope=1e18", "classical.charge=1"], 1,
     "[FAIL] motion_residual: measured=inf"),
    (["classical trajectory", "classical.metric=uniform_lapse", "classical.lapse_g=5",
      "classical.p1=-1e8"], 1, "[FAIL] motion_residual: measured=inf"),
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
    (["quantum moments", "quantum.sigma_p=1e160"], 2,
     "config error: quantum.sigma_p: width too large on the p axis: 4 sigma^2 overflows"),
    (["quantum moments", "quantum.sigma_p=1e154"], 2,
     "config error: quantum.sigma_p: width too large on the p axis: 4 sigma^2 overflows"),
    (["quantum bound", "quantum.sigma_p=1e160"], 2,
     "config error: quantum.sigma_p: width too large on the p axis: 4 sigma^2 overflows"),
    (["quantum optimize", "quantum.sigma_p=1e160"], 2,
     "config error: quantum.sigma_p: width too large on the p axis: 4 sigma^2 overflows"),
    (["gedanken box", "box.dq=1e-320"], 2,
     "config error: box.dq: the latitudes dm and dtau leave the float range, so c^2 dm dtau / h "
     "is not finite, got box.dq = 1e-320, box.t = 1.0 and box.g = 9.81"),
    (["gedanken box", "box.t=1e-320"], 2,
     "config error: box.dq: the latitudes dm and dtau leave the float range"),
    (["gedanken box", "box.g=1e-320"], 2,
     "config error: box.dq: the latitudes dm and dtau leave the float range"),
    (["gedanken box", "box.dq=1e300", "box.g=1e300"], 2,
     "config error: box.dq: the latitudes dm and dtau leave the float range"),
    (["gedanken box", "units=SI", "box.dq=1e-300"], 2,
     "is not finite, got box.dq = 1e-300 m, box.t = 1.0 s and box.g = "),
    (["gedanken efield", "efield.dq=1e-320"], 2,
     "config error: efield.dq: the latitudes dm and dtau leave the float range, so c^2 dm dtau "
     "/ h is not finite, got efield.dq = 1e-320 and efield.v = 0.5"),
    (["gedanken efield", "efield.v=1e-320"], 2,
     "config error: efield.dq: the latitudes dm and dtau leave the float range"),
    (["classical trajectory", "classical.p1=1e11", "classical.tau0=1"], 1,
     "[FAIL] proper_time_residual: measured=1.514200e-06 tolerance=inf"),
    (["quantum optimize", "quantum.p0=0", "optimize.sigma_lo=0.05", "optimize.sigma_hi=1.0"], 2,
     "config error: optimize.sigma_hi: variance minimum sits at the bracket edge "
     "(sigma_e = 0.9986)"),
    (["quantum optimize", "quantum.p0=0", "quantum.e0=100"], 2,
     "config error: optimize.sigma_hi: variance minimum sits at the bracket edge"),
    (["quantum optimize", "optimize.sigma_lo=5", "optimize.sigma_hi=50"], 2,
     "config error: optimize.sigma_lo: variance minimum sits at the bracket edge"),
    (["quantum moments", "quantum.times=0"], 2,
     "config error: quantum.times: needs a time other than 0"),
    (["classical trajectory", "classical.metric=uniform_lapse", "classical.lapse_g=0.05",
      "classical.x1=1", "classical.hold=1"], 2,
     "config error: classical.hold: a held clock must be at rest (p1 = p2 = p3 = 0), "
     "got classical.p1 = 0.75, classical.p2 = 0.0 and classical.p3 = 0.0"),
    (["classical trajectory", "classical.p1=0", "classical.p3=-1e-300", "classical.hold=1"], 2,
     "config error: classical.hold: a held clock must be at rest (p1 = p2 = p3 = 0), "
     "got classical.p1 = 0.0, classical.p2 = 0.0 and classical.p3 = -1e-300"),
    (["classical trajectory", "units=SI", "classical.hold=1", "sweep.param=classical.p1",
      "sweep.values=0, 1e-43"], 2,
     "config error: classical.hold: a held clock must be at rest (p1 = p2 = p3 = 0), "
     "got classical.p1 = 1e-43 kg*m/s, classical.p2 = 0.0 kg*m/s and classical.p3 = 0.0 kg*m/s"),
    (["classical trajectory", "classical.hold=1", "classical.t_end=0.01",
      "sweep.param=classical.p1", "sweep.values=0, -0.0"], 0, "[PASS] proper_time_residual"),
], ids=["flat-lapse", "flat-lapse-sweep", "tau-stalls-under-force",
        "tau-stalls-under-lapse", "step-past-horizon",
        "sigma-e-rounds", "e0-rounds", "p0-rounds", "optimize-p0-rounds",
        "optimize-sigma-rounds", "sigma-p-squares-past-range", "sigma-p-4-squares-past-range",
        "bound-sigma-p-squares-past-range", "optimize-sigma-p-squares-past-range",
        "box-dq-tiny", "box-t-tiny", "box-g-tiny", "box-dq-g-huge", "box-si-dq-tiny",
        "efield-dq-tiny", "efield-v-tiny", "tau-final-below-its-advance",
        "optimize-rest-clock-wide-edge", "optimize-default-bracket-wide-edge",
        "optimize-narrow-edge", "moments-only-t-0", "held-clock-moving", "held-clock-p3",
        "held-clock-p1-sweep-si", "held-clock-p1-sweep-at-rest"])
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
    assert out.exists() == (code != 2)


def _offset_run(tmp_path, monkeypatch, argv, name):
    """Exit code, report and CSV rows of one CLI run, with every member's
    columns as the runner hands them to the unit conversion."""
    import clocklab.runner as runner
    tables, to_si = [], runner._to_si

    def spy(table, factors):
        tables.append([np.array(column) for column in table])
        return to_si(table, factors)

    monkeypatch.setattr(runner, "_to_si", spy)
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    monkeypatch.setattr(runner, "_to_si", to_si)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    return code, json.loads(out.with_suffix(".report.json").read_text()), rows, tables


@pytest.mark.parametrize("settings, offsets", [
    (["classical trajectory", "classical.tau0=1e13"], [1e13]),
    (["classical trajectory", "classical.metric=uniform_lapse", "classical.lapse_g=0.05",
      "classical.tau0=1e13", "classical.p1=0", "classical.t_end=1"], [1e13]),
    (["classical trajectory", "classical.p1=1e5", "classical.tau0=1000"], [1000.0]),
    (["classical trajectory", "units=SI", "classical.tau0=-2.5e9"], [-2.5e9]),
    (["classical trajectory", "sweep.param=classical.tau0", "sweep.values=0, 1000, 1e13"],
     [0.0, 1000.0, 1e13]),
    (["quantum moments", "quantum.tau0=1000"], [1000.0]),
    (["quantum moments", "quantum.tau0=1e300"], [1e300]),
    (["quantum bound", "quantum.tau0=1e6"], [1e6]),
], ids=["flat-tau0-1e13", "lapse-tau0-1e13", "fast-clock-tau0-1000", "si-tau0",
        "tau0-sweep", "moments-tau0-1000", "moments-tau0-1e300", "bound-tau0-1e6"])
def test_tau0_is_an_offset(tmp_path, monkeypatch, settings, offsets):
    """tau0 enters no dynamics and no grid: each run passes every check
    against a finite tolerance, reading what the tau0 = 0 run reads, with the
    same grid or RK4 work; its tau or mean_tau column is the tau0 = 0 run's
    plus tau0, added in float64, and every other CSV cell is byte-identical.
    A tau0 sweep integrates its members as one batch."""
    argv = settings[0].split()
    base_argv = list(argv)
    for setting in settings[1:]:
        argv += ["--set", setting]
        if ".tau0=" not in setting and not setting.startswith("sweep."):
            base_argv += ["--set", setting]
    code, report, rows, tables = _offset_run(tmp_path, monkeypatch, argv, "x.csv")
    base_code, base, base_rows, (base_table,) = _offset_run(tmp_path, monkeypatch, base_argv,
                                                             "base.csv")
    assert code == base_code == 0
    assert all(c["passed"] and math.isfinite(c["tolerance"]) for c in report["checks"])
    assert ([(c["name"], c["measured"], c["tolerance"]) for c in report["checks"]]
            == [(c["name"], c["measured"], c["tolerance"]) for c in base["checks"]])
    swept = len(offsets) > 1
    assert report["diagnostics"] == {**base["diagnostics"],
                                     **({"batch_members": len(offsets)} if swept else {})}
    assert len(tables) == len(offsets)
    n = len(base_rows)
    assert len(rows) == n * len(offsets)
    for j, (table, tau0) in enumerate(zip(tables, offsets)):
        assert np.array_equal(table[1], base_table[1] + tau0)
        for row, base_row in zip(rows[j * n:(j + 1) * n], base_rows):
            row = row[1:] if swept else row
            assert row[:1] + row[2:] == base_row[:1] + base_row[2:]


@pytest.mark.parametrize("argv, output, message", [
    (["gedanken", "box"], "{dir}",
     "config error: output: cannot write the CSV: [Errno 21] Is a directory"),
    (["gedanken", "box"], "{file}/x.csv",
     "config error: output: cannot write the CSV: [Errno 20] Not a directory"),
    (["quantum", "moments", "--set", "quantum.snapshot={file}/s.csv"], "{dir}/x.csv",
     "config error: quantum.snapshot: cannot write the snapshot: [Errno 20] Not a directory"),
    (["quantum", "moments", "--set", "quantum.snapshot={dir}/s.csv"], "{dir}",
     "config error: output: cannot write the CSV: [Errno 21] Is a directory"),
], ids=["output-is-a-directory", "output-under-a-file", "snapshot-under-a-file",
        "output-is-a-directory-with-a-snapshot"])
def test_cli_path_the_writer_cannot_open_is_a_config_error(tmp_path, capsys, argv, output,
                                                           message):
    """An output or snapshot path that cannot be opened for writing is a
    config error naming its key, and the run leaves neither the CSV, nor the
    snapshot, nor a report behind."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    paths = {"{file}": str(tmp_path / "file"), "{dir}": str(tmp_path / "dir")}
    for mark, path in paths.items():
        argv = [arg.replace(mark, path) for arg in argv]
        output = output.replace(mark, path)
    assert main(argv + ["--output", output]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.report.json"))
    assert not list(tmp_path.rglob("*.csv"))


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


@pytest.mark.parametrize("settings, written", [
    (["classical.p1=1e160"], "classical.m = 1.0, classical.p1 = 1e+160, "),
    (["classical.p1=1e155", "classical.m=1e155"], "classical.m = 1e+155, classical.p1 = 1e+155, "),
    (["sweep.param=classical.p1", "sweep.values=0.5,1e300"], "classical.p1 = 1e+300, "),
], ids=["momentum", "both", "sweep-member"])
def test_cli_kinetic_root_that_overflows_is_a_config_error(tmp_path, capsys, settings, written):
    """A clock whose m^2 + |p|^2 passes the float range has no finite kinetic
    root: it exits 2 naming classical.m and saying so, and writes nothing."""
    out = tmp_path / "x.csv"
    argv = ["classical", "trajectory"]
    for setting in settings:
        argv += ["--set", setting]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: classical.m: m^2 + p1^2 + p2^2 + p3^2 overflows to inf" in err
    assert written in err
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
    ("moments", ["quantum.sigma_p=10"], "quantum.times"),
    ("moments", ["quantum.p0=1e8", "quantum.sigma_p=1e-6"], "quantum.sigma_p"),
], ids=["moments-tip", "optimize-tip", "moments-e-grid", "moments-p-nodes",
        "moments-p-nodes-rounded"])
def test_cli_refused_clock_state_is_a_config_error(tmp_path, capsys, sub, settings, key):
    """A clock state the runtime refuses (support at the cone tip, an E grid
    or p quadrature too large to build, or p nodes rounded so far off the
    spec's density that they no longer integrate it) exits 2 naming the
    key, and writes nothing."""
    out, snapshot = tmp_path / "x.csv", tmp_path / "snapshot.csv"
    argv = ["quantum", sub]
    for setting in settings + ([f"quantum.snapshot={snapshot}"] if sub == "moments" else []):
        argv += ["--set", setting]
    code = main(argv + ["--output", str(out)])
    assert code == 2
    assert f"config error: {key}: " in capsys.readouterr().err
    assert not out.exists() and not snapshot.exists()
