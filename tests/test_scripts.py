"""Smoke test of the example scripts: each runs to completion and writes
the CSV files it names; and the benchmark comparison's per-operation
summary on synthetic runs and its work directory."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, outputs", [
    ("bound_saturation.py", ["bound_sweep.csv"]),
    ("weighing_sweep.py", ["box_weighing.csv", "efield_weighing.csv"]),
    ("trajectory_gallery.py", ["cruise_v06.csv", "held_weak_field.csv", "constant_force.csv"]),
])
def test_example_script_writes_its_csvs(tmp_path, script, outputs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--out-dir",
                           str(tmp_path)], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert (tmp_path / name).is_file(), name


def _bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare",
                                                  ROOT / "scripts" / "bench_compare.py")
    bench_compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_compare)
    return bench_compare


def test_bench_compare_per_operation_summary():
    bench_compare = _bench_compare()
    labels = ["classical-trajectory", "gedanken-box"]
    # two seeds: the first ran two passes on the parent side and three on the
    # change side, the second one pass on each
    walls = [{"parent": [4.0, 1.0, 6.0, 3.0], "change": [1.0, 1.0, 2.0, 1.0, 3.0, 2.0]},
             {"parent": [9.0, 2.0], "change": [4.0, 0.5]}]
    assert bench_compare.per_operation(labels, walls) == [
        {"index": 0, "label": "classical-trajectory", "wall_s": {"parent": 7.0, "change": 3.0}},
        {"index": 1, "label": "gedanken-box", "wall_s": {"parent": 2.0, "change": 0.75}},
    ]


def test_bench_compare_creates_a_missing_workdir(tmp_path):
    parent = tmp_path / "not" / "yet"
    workdir = _bench_compare().make_workdir(parent)
    assert workdir.is_dir() and workdir.parent == parent
    assert _bench_compare().make_workdir(parent) != workdir  # a fresh one each run
