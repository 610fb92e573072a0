"""Smoke test of the example scripts: each runs to completion and writes
the CSV files it names."""
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
