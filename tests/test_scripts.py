"""Every example config runs through the command line with its checks
passing and the rows it implies; and the benchmark comparison's
per-operation summary on synthetic runs and its work directory."""
import importlib.util
from pathlib import Path

import pytest

from clocklab import cli
from clocklab.config import parse_config
from clocklab.dynamics import whole_steps

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.cfg"))


@pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_config_runs(tmp_path, path):
    config = parse_config(path.read_text())
    (group, sub), = [command for command, kind in cli._SUBCOMMANDS.items()
                     if kind == config.kind]
    out = tmp_path / "out.csv"
    assert cli.main([group, sub, "--config", str(path), "--output", str(out)]) == 0
    # a trajectory writes a row per sample, a weighing or a bound reading one
    rows = sum(whole_steps(member["classical.t_end"], member["classical.dt"]) + 1
               if config.kind == "CLASSICAL_TRAJECTORY" else 1 for member in config.members)
    assert len(out.read_text().splitlines()) == 1 + rows


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
