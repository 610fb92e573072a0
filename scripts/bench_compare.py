#!/usr/bin/env python3
"""Compare the benchmark of a parent revision and a change, run in
alternating pairs, and write the result as one JSON file.

    python3 scripts/bench_compare.py --parent REV --workload classical \
        --seeds 1-10 --out BENCH_N.json [--change REV] [--workdir DIR] \
        [--rss-passes P]

Both sides run ``perfbench/run.py --trace 0`` from clean copies of their own
source (``git archive`` of a revision; the change defaults to the working
tree), with the benchmark code each copy carries.  Seed i runs the parent
first when i is odd and the change first when it is even.  The first seed
also gets one traced run per side, for the per-layer figures.  The output
holds the machine (nproc, Python and numpy versions), and per workload the
median, quartiles and win count of every end-to-end metric that
``BENCHMARK.json`` declares, the traced per-layer figures, whether every
operation's CSV sha256 matched between the sides, the (seed, operation
index, label) of each operation whose digests differ, and per operation of
one pass its label and each side's median ``wall_s`` over the seeds, which
shows the operations that carry a gain.

A timed run repeats the workload for a fixed time, so the faster side runs
more passes, and ``peak_rss_mb`` grows with the passes run until the
allocator settles.  With ``--rss-passes P`` each seed also runs exactly P
passes per side in one process, through perfbench's own pass loop, and
records that process's peak RSS, so both sides do the same work.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def checkout(rev: str | None, dest: Path) -> str:
    """Copy a revision, or the working tree when ``rev`` is None, to dest;
    returns the commit it rests on."""
    dest.mkdir(parents=True)
    if rev is None:
        listed = subprocess.run(["git", "ls-files", "-co", "--exclude-standard", "-z"],
                                cwd=ROOT, capture_output=True, check=True).stdout
        for name in filter(None, listed.decode().split("\0")):
            if (ROOT / name).is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, dest / name)
        rev = "HEAD"
    else:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True,
                                 check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``tree``: its metrics and each operation's digest."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((tree / ".perfbench-out" / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    return {"metrics": {name: m["value"] for name, m in summary["metrics"].items()},
            "failed": summary["failed"], "attempted": summary["attempted"],
            "digests": [(op["label"], op["csv_sha256"]) for op in record["operations"]],
            "walls": [op["wall_s"] for op in record["operations"]]}


# P passes of perfbench's own loop over the workload, then the peak RSS in MB;
# run from the root of a copy, with argv workload, seed, P
RSS_PROBE = """
import resource, sys, tempfile
from pathlib import Path
sys.path.insert(0, "perfbench")
import run, workloads
clocklab = run.load_clocklab()
preps = run.prepare(clocklab, workloads.generate(sys.argv[1], int(sys.argv[2])))
with tempfile.TemporaryDirectory() as work:
    for i in range(int(sys.argv[3])):
        if any(o.problem for o in run.run_pass(clocklab, preps, Path(work), f"p{i}")):
            sys.exit("an operation failed")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


def equal_pass_rss(tree: Path, workload: str, seed: int, passes: int) -> float:
    done = subprocess.run([sys.executable, "-c", RSS_PROBE, workload, str(seed), str(passes)],
                          cwd=tree, capture_output=True, text=True, check=True)
    return float(done.stdout.split()[-1])


def pass_digests(tree: Path, workload: str, seed: int, digests: list) -> tuple[list, bool]:
    """The (label, digest) of each operation in the first pass over the
    workload's operation list, and whether every repeated pass wrote the
    same bytes."""
    name = f"workloads_{tree.name}"
    spec = importlib.util.spec_from_file_location(name, tree / "perfbench" / "workloads.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    size = len(module.generate(workload, seed))
    one = digests[:size]
    return one, all(digests[i] == one[i % size] for i in range(len(digests)))


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1)}


def per_operation(labels: list[str], walls: list[dict]) -> list[dict]:
    """Each operation of one pass, ``labels[i]`` at index i, with each side's
    median wall_s over the seeds; a seed's figure for an operation is the
    median over its passes.  ``walls`` holds one {side: [wall_s of every
    operation run, in order]} per seed."""
    size = len(labels)
    return [{"index": i, "label": label,
             "wall_s": {side: float(np.median([np.median(w[side][i::size]) for w in walls]))
                        for side in ("parent", "change")}}
            for i, label in enumerate(labels)]


def summarize(runs: list[dict], spec: list[dict]) -> dict:
    out = {}
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["parent"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "bound": metric["bound"], "parent": quartiles(parent),
                     "change": quartiles(change), "wins": wins, "ties": ties,
                     "pairs": len(runs)}
    return out


def make_workdir(parent: Path | None) -> Path:
    """A fresh directory for the two copies, inside ``parent`` (created if
    it does not exist yet) or, when it is None, in the system's temp dir."""
    if parent is not None:
        parent.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="bench-compare-", dir=parent))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", help="git revision of the change (default: working tree)")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--workdir", type=Path, help="where the two copies go (default: a temp dir)")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--rss-passes", type=int, default=0,
                    help="also record the peak RSS of this many passes per side and seed")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    workdir = make_workdir(args.workdir)
    trees = {"parent": workdir / "parent", "change": workdir / "change"}
    commits = {"parent": checkout(args.parent, trees["parent"]),
               "change": checkout(args.change, trees["change"])}
    result = {"machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "numpy": np.__version__},
              "parent": commits["parent"],
              "change": commits["change"] if args.change else f"working tree on {commits['change']}",
              "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    try:
        for workload in args.workload:
            runs, match, differ, walls = [], True, [], []
            for seed in args.seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                run = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = bench(trees[side], workload, seed, args.seconds, 0)
                    print(f"{workload} seed {seed} {side}: wall_s "
                          f"{run[side]['metrics']['wall_s']:.3f}", flush=True)
                walls.append({side: run[side].pop("walls") for side in order})
                (p_digests, stable_p), (c_digests, stable_c) = (
                    pass_digests(trees[side], workload, seed, run[side].pop("digests"))
                    for side in ("parent", "change"))
                differ += [[seed, i, label] for i, ((label, a), (_, b))
                           in enumerate(zip(p_digests, c_digests)) if a != b]
                run["csv_sha256_match"] = stable_p and stable_c and p_digests == c_digests
                if args.rss_passes:
                    run["equal_pass_rss_mb"] = {
                        side: equal_pass_rss(trees[side], workload, seed, args.rss_passes)
                        for side in order}
                match = match and run["csv_sha256_match"]
                runs.append(run)
            traced = {side: bench(trees[side], workload, args.seeds[0], args.seconds, 1)["metrics"]
                      for side in ("parent", "change")}
            result["workloads"][workload] = {
                "end_to_end": summarize(runs, spec),
                "csv_sha256_match": match,
                "csv_sha256_differ": differ,
                "per_operation": per_operation([label for label, _ in p_digests], walls),
                "traced_seed": args.seeds[0],
                "per_layer": {name: {"parent": traced["parent"].get(name),
                                     "change": traced["change"].get(name)}
                              for name in sorted(set(traced["parent"]) | set(traced["change"]))},
                "runs": runs,
            }
            if args.rss_passes:
                parent, change = ([r["equal_pass_rss_mb"][side] for r in runs]
                                  for side in ("parent", "change"))
                result["workloads"][workload]["equal_pass_peak_rss_mb"] = {
                    "passes": args.rss_passes, "parent": quartiles(parent),
                    "change": quartiles(change), "pairs": len(runs),
                    "wins": sum(c < p for p, c in zip(parent, change)),
                    "ties": sum(c == p for p, c in zip(parent, change))}
            args.out.write_text(json.dumps(result, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
