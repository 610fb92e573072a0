#!/usr/bin/env python3
"""Clocklab benchmark: drive the command line the way its users do and time
it end to end, or, with ``--trace 1``, layer by layer.

    python3 perfbench/run.py --workload classical --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; clocklab is imported from ``src``.
Each operation is one in-process ``clocklab.cli.main(argv)`` call that
parses its config, runs the scenario, and writes its CSV and
``.report.json`` to a fresh path.  Operations run in a closed loop with one
client: the workload's fixed operation list is repeated until ``--seconds``
have passed.  Every operation must exit 0 and write a CSV that passes the
checks in ``workloads.output_problem``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the run
(provenance, each operation's CSV sha256, and with tracing the spans) is
written under ``.perfbench-out/``.  See perfbench/README.md.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
ENV_KEYS = ("CLOCKLAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
UNITS = {
    "setup_s": "s", "wall_s": "s", "run_s_p50": "s", "members_per_s": "1/s",
    "peak_rss_mb": "MB", "ok_ratio": "1",
}


def load_clocklab():
    """Import clocklab from the checkout's ``src``, never from elsewhere."""
    if not (SRC / "clocklab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no clocklab source at {SRC / 'clocklab'}")
    sys.path.insert(0, str(SRC))
    import clocklab
    import clocklab.cli
    import clocklab.config
    if Path(clocklab.__file__).resolve().parent != SRC / "clocklab":
        raise SystemExit(f"perfbench: imported clocklab from {clocklab.__file__}, not {SRC}")
    return clocklab


@dataclass(frozen=True)
class Prepared:
    op: workloads.Operation
    config: object
    members: int


@dataclass(frozen=True)
class Outcome:
    label: str
    wall: float
    cpu: float
    members: int
    problem: str | None
    sha256: str | None


def prepare(clocklab, ops: list[workloads.Operation]) -> list[Prepared]:
    """Parse every operation's config as the command line would."""
    parser = clocklab.cli.build_parser()
    out = []
    for op in ops:
        kind = parser.parse_args(op.argv("setup.csv")).kind
        config = clocklab.config.parse_config(op.config_text("setup.csv"), kind_hint=kind)
        out.append(Prepared(op, config, workloads.members(config)))
    return out


def execute(clocklab, prep: Prepared, csv_path: Path,
            span=contextlib.nullcontext()) -> Outcome:
    """One timed ``cli.main`` call inside ``span``, then checks made outside
    the timed region."""
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        with span:
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                code = clocklab.cli.main(prep.op.argv(csv_path))
            except SystemExit as exc:
                code = exc.code
            t1, c1 = time.perf_counter(), time.process_time()
    problem, digest = None, None
    if code != 0:
        problem = f"exit {code}: {log.getvalue().strip()[-400:]}"
    elif not csv_path.is_file():
        problem = "no CSV written"
    else:
        digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
        header, rows = workloads.read_csv(csv_path)
        problem = workloads.output_problem(prep.config, header, rows)
    for path in (csv_path, csv_path.with_suffix(".report.json")):
        if path.exists():
            path.unlink()
    return Outcome(prep.op.label, t1 - t0, c1 - c0, prep.members, problem, digest)


def run_pass(clocklab, preps: list[Prepared], workdir: Path, tag: str,
             around=None) -> list[Outcome]:
    return [execute(clocklab, prep, workdir / f"{tag}-{i}.csv",
                    around(prep) if around else contextlib.nullcontext())
            for i, prep in enumerate(preps)]


def setup_probe_s(workload: str, seed: int) -> float:
    """Median time from spawning a fresh process until it has set up: started
    Python, imported clocklab, generated the workload and parsed every config.
    The probe prints the system-wide monotonic clock when it is done."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance(clocklab) -> dict:
    import numpy
    worker_count = getattr(clocklab.runner, "_worker_count", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "clocklab": clocklab.__version__,
        "commit": git_commit(),
        "sweep_workers": worker_count(1 << 10) if worker_count else None,
        "env": {key: os.environ.get(key) for key in ENV_KEYS},
    }


def end_to_end(outcomes: list[Outcome], pass_walls: list[float], pass_members: int,
               setup_s: float) -> dict:
    # The best pass: interference from other work on the host only adds time.
    best = min(pass_walls)
    failed = sum(o.problem is not None for o in outcomes)
    return {
        "setup_s": setup_s,
        "wall_s": best,
        "run_s_p50": statistics.median(o.wall for o in outcomes),
        "members_per_s": pass_members / best,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - failed / len(outcomes),
    }


def measure(clocklab, workload: str, seed: int, seconds: float, workdir: Path,
            smoke: bool = False) -> tuple[dict, list[Outcome]]:
    """End-to-end metrics: repeat the operation list for ``seconds``."""
    setup_s = setup_probe_s(workload, seed)
    preps = prepare(clocklab, workloads.generate(workload, seed, smoke))
    outcomes, pass_walls = [], []
    begin = time.perf_counter()
    while True:
        done = run_pass(clocklab, preps, workdir, f"p{len(pass_walls)}")
        pass_walls.append(sum(o.wall for o in done))
        outcomes += done
        if time.perf_counter() - begin >= seconds:
            break
    return end_to_end(outcomes, pass_walls, sum(p.members for p in preps), setup_s), outcomes


def measure_traced(clocklab, workload: str, seed: int, workdir: Path,
                   smoke: bool = False) -> tuple[dict, list[Outcome], list[dict]]:
    """Layer metrics: one untraced pass, then one traced pass followed by the
    reference list, then the micro-timings."""
    preps = prepare(clocklab, workloads.generate(workload, seed, smoke))
    reference = prepare(clocklab, workloads.REFERENCE)
    untraced = run_pass(clocklab, preps, workdir, "untraced")
    tracer = Tracer(layers.make_hooks())
    tracer.install()
    try:
        def around(prep: Prepared):
            return tracer.operation(prep.op.label, swept=prep.members > 1)
        traced = run_pass(clocklab, preps, workdir, "traced", around)
        traced_ref = run_pass(clocklab, reference, workdir, "reference", around)
    finally:
        tracer.remove()
    metrics = layers.from_trace(tracer)
    metrics["runner.cpu_per_wall"] = (sum(o.cpu for o in untraced)
                                      / sum(o.wall for o in untraced))
    metrics["trace.overhead_s"] = (sum(o.wall for o in traced)
                                   - sum(o.wall for o in untraced))
    metrics["csvio.overwrite_ms"] = layers.overwrite_ms(workdir)
    metrics.update(layers.micro_timings())
    return metrics, untraced + traced + traced_ref, tracer.records()


def write_record(workload: str, seed: int, trace: int, clocklab, metrics: dict,
                 outcomes: list[Outcome], spans: list[dict] | None) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    ops = [{"label": o.label, "wall_s": o.wall, "cpu_s": o.cpu, "members": o.members,
            "problem": o.problem, "csv_sha256": o.sha256} for o in outcomes]
    record = {"workload": workload, "seed": seed, "trace": trace,
              "provenance": provenance(clocklab), "metrics": metrics, "operations": ops}
    if spans is not None:
        record["spans"] = spans
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    clocklab = load_clocklab()
    if args.setup_probe:
        prepare(clocklab, workloads.generate(args.workload, args.seed))
        print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        return 0

    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    spans = None
    try:
        if args.trace:
            metrics, outcomes, spans = measure_traced(clocklab, args.workload, args.seed,
                                                      workdir)
        else:
            metrics, outcomes = measure(clocklab, args.workload, args.seed, args.seconds,
                                        workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    record = write_record(args.workload, args.seed, args.trace, clocklab, metrics,
                          outcomes, spans)
    failed = [o for o in outcomes if o.problem is not None]
    for o in failed:
        print(f"FAILED {o.label}: {o.problem}", file=sys.stderr)
    units = layers.UNITS if args.trace else UNITS
    for name, value in metrics.items():
        print(f"{name:42s} {value:16.6g} {units[name]}")
    print(f"failed_ratio {len(failed) / len(outcomes):.6g} over {len(outcomes)} operations; "
          f"record: {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
