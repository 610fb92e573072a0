#!/usr/bin/env python3
"""Integrate the reference clock trajectories (special-relativistic cruise,
held clock in a weak field, constant-force hyperbolic motion) and print
their constraint, conservation and rate diagnostics."""
import argparse
from pathlib import Path

from clocklab import (
    StaticMetric,
    geodesic_lorentz_residual,
    integrate,
    moving_clock,
    proper_time_residual,
    total_hamiltonian,
    uniform_lapse_metric,
)
from clocklab.csvio import emit_csv
from clocklab.dynamics import constraint_drift, relative_drift


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out", type=Path)
    ap.add_argument("--dt", default=1e-3, type=float)
    ap.add_argument("--t-end", default=10.0, type=float)
    args = ap.parse_args()

    cases = {
        "cruise_v06": (StaticMetric(), 0.0, moving_clock(1.0, (0.75, 0.0, 0.0)), False),
        "held_weak_field": (uniform_lapse_metric(0.05), 0.0,
                            moving_clock(1.0, x=(2.0, 0.0, 0.0)), True),
        "constant_force": (StaticMetric(a0_slope=0.02), 0.5, moving_clock(1.0), False),
    }
    for name, (metric, charge, pt0, hold) in cases.items():
        states = integrate(pt0, metric, charge, args.t_end, args.dt, hold_x=hold)
        phi1, phi2 = constraint_drift(states)
        h_drift = relative_drift(total_hamiltonian(states, metric, charge))
        m_drift = relative_drift(states[:, 2])
        ptr = proper_time_residual(states, args.dt, metric)
        geo = (float("nan") if hold
               else geodesic_lorentz_residual(states, args.dt, metric, charge))
        rows = [[args.dt * i, states[i, 0], *states[i, 4:10]]
                for i in range(0, len(states), 10)]
        path = args.out_dir / f"{name}.csv"
        emit_csv(rows, ["t", "tau", "x1", "x2", "x3", "p1", "p2", "p3"], path)
        print(f"{name}: tau({args.t_end}) = {states[-1, 0]:.9f}  "
              f"phi = {max(phi1, phi2):.1e}  dH/H = {h_drift:.1e}  dM/M = {m_drift:.1e}  "
              f"rate residual = {ptr:.1e}  motion residual = {geo:.1e}  -> {path}")


if __name__ == "__main__":
    main()
