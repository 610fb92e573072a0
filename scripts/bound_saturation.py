#!/usr/bin/env python3
"""Clock-bound study: sweep the rest-energy width of a fast clock, find the
width that saturates the variance bound, and contrast it with a clock at
rest, whose exact reading variance stays far below the sharp-energy
prediction."""
import argparse
from pathlib import Path

import numpy as np

from clocklab import (
    GaussianClockSpec,
    gaussian_state,
    optimize_clock_width,
    salecker_wigner_check,
    state_moments,
    tau_moments_simulated,
)
from clocklab.csvio import emit_csv
from clocklab.search import OptimizerBracketError


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out", type=Path)
    ap.add_argument("--e0", default=10.0, type=float)
    ap.add_argument("--p0", default=1000.0, type=float)
    ap.add_argument("--t", default=100.0, type=float)
    args = ap.parse_args()

    rows = []
    for sigma_e in np.logspace(np.log10(0.05), np.log10(2.0), 12):
        state = gaussian_state(GaussianClockSpec(args.e0, sigma_e, p0=args.p0,
                                                 sigma_p=0.05), t_max=args.t)
        chk = salecker_wigner_check(state_moments(state), tau_moments_simulated(state, args.t))
        rows.append([sigma_e, chk.lhs, chk.rhs, int(chk.satisfied), chk.sharpness])
    path = args.out_dir / "bound_sweep.csv"
    emit_csv(rows, ["sigma_e", "var_tau", "bound", "satisfied", "sharpness"], path)
    print(f"wrote {path}")

    result = optimize_clock_width(e0=args.e0, p0=args.p0, sigma_p=0.05, t=args.t)
    print(f"boosted clock: best width {result.sigma_e_opt:.4f} gives variance "
          f"{result.min_var:.6f} vs bound {result.bound:.6f} "
          f"({result.min_var / result.bound - 1.0:+.2%})")

    try:
        optimize_clock_width(e0=args.e0, p0=0.0, sigma_p=0.05, t=args.t,
                             sigma_bounds=(0.05, 1.0))
    except OptimizerBracketError as err:
        state = gaussian_state(GaussianClockSpec(args.e0, 1.0, p0=0.0, sigma_p=0.05),
                               t_max=args.t)
        chk = salecker_wigner_check(state_moments(state), tau_moments_simulated(state, args.t))
        print("rest clock: no interior optimum; variance stays reading-dominated "
              f"({chk.lhs:.4f} at the widest admissible width vs bound {chk.rhs:.4f}) "
              f"[{err}]")


if __name__ == "__main__":
    main()
