"""Scan twist amplitudes for the smallest solvable weight R.

For each amplitude the twist is alpha = omega_0 + i d dbar(a cos x);
the order-2 seed ladder at --r-start starts one chain, and the
estimator shrinks R geometrically along it, then brackets the first
failure.  On the torus the expected threshold is 0 for every
amplitude keeping alpha positive.
"""

import argparse
import sys

import numpy as np

from twistk.engine import SolverConfig, estimate_R_threshold, seed_chain
from twistk.errors import DomainError
from twistk.geometry import HermitianFormField
from twistk.grid import PeriodicGrid, make_trig_field


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=32, help="points per axis")
    parser.add_argument("--amplitudes", type=float, nargs="+",
                        default=[0.05, 0.1, 0.2, 0.3])
    parser.add_argument("--r-start", type=float, default=8.0)
    parser.add_argument("--floor", type=float, default=0.05)
    args = parser.parse_args()
    # the chain is seeded at --r-start, so both weights are checked first
    for flag, value in (("--r-start", args.r_start), ("--floor", args.floor)):
        if not value > 0.0:
            parser.error(f"{flag}: must be > 0, got {value}")
    try:
        grid = PeriodicGrid(1, (args.size, args.size))
    except DomainError as err:
        parser.error(f"--size: {err}")
    g0 = np.eye(1, dtype=complex)
    cfg = SolverConfig()

    print(f"{'amplitude':>10} {'threshold':>10} {'bracket':>24} {'attempts':>8}")
    worst = 0.0
    for a in args.amplitudes:
        apot = make_trig_field(grid, [(a, (1, 0), 0.0)])
        alpha = HermitianFormField.from_potential(grid, g0, apot.values)
        chain = seed_chain(grid, g0, alpha, args.r_start, 2, cfg)
        est = estimate_R_threshold(chain, alpha, R_start=args.r_start,
                                   floor=args.floor, cfg=cfg)
        print(f"{a:>10.3f} {est.threshold:>10.5f} {str(est.bracket):>24} "
              f"{len(chain.records):>8}")
        worst = max(worst, est.threshold)
    print(f"largest threshold over the scan: {worst}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
