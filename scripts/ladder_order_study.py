"""Residual decay of the correction ladder against the twist weight.

For a seed metric proportional to the twist form, builds one
order-`--orders` ladder per weight of a geometric R schedule, reads the
order-m approximate solution off rung m, and fits the decay exponent of
the residual sup norm for each m; the expected law is R^(-m).
"""

import argparse
import sys

import numpy as np

from twistk.engine import SolverConfig, build_approximate_solution
from twistk.errors import DomainError
from twistk.geometry import HermitianFormField, KahlerStructure
from twistk.grid import PeriodicGrid, make_trig_field
from twistk.oracles import order_fit


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=32, help="points per axis")
    parser.add_argument("--orders", type=int, default=3, help="largest ladder order")
    parser.add_argument("--rmin", type=float, default=50.0)
    parser.add_argument("--points", type=int, default=5, help="R values, doubling from rmin")
    parser.add_argument("--amplitude", type=float, default=0.3)
    args = parser.parse_args()
    if args.points < 2:
        # the decay exponent is fitted across weights
        parser.error(f"--points: the fit needs at least 2 weights, got {args.points}")
    try:
        grid = PeriodicGrid(1, (args.size, args.size))
    except DomainError as err:
        parser.error(f"--size: {err}")
    g0 = np.eye(1, dtype=complex)
    half = args.amplitude / 2.0
    pot = make_trig_field(grid, [(half, (1, 1), 0.0), (half, (1, -1), 0.0)])
    base = KahlerStructure(grid, g0, pot.values)
    alpha = HermitianFormField.from_potential(grid, g0, pot.values)
    cfg = SolverConfig()
    schedule = [args.rmin * 2.0 ** i for i in range(args.points)]

    print(f"grid {args.size}x{args.size}, seed amplitude {args.amplitude}, "
          f"R in {schedule}")
    rung_sups = [build_approximate_solution(base, alpha, R, args.orders,
                                            cfg).residual_sups
                 for R in schedule]
    for m in range(1, args.orders + 1):
        sups = [r[m] for r in rung_sups]
        fit = order_fit(schedule, sups)
        scaled = [s * R ** m for R, s in zip(schedule, sups)]
        print(f"m={m}: slope={fit.exponent:+.4f} (target {-m}), "
              f"scaled-residual spread {max(scaled) / min(scaled):.4f}")
        for R, s in zip(schedule, sups):
            print(f"    R={R:8.1f}  sup={s:.6e}  R^m*sup={s * R ** m:.6e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
