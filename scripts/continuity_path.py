"""March the continuity path t -> 1 and report the failure frontier.

The path solves t*S(omega_phi) - (1-t)*tr_{omega_phi}(alpha) = const,
parametrised here by the weight R = (1-t)/t.  Every step reports the
Newton residual and the extreme eigenvalue of the shifted operator, or
the error that kept the eigenvalue from being certified; non-converged
steps are kept so the frontier is visible.
"""

import argparse
import sys

import numpy as np

from twistk.config import default_t_schedule
from twistk.engine import SolverConfig, continuity_sweep
from twistk.geometry import HermitianFormField
from twistk.grid import PeriodicGrid, make_trig_field, sup_norm


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=32, help="points per axis")
    parser.add_argument("--points", type=int, default=20, help="t grid points")
    parser.add_argument("--amplitude", type=float, default=0.2,
                        help="twist potential amplitude on cos(x)")
    parser.add_argument("--ladder-order", type=int, default=2)
    parser.add_argument("--no-eigen", action="store_true",
                        help="skip the per-step eigenvalue estimate")
    args = parser.parse_args()

    grid = PeriodicGrid(1, (args.size, args.size))
    g0 = np.eye(1, dtype=complex)
    apot = make_trig_field(grid, [(args.amplitude, (1, 0), 0.0)])
    alpha = HermitianFormField.from_potential(grid, g0, apot.values)
    cfg = SolverConfig()

    chain = continuity_sweep(grid, g0, alpha, default_t_schedule(args.points),
                             cfg, ladder_order=args.ladder_order,
                             eigen_seed=None if args.no_eigen else 0)
    print(f"{'step':>4} {'t':>8} {'R':>10} {'ok':>3} {'residual':>12} "
          f"{'lambda1':>12} {'iters':>5}  warm start")
    for step, s in enumerate(chain.records):
        lam = "error" if s.eigen_error else f"{s.lambda1:.5f}"
        print(f"{step:>4} {s.t:8.4f} {s.R:10.4f} {'yes' if s.converged else 'NO':>3} "
              f"{s.residual_sup:12.3e} {lam:>12} {s.newton_iters:>5}  "
              f"{s.warm_source}")
        if s.eigen_error:
            print(f"     lambda1 not certified: {s.eigen_error}")
    success = all(s.converged for s in chain.records)
    # t increases, so the chain's last converged weight is the smallest
    print(f"success={success} smallest converged R={chain.R}")
    if chain.structure is not None:
        print(f"final potential sup={sup_norm(chain.structure.potential):.3e}")
    return 0 if success else 1


if __name__ == "__main__":
    sys.exit(main())
