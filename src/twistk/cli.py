"""Command-line front end.

One scenario per invocation:

    twistk solve     [options]     single twisted solve
    twistk ladder    [options]     approximate-solution order study
    twistk sweep     [options]     continuity path over t
    twistk threshold [options]     smallest solvable twist weight
    twistk perturb   [options]     twist continuation at fixed weight
    twistk verify    [options]     deterministic oracle cross-checks

Options: --config PATH (JSON, see config module), --out DIR, --seed N,
--grid N1,N2[,N3,N4], --tol X (Newton tolerance), --threads K.  The
subcommand fixes the scenario kind regardless of the config file's
"scenario" entry.  Exit status: 0 all solves converged / checks passed, 1
solver failure (reports still written), 2 bad configuration or usage.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from pathlib import Path

from .config import canonical_form, default_config, parse_config
from .errors import ConfigError, TwistkError
from .grid import set_fft_workers
from .runner import run_scenario

_SUBCOMMANDS = {
    "solve": "single_solve",
    "ladder": "ladder_study",
    "sweep": "continuity_sweep",
    "threshold": "threshold",
    "perturb": "twist_perturbation",
    "verify": "verify_suite",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistk",
        description="Twisted constant-scalar-curvature solver on flat tori")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, scenario in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"run the {scenario} scenario")
        p.add_argument("--config", type=Path, default=None,
                       help="JSON run configuration")
        p.add_argument("--out", type=str, default=None,
                       help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (overrides config)")
        p.add_argument("--grid", type=str, default=None,
                       help="comma-separated sizes N1,N2[,N3,N4]")
        p.add_argument("--tol", type=float, default=None,
                       help="Newton residual tolerance (overrides config)")
        p.add_argument("--threads", type=int, default=None,
                       help="FFT worker threads")
    return parser


def _parse_grid(text: str):
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError as err:
        raise ConfigError([f"--grid: not integers: {text!r}"]) from err
    if len(sizes) not in (2, 4):
        raise ConfigError(["--grid: expected 2 or 4 comma-separated sizes"])
    if any(s < 4 or s % 2 for s in sizes):
        raise ConfigError(["--grid: each size must be even and >= 4"])
    return sizes


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    scenario = _SUBCOMMANDS[args.command]
    try:
        if args.config is not None:
            cfg = parse_config(Path(args.config).read_text(), run_as=scenario)
        else:
            cfg = default_config(scenario)
        if args.grid is not None:
            sizes = _parse_grid(args.grid)
            cfg = replace(cfg, n=len(sizes) // 2, sizes=sizes)
        if args.out is not None:
            cfg = replace(cfg, out=args.out)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(["--seed: must be non-negative"])
            cfg = replace(cfg, seed=args.seed)
        if args.tol is not None:
            if not 0.0 < args.tol < 1.0:
                raise ConfigError(["--tol: must lie in (0, 1)"])
            cfg = replace(cfg, newton_tol=args.tol)
        if args.threads is not None:
            if args.threads < 1:
                raise ConfigError(["--threads: must be >= 1"])
            set_fft_workers(args.threads)
        # overrides can combine into an inconsistent config (a --grid
        # dimension switch with dimension-specific defaults, say); the
        # parser owns all cross-field validation, so round-trip once.  The
        # round-trip text is never shown, so its line numbers are dropped
        try:
            cfg = parse_config(canonical_form(cfg))
        except ConfigError as err:
            raise ConfigError([re.sub(r" \(line \d+\)$", "", line)
                               for line in err.diagnostics]) from err
    except ConfigError as err:
        for line in err.diagnostics:
            print(f"twistk: config error: {line}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"twistk: {err}", file=sys.stderr)
        return 2

    try:
        return run_scenario(cfg)
    except TwistkError as err:
        print(f"twistk: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
