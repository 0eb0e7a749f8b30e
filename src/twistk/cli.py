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
subcommand and the flags --out, --seed, --grid and --tol are config keys
(scenario, out, seed, sizes, newton_tol) that replace the file's entries
before `config.parse_config` validates anything, once; without --config
the file is an empty object.  Two or four grid sizes also set n to
len(sizes) // 2; any other count leaves n alone, so it gets one
diagnostic, the sizes one.  A flag's diagnostic names its key and no line.
A --threads below 1 is reported with the config's diagnostics; a valid
one sets the FFT worker count once the config is valid.  Exit
status: 0 all solves converged / checks passed, 1 solver failure
(reports still written), 2 bad configuration or usage, an output
directory that cannot be written (an --out that names a file) included.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import parse_config
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

# flags whose argparse dest is the config key they set
_KEY_FLAGS = ("out", "seed", "sizes", "newton_tol")


def _build_parser() -> argparse.ArgumentParser:
    def sizes(text: str) -> list[int]:
        return [int(part) for part in text.split(",")]

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
        p.add_argument("--grid", dest="sizes", metavar="N1,N2[,N3,N4]",
                       type=sizes, default=None,
                       help="grid sizes; 4 sizes switch to n=2 (overrides config)")
        p.add_argument("--tol", dest="newton_tol", metavar="X", type=float,
                       default=None,
                       help="Newton residual tolerance (overrides config)")
        p.add_argument("--threads", type=int, default=None,
                       help="FFT worker threads")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in _KEY_FLAGS
                 if getattr(args, key) is not None}
    overrides["scenario"] = _SUBCOMMANDS[args.command]
    if args.sizes is not None and len(args.sizes) in (2, 4):
        overrides["n"] = len(args.sizes) // 2
    diagnostics = ([] if args.threads is None or args.threads >= 1
                   else ["--threads: must be >= 1"])
    try:
        text = ("{}" if args.config is None
                else args.config.read_text(encoding="utf-8"))
        cfg = parse_config(text, overrides)
    except ConfigError as err:
        diagnostics = err.diagnostics + diagnostics
    except (OSError, UnicodeDecodeError) as err:
        print(f"twistk: cannot read {args.config}: {err}", file=sys.stderr)
        return 2
    if diagnostics:
        for line in diagnostics:
            print(f"twistk: config error: {line}", file=sys.stderr)
        return 2
    if args.threads is not None:
        set_fft_workers(args.threads)

    try:
        return run_scenario(cfg)
    except TwistkError as err:
        print(f"twistk: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"twistk: cannot write {cfg.out}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
