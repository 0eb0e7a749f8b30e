"""Benchmark workloads: seeded twistk configs and their correctness checks.

The seed sets the phases of the trig terms and the eigenvalue start seed.
Phases are whole grid steps, so a seed translates the discrete problem
exactly: Newton, GMRES, ladder and transform counts outside the eigenvalue
stage do not depend on it.  The Lanczos start vector does, so the
eigenvalue stage of sweep-n1-32 does a few percent more or fewer inner
solves from seed to seed.  Amplitudes, wavevectors, grids, schedules and
tolerances are fixed at the scenario defaults; tolerances are never
loosened.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

NEWTON_TOL = 1e-9


@dataclass(frozen=True)
class Outcome:
    """What one scenario call produced, judged from its artifacts."""

    ok: bool
    work: int
    problems: tuple[str, ...]


def _grid_shifts(seed: int, size: int, count: int) -> list[float]:
    """Translations by whole grid steps on an axis of `size` points."""
    rng = random.Random(seed)
    return [2.0 * math.pi * rng.randrange(size) / size for _ in range(count)]


def _term(amplitude: float, wavevector: list[int], phase: float) -> dict:
    return {"amplitude": amplitude, "wavevector": wavevector, "phase": phase}


def _eigen_seed(seed: int) -> int:
    return seed % (2 ** 31)


def sweep_config(seed: int, out: str) -> dict:
    """continuity_sweep default: n=1, 32^2, 20 t-steps, twist 0.2 cos x."""
    (phase,) = _grid_shifts(seed, 32, 1)
    return {"scenario": "continuity_sweep",
            "alpha_potential": [_term(0.2, [1, 0], phase)],
            "seed": _eigen_seed(seed), "out": out}


def threshold_config(seed: int, out: str) -> dict:
    """threshold at n=2, 16^4, identity classes, twist 0.2 cos x1."""
    (phase,) = _grid_shifts(seed, 16, 1)
    return {"scenario": "threshold", "n": 2, "sizes": [16, 16, 16, 16],
            "alpha_potential": [_term(0.2, [1, 0, 0, 0], phase)],
            "R_schedule": [8.0], "order": 2,
            "seed": _eigen_seed(seed), "out": out}


def ladder_config(seed: int, out: str) -> dict:
    """ladder_study default on 128^2; alpha is the metric form of the
    product seed 0.3 cos x cos y, so both potentials share the phases.
    A shift (a, b) of (x, y) moves the phases of cos(x +- y) by a +- b."""
    a, b = _grid_shifts(seed, 128, 2)
    p1, p2 = a + b, a - b
    product = [_term(0.15, [1, 1], p1), _term(0.15, [1, -1], p2)]
    return {"scenario": "ladder_study", "sizes": [128, 128],
            "omega_potential": product, "alpha_potential": product,
            "seed": _eigen_seed(seed), "out": out}


def verify_config(out: str) -> dict:
    """The deterministic cross-check suite at its canonical seed."""
    return {"scenario": "verify_suite", "seed": 0, "out": out}


def _read(outdir: Path) -> tuple[list[dict], dict]:
    summary = json.loads((outdir / "summary.json").read_text())
    steps = outdir / "steps.csv"
    rows = []
    if steps.exists():
        with open(steps, newline="") as fh:
            rows = [{k: float(v) for k, v in row.items()}
                    for row in csv.DictReader(fh)]
    return rows, summary


def check_sweep(outdir: Path, status: int) -> Outcome:
    rows, summary = _read(outdir)
    problems = []
    if status != 0 or summary.get("success") is not True:
        problems.append(f"exit status {status}, success {summary.get('success')}")
    if len(rows) != 20:
        problems.append(f"{len(rows)} steps, expected 20")
    converged = sum(1 for r in rows if r["residual_sup"] <= NEWTON_TOL)
    if converged != len(rows):
        problems.append(f"{len(rows) - converged} steps above residual {NEWTON_TOL:g}")
    flat = summary.get("final_metric_flat_sup", math.inf)
    if not flat <= 1e-12:
        problems.append(f"final metric off flat by {flat:.3e}")
    if rows:
        last = rows[-1]
        gap = abs(last["lambda1"] + 1.0 / 16.0)
        if last["t"] != 1.0 or not gap <= 1e-8:
            problems.append(f"lambda1 at t={last['t']} off -1/16 by {gap:.3e}")
    return Outcome(not problems, converged, tuple(problems))


def check_threshold(outdir: Path, status: int) -> Outcome:
    rows, summary = _read(outdir)
    problems = []
    if status != 0:
        problems.append(f"exit status {status}")
    converged = sum(1 for r in rows if r["residual_sup"] <= NEWTON_TOL)
    if not rows or converged != len(rows):
        problems.append(f"{converged} of {len(rows)} attempts converged")
    for key in ("threshold", "bracket_low", "bracket_high"):
        if summary.get(key) != 0.0:
            problems.append(f"{key} {summary.get(key)}, expected 0.0")
    return Outcome(not problems, converged, tuple(problems))


def check_ladder(outdir: Path, status: int) -> Outcome:
    rows, summary = _read(outdir)
    problems = []
    if status != 0:
        problems.append(f"exit status {status}")
    if len(rows) != 15:
        problems.append(f"{len(rows)} ladder builds, expected 15")
    for m in (1, 2, 3):
        slope = summary.get(f"slope_m{m}", math.nan)
        if not abs(slope + m) <= 0.2:
            problems.append(f"slope_m{m} = {slope}, expected {-m} +- 0.2")
    return Outcome(not problems, len(rows), tuple(problems))


def check_verify(outdir: Path, status: int) -> Outcome:
    _rows, summary = _read(outdir)
    failed = summary.get("failed", ["summary"])
    problems = [f"verify check failed: {name}" for name in failed]
    if status != 0 or summary.get("success") is not True:
        problems.append(f"verify suite exit status {status}")
    return Outcome(not problems, summary.get("checks", 0), tuple(problems))


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable[[int, str], dict]  # (seed, out dir) -> config
    check: Callable[[Path, int], Outcome]  # (out dir, exit status)


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep-n1-32", sweep_config, check_sweep),
        Workload("threshold-n2-16", threshold_config, check_threshold),
        Workload("ladder-n1-128", ladder_config, check_ladder),
    )
}
