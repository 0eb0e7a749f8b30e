"""Smoke tests of the study scripts under scripts/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ladder_order_study_prints_one_slope_per_order():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ladder_order_study.py"),
         "--size", "16", "--points", "2", "--orders", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    slopes = [line for line in done.stdout.splitlines() if "slope=" in line]
    assert [line.split(":")[0] for line in slopes] == ["m=1", "m=2"]
