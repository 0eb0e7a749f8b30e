"""Smoke tests of the study scripts under scripts/."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=120)


def test_ladder_order_study_prints_one_slope_per_order():
    done = _run("ladder_order_study.py", "--size", "16", "--points", "2",
                "--orders", "2")
    assert done.returncode == 0, done.stderr
    slopes = [line for line in done.stdout.splitlines() if "slope=" in line]
    assert [line.split(":")[0] for line in slopes] == ["m=1", "m=2"]


@pytest.mark.parametrize("argv, line", [
    (["continuity_path.py", "--size", "16", "--points", "3"],
     "success=True smallest converged R=0.0"),
    (["threshold_scan.py", "--size", "16", "--amplitudes", "0.1"],
     "largest threshold over the scan: 0.0"),
], ids=["continuity_path", "threshold_scan"])
def test_study_script_reaches_the_untwisted_end(argv, line):
    done = _run(*argv)
    assert done.returncode == 0, done.stderr
    assert line in done.stdout.splitlines()


def test_continuity_path_refuses_a_one_point_schedule():
    done = _run("continuity_path.py", "--size", "16", "--points", "1")
    assert done.returncode == 2
    assert "--points: t schedule needs an integer number of points >= 2" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv, message", [
    (["ladder_order_study.py", "--size", "16", "--points", "1"],
     "--points: the fit needs at least 2 weights, got 1"),
    (["continuity_path.py", "--size", "15"],
     "--size: axis sizes must be even and >= 4, got 15"),
    (["threshold_scan.py", "--size", "16", "--floor", "0"],
     "--floor: must be > 0, got 0.0"),
    (["threshold_scan.py", "--size", "16", "--r-start", "-1"],
     "--r-start: must be > 0, got -1.0"),
    (["ladder_order_study.py", "--size", "15"],
     "--size: axis sizes must be even and >= 4, got 15"),
    (["threshold_scan.py", "--size", "15"],
     "--size: axis sizes must be even and >= 4, got 15"),
], ids=["ladder_order_study-points", "continuity_path-size", "threshold_scan-floor",
        "threshold_scan-r-start", "ladder_order_study-size", "threshold_scan-size"])
def test_a_bad_argument_is_a_usage_error(argv, message):
    done = _run(*argv)
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr
