"""Self-checks of the benchmark harness.

    python3 -m pytest perfbench

The traced work counters must repeat exactly for one seed, and a second
seed must do the same work (on sweep-n1-32, the same work outside the
eigenvalue stage, whose Lanczos start vector comes from the seed).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import twistk.engine  # noqa: E402
import twistk.runner  # noqa: E402
import twistk.solvers  # noqa: E402
from twistk.config import parse_config  # noqa: E402
from twistk.grid import PeriodicGrid  # noqa: E402

from run import Client  # noqa: E402
from tracing import COUNTERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNT_NAMES = [name for name, unit in COUNTERS.items() if unit != "s"]

# counters that follow the Lanczos start vector on sweep-n1-32
EIGEN_DEPENDENT = {
    "grid.transforms", "grid.points_transformed", "grid.bytes_computed",
    "operators.apply.shifted", "operators.handles.shifted",
    "solvers.pcg_solves", "solvers.pcg_iterations",
    "solvers.eigen_inner_solves",
}


def _traced_counts(name: str, seed: int, outdir: Path) -> dict:
    workload = WORKLOADS[name]
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = parse_config(json.dumps(workload.make_config(seed, str(outdir))))
    tracer = Tracer()
    _elapsed, outcome = Client(workload, cfg, outdir).call(tracer)
    assert outcome.ok, outcome.problems
    summary = tracer.summary()
    return {name: summary[name] for name in COUNT_NAMES}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counters_repeat_and_follow_only_the_work(name, tmp_path):
    first = _traced_counts(name, 11, tmp_path / "a")
    again = _traced_counts(name, 11, tmp_path / "b")
    assert again == first
    other = _traced_counts(name, 12, tmp_path / "c")
    fixed = [n for n in COUNT_NAMES
             if name != "sweep-n1-32" or n not in EIGEN_DEPENDENT]
    assert {n: other[n] for n in fixed} == {n: first[n] for n in fixed}
    assert first["grid.transforms"] > 0
    assert first["engine.ladder_builds"] > 0


def test_hooks_reach_every_binding_and_are_removed():
    originals = (twistk.engine.newton_solve, twistk.solvers.solve_shifted,
                 PeriodicGrid.__dict__["fft"])
    tracer = Tracer()
    tracer.install()
    try:
        assert twistk.runner.newton_solve is twistk.engine.newton_solve
        assert twistk.engine.newton_solve is not originals[0]
        assert twistk.solvers.solve_shifted is not originals[1]
        assert twistk.runner.solve_shifted is twistk.solvers.solve_shifted
        assert PeriodicGrid.__dict__["fft"] is not originals[2]
    finally:
        tracer.uninstall()
    assert twistk.engine.newton_solve is originals[0]
    assert twistk.runner.newton_solve is originals[0]
    assert twistk.solvers.solve_shifted is originals[1]
    assert PeriodicGrid.__dict__["fft"] is originals[2]


def test_span_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["engine.newton_solve", "engine", 0.0, 10.0, -1],
                    ["solvers.newton_linear_solve", "solvers", 1.0, 4.0, 0],
                    ["grid.fft", "grid", 2.0, 3.0, 1],
                    ["engine.twisted_residual", "engine", 5.0, 6.0, 0],
                    ["engine.twisted_residual", "engine", 6.0, 7.0, 0]]
    tracer.counts["engine.newton_iterations"] = 1
    out = tracer.summary()
    assert out["engine.self_s"] == pytest.approx(5.0 + 1.0 + 1.0)
    assert out["solvers.self_s"] == pytest.approx(2.0)
    assert out["grid.self_s"] == pytest.approx(1.0)
    assert out["engine.newton_s"] == pytest.approx(10.0)
    # two residuals inside one solve: one starting point, one trial
    assert out["engine.line_search_accept_ratio"] == pytest.approx(1.0)


def test_benchmark_json_lists_every_workload_and_traced_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == {**COUNTERS, "trace.overhead_s": "s"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-n1-32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
