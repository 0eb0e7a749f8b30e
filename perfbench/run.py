"""twistk benchmark: scenario workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads are sweep-n1-32,
threshold-n2-16 and ladder-n1-128 (see workloads.py).

Load is a closed loop: one client, one scenario call at a time, each
starting when the previous returns.  BLAS/OpenMP threads are pinned to 1
in this process's environment and twistk keeps its default of one FFT
worker.  Every call is checked against mathematical invariants of its
artifacts; a call that raises, exits non-zero or fails its check counts
as failed.  The verify_suite scenario runs once per invocation, untimed,
as a gate.

--trace 0 prints the end-to-end metrics:
  setup_s      median over fresh interpreters of import twistk, config
               parsing and validation, and building the grid and forms;
               one probe runs before every timed call, so set-up and
               wall time are sampled across the same stretch of time
  wall_s       median run_scenario wall time (the first call of the
               --seconds window is an untimed warm-up)
  solves_per_s converged Newton solves (ladder builds for ladder-n1-128)
               per second of wall, the median over timed calls
  peak_rss_mb  peak resident memory of this process
and fail_frac, failed over attempted calls, with both counts (the result
line carries the counts as attempted and failed).
--trace 1 alternates untraced and traced calls and prints the per-layer
counters and times from tracing.py, plus the tracing overhead (median
over adjacent pairs of traced minus untraced wall).  Spans of the first
traced call are written to .perfbench/<workload>/trace-seed<N>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units are
the ones BENCHMARK.json lists for the chosen mode.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import COUNTERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, check_verify, verify_config  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
PROBE_TIMEOUT_S = 60.0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _require_source() -> None:
    if not (ROOT / "src" / "twistk" / "__init__.py").is_file():
        print(f"perfbench: no twistk sources under {ROOT / 'src'}; run from "
              "a repository checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def _metric_specs(mode: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[mode]}


def _environment(seed: int) -> dict:
    import numpy as np
    import scipy
    from twistk.grid import fft_workers

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "fft_workers": fft_workers(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": commit,
        "seed": seed,
    }


def _setup_time(config_path: Path) -> float:
    """Time from starting a fresh interpreter to its ``ready`` line."""
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                           str(config_path)],
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


class Client:
    """Closed-loop client issuing one scenario call at a time."""

    def __init__(self, workload, cfg, outdir: Path):
        from twistk import runner

        self.runner = runner
        self.workload = workload
        self.cfg = cfg
        self.outdir = outdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, tracer: Tracer | None = None) -> tuple[float, Outcome]:
        for name in ("summary.json", "steps.csv"):
            (self.outdir / name).unlink(missing_ok=True)
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        started = time.perf_counter()
        try:
            # looked up per call so a traced call goes through the wrapper
            status = self.runner.run_scenario(self.cfg)
        except Exception as err:
            elapsed = time.perf_counter() - started
            traceback.print_exc(file=sys.stderr)
            outcome = Outcome(False, 0, (f"run_scenario raised {err!r}",))
        else:
            elapsed = time.perf_counter() - started
            try:
                outcome = self.workload.check(self.outdir, status)
            except (OSError, ValueError, KeyError) as err:
                outcome = Outcome(False, 0, (f"unreadable artifacts: {err!r}",))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if not outcome.ok:
            self.failed += 1
            self.problems.extend(outcome.problems)
        return elapsed, outcome


def _gate(workdir: Path) -> list[str]:
    from twistk.config import parse_config
    from twistk.runner import run_scenario

    outdir = workdir / "verify"
    cfg = parse_config(json.dumps(verify_config(str(outdir))))
    try:
        status = run_scenario(cfg)
        return list(check_verify(outdir, status).problems)
    except Exception as err:
        traceback.print_exc(file=sys.stderr)
        return [f"verify suite raised {err!r}"]


def _untraced(client: Client, seconds: float,
              config_path: Path) -> dict[str, float]:
    started = time.perf_counter()
    client.call()  # warm-up: FFT plans, lazy scipy imports
    setups = []
    walls = []
    rates = []
    while not walls or time.perf_counter() - started < seconds:
        setups.append(_setup_time(config_path))
        elapsed, outcome = client.call()
        walls.append(elapsed)
        rates.append(outcome.work / elapsed)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"setup_s samples {len(setups)}: "
          + " ".join(f"{s:.4f}" for s in setups))
    print(f"wall_s samples {len(walls)}: "
          + " ".join(f"{w:.4f}" for w in walls))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "solves_per_s": statistics.median(rates),
        "peak_rss_mb": rss_kib / 1024.0,
    }


def _traced(client: Client, seconds: float, trace_path: Path,
            env: dict) -> tuple[dict[str, float], list[str]]:
    started = time.perf_counter()
    client.call()  # warm-up, as in the untraced mode
    untraced = []
    traced = []
    summaries = []
    first = None
    while not traced or time.perf_counter() - started < seconds:
        untraced.append(client.call()[0])
        tracer = Tracer()
        traced.append(client.call(tracer)[0])
        summaries.append(tracer.summary())
        if first is None:
            first = tracer
    counts = [name for name, unit in COUNTERS.items() if unit != "s"]
    problems = []
    for later in summaries[1:]:
        moved = [n for n in counts if later[n] != summaries[0][n]]
        if moved:
            problems.append(f"traced counters differ between calls: {moved}")
    metrics = {name: summaries[0][name] for name in counts}
    for name, unit in COUNTERS.items():
        if unit == "s":
            metrics[name] = statistics.median(s[name] for s in summaries)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.traced_wall_s"] = statistics.median(traced)
    # adjacent pairs, so that slow drift in machine speed cancels
    metrics["trace.overhead_s"] = statistics.median(
        t - u for u, t in zip(untraced, traced))
    trace_path.write_text(json.dumps({
        "env": env,
        "metrics": metrics,
        "span_fields": ["name", "layer", "start", "end", "parent"],
        "spans": first.spans,
    }) + "\n")
    print(f"traced calls {len(traced)}, spans written to {trace_path}")
    return metrics, problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    # before the first numpy import, here and in the set-up probes
    for var in THREAD_VARS:
        os.environ[var] = "1"
    _require_source()
    mode = "per_layer" if args.trace else "end_to_end"
    specs = _metric_specs(mode)
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench" / workload.name
    outdir = workdir / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    config_text = json.dumps(workload.make_config(args.seed, str(outdir)))

    metrics: dict[str, float] = {}
    problems: list[str] = []
    config_path = workdir / "config.json"
    config_path.write_text(config_text)

    from twistk.config import parse_config

    env = _environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    client = Client(workload, parse_config(config_text), outdir)
    if args.trace:
        traced, problems = _traced(client, args.seconds,
                                   workdir / f"trace-seed{args.seed}.json", env)
        metrics.update(traced)
    else:
        metrics.update(_untraced(client, args.seconds, config_path))
    problems += _gate(workdir)

    for name in sorted(metrics):
        unit = specs.get(name) or COUNTERS.get(name, "s")
        listed = "" if name in specs else "  (report only)"
        print(f"{name} = {metrics[name]!r} {unit}{listed}")
    print(f"fail_frac = {client.failed / client.attempted!r} ratio "
          f"({client.failed} failed of {client.attempted} attempted)")
    for problem in client.problems + problems:
        print(f"problem: {problem}")
    correct = client.failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in specs.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
