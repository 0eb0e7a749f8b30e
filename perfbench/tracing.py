"""In-memory layer tracing for the benchmark, installed from outside src/.

`Tracer.install()` wraps the public entry point of each twistk layer:

* module functions are replaced in every loaded ``twistk`` module that
  binds them (``runner`` does ``from .engine import newton_solve``, so
  patching only ``engine`` would miss those calls, and ``solvers``
  calls its own ``solve_shifted`` through its module global);
* methods are replaced on the class (``PeriodicGrid.fft``/``ifft``,
  ``LinearOperatorHandle.apply``/``__post_init__`` and
  ``KahlerStructure.__post_init__``), which dataclass ``__init__`` looks
  up at call time.

Each wrapped call records a span ``[name, layer, start, end, parent]``
in memory plus the counters listed in `COUNTERS`; `summary()` derives
the span-based metrics (busy time per entry point, self time per layer,
eigenvalue inner solves, line-search acceptance).  `uninstall()` puts
every original binding back.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

LAYERS = ("grid", "geometry", "operators", "solvers", "engine", "runner",
          "fieldio")

# every operator kind; no scenario builds "lichnerowicz" (only the unit
# tests do), so its counts read 0 on every workload
KINDS = ("twist", "lichnerowicz", "full_linearization", "shifted")

# metric name -> unit for everything summary() returns
COUNTERS = {
    "grid.transforms": "count",
    "grid.transform_s": "s",
    "grid.points_transformed": "count",
    "grid.bytes_computed": "bytes",
    "geometry.structures": "count",
    "geometry.structure_s": "s",
    "geometry.degenerate": "count",
    **{f"operators.apply.{k}": "count" for k in KINDS},
    **{f"operators.apply_s.{k}": "s" for k in KINDS},
    **{f"operators.handles.{k}": "count" for k in KINDS},
    "operators.apply_s": "s",
    "operators.handle_s": "s",
    "solvers.pcg_solves": "count",
    "solvers.pcg_iterations": "count",
    "solvers.pcg_s": "s",
    "solvers.gmres_solves": "count",
    "solvers.gmres_iterations": "count",
    "solvers.gmres_failures": "count",
    "solvers.gmres_s": "s",
    "solvers.eigen_calls": "count",
    "solvers.eigen_inner_solves": "count",
    "solvers.eigen_failures": "count",
    "solvers.eigen_s": "s",
    "engine.newton_solves": "count",
    "engine.newton_iterations": "count",
    "engine.newton_failures": "count",
    "engine.newton_s": "s",
    "engine.residual_evals": "count",
    "engine.line_search_trials": "count",
    "engine.line_search_accept_ratio": "ratio",
    "engine.ladder_builds": "count",
    "engine.ladder_s": "s",
    "runner.scenario_s": "s",
    "fieldio.bytes_written": "bytes",
    "fieldio.write_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}

# span name -> metric that sums the durations of those spans
_BUSY = {
    "grid.fft": "grid.transform_s",
    "grid.ifft": "grid.transform_s",
    "geometry.KahlerStructure": "geometry.structure_s",
    **{f"operators.apply.{k}": f"operators.apply_s.{k}" for k in KINDS},
    **{f"operators.handle.{k}": "operators.handle_s" for k in KINDS},
    "solvers.solve_F": "solvers.pcg_s",
    "solvers.solve_shifted": "solvers.pcg_s",
    "solvers.green_solve": "solvers.pcg_s",
    "solvers.newton_linear_solve": "solvers.gmres_s",
    "solvers.extreme_eigenvalue": "solvers.eigen_s",
    "engine.newton_solve": "engine.newton_s",
    "engine.build_approximate_solution": "engine.ladder_s",
    "runner.run_scenario": "runner.scenario_s",
    "fieldio.write_field": "fieldio.write_s",
}


class Tracer:
    """Span and counter recorder for one traced scenario call."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------

    def _open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, layer: str, name, on_result=None, on_error=None):
        """Wrapper recording one span per call; `name` may be a callable
        of the call arguments (for per-kind operator spans)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = tracer._open(label, layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                tracer._close(idx)
                if on_error is not None:
                    on_error(err)
                raise
            tracer._close(idx)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    # -- installation --------------------------------------------------

    def _patch_function(self, module_name: str, attr: str, layer: str,
                        on_result=None, on_error=None) -> None:
        original = getattr(sys.modules[module_name], attr)
        wrapper = self._wrap(original, layer, f"{layer}.{attr}",
                             on_result, on_error)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "twistk" and not mod_name.startswith("twistk."):
                continue
            if getattr(module, attr, None) is original:
                self._restore.append((module, attr, original))
                setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr: str, layer: str, name,
                      on_result=None, on_error=None) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, layer, name, on_result,
                                      on_error))

    def install(self) -> None:
        """Wrap every layer entry point; twistk must already be imported."""
        from twistk.errors import (DegenerateMetricError, IterationLimitError,
                                   TwistkError)
        from twistk.geometry import KahlerStructure
        from twistk.grid import PeriodicGrid
        from twistk.operators import LinearOperatorHandle

        if self._restore:
            raise RuntimeError("tracer is already installed")
        c = self.counts

        def on_transform(out, args):
            values = args[1]
            c["grid.transforms"] += 1
            c["grid.points_transformed"] += values.size
            c["grid.bytes_computed"] += values.nbytes + out.nbytes

        def on_structure(_out, _args):
            c["geometry.structures"] += 1

        def on_structure_error(err):
            c["geometry.structures"] += 1
            if isinstance(err, DegenerateMetricError):
                c["geometry.degenerate"] += 1

        def on_handle(_out, args):
            c[f"operators.handles.{args[0].kind}"] += 1

        def on_apply(_out, args):
            c[f"operators.apply.{args[0].kind}"] += 1

        def on_pcg(out, _args):
            c["solvers.pcg_solves"] += 1
            c["solvers.pcg_iterations"] += out[1]["iterations"]

        def on_gmres(out, _args):
            c["solvers.gmres_solves"] += 1
            c["solvers.gmres_iterations"] += out[1]["iterations"]

        def on_gmres_error(err):
            c["solvers.gmres_solves"] += 1
            if isinstance(err, IterationLimitError):
                c["solvers.gmres_failures"] += 1

        def on_eigen(_out, _args):
            c["solvers.eigen_calls"] += 1

        def on_eigen_error(err):
            c["solvers.eigen_calls"] += 1
            if isinstance(err, TwistkError):
                c["solvers.eigen_failures"] += 1

        def on_newton(report, _args):
            c["engine.newton_solves"] += 1
            c["engine.newton_iterations"] += report.iterations
            c["engine.newton_failures"] += 0 if report.converged else 1

        def on_newton_error(_err):
            c["engine.newton_solves"] += 1
            c["engine.newton_failures"] += 1

        def on_residual(_out, _args):
            c["engine.residual_evals"] += 1

        def on_ladder(_out, _args):
            c["engine.ladder_builds"] += 1

        def on_write(_out, args):
            c["fieldio.bytes_written"] += os.path.getsize(args[0])

        self._patch_method(PeriodicGrid, "fft", "grid", "grid.fft",
                           on_transform)
        self._patch_method(PeriodicGrid, "ifft", "grid", "grid.ifft",
                           on_transform)
        self._patch_method(KahlerStructure, "__post_init__", "geometry",
                           "geometry.KahlerStructure", on_structure,
                           on_structure_error)
        self._patch_method(LinearOperatorHandle, "__post_init__", "operators",
                           lambda args: f"operators.handle.{args[0].kind}",
                           on_handle)
        self._patch_method(LinearOperatorHandle, "apply", "operators",
                           lambda args: f"operators.apply.{args[0].kind}",
                           on_apply)
        for attr in ("solve_F", "solve_shifted", "green_solve"):
            self._patch_function("twistk.solvers", attr, "solvers", on_pcg)
        self._patch_function("twistk.solvers", "newton_linear_solve", "solvers",
                             on_gmres, on_gmres_error)
        self._patch_function("twistk.solvers", "extreme_eigenvalue", "solvers",
                             on_eigen, on_eigen_error)
        self._patch_function("twistk.engine", "newton_solve", "engine",
                             on_newton, on_newton_error)
        self._patch_function("twistk.engine", "twisted_residual", "engine",
                             on_residual)
        self._patch_function("twistk.engine", "build_approximate_solution",
                             "engine", on_ladder)
        self._patch_function("twistk.runner", "run_scenario", "runner")
        self._patch_function("twistk.fieldio", "write_field", "fieldio",
                             on_write)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- derived metrics -----------------------------------------------

    def summary(self) -> dict[str, float]:
        """Every metric in COUNTERS, from the counters and the spans.

        A layer's self time is the summed duration of its spans minus
        the part of each covered by child spans (children of one span
        never overlap: the program is single-threaded).
        """
        out: dict[str, float] = {name: 0.0 if unit == "s" else 0
                                 for name, unit in COUNTERS.items()}
        out.update(self.counts)
        child_time = [0.0] * len(self.spans)
        for name, _layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        newton_spans = set()
        eigen_spans = set()
        for idx, (name, layer, start, end, parent) in enumerate(self.spans):
            duration = end - start
            out[f"{layer}.self_s"] += duration - child_time[idx]
            busy = _BUSY.get(name)
            if busy is not None:
                out[busy] += duration
            if name.startswith("operators.apply."):
                out["operators.apply_s"] += duration
            elif name == "engine.newton_solve":
                newton_spans.add(idx)
            elif name == "solvers.extreme_eigenvalue":
                eigen_spans.add(idx)
        inner = 0
        trials = 0
        for name, _layer, _start, _end, parent in self.spans:
            if name == "solvers.solve_shifted" and _has_ancestor(
                    self.spans, parent, eigen_spans):
                inner += 1
            elif name == "engine.twisted_residual" and parent in newton_spans:
                trials += 1
        out["solvers.eigen_inner_solves"] = inner
        # the first residual of every Newton solve is its starting point,
        # not a line-search trial; each iteration accepts one trial
        trials -= len(newton_spans)
        out["engine.line_search_trials"] = trials
        out["engine.line_search_accept_ratio"] = (
            out["engine.newton_iterations"] / trials if trials > 0 else 0.0)
        return out


def _has_ancestor(spans: list[list], idx: int, targets: set[int]) -> bool:
    while idx >= 0:
        if idx in targets:
            return True
        idx = spans[idx][4]
    return False

