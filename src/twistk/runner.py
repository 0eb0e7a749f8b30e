"""Scenario execution: builds problems from configs, runs the engine,
and writes the report artifacts.

Every run emits into the output directory:

    manifest.json   canonical config, library versions, seed
    steps.csv       one row per step (header pinned below)
    summary.json    verdicts recomputable from the other artifacts
    fields/*.bin    final potential and metric in the binary format

verify_suite replaces steps.csv with verify.csv (check,value,tolerance,
pass); that file contains no timing column so repeated runs with the
same seed are bit-identical.
"""

from __future__ import annotations

import json
import math
import platform
import resource
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import RunConfig, config_to_dict, scenario_diagnostics
from .engine import (
    WarmChain,
    R_to_t,
    build_approximate_solution,
    continuity_sweep,
    estimate_R_threshold,
    newton_solve,
    perturb_twist,
    seed_chain,
    seed_structure,
    t_to_R,
    trivial_twist,
    twisted_residual,
)
from .errors import ConfigError, TwistkError, describe
from .fieldio import write_field
from .geometry import (
    CohomologyData,
    HermitianFormField,
    KahlerStructure,
    scalar_curvature,
    trace_form,
    volume_average,
    volume_mean_zero,
)
from .grid import (
    POCKETFFT_SOURCE,
    PeriodicGrid,
    ScalarField,
    euclid_mean_zero,
    flat_poisson_solve,
    hessian,
    make_trig_field,
    random_smooth_field,
    sup_norm,
)
from .operators import LinearOperatorHandle
from .oracles import (
    dense_spectrum,
    fd_directional_derivative,
    fd_hessian,
    order_fit,
)
from .solvers import SolverConfig, extreme_eigenvalue, solve_F, solve_shifted

CSV_HEADER = "step,t,R,residual_sup,residual_l2,lambda1,newton_iters,wall_ms"
VERIFY_HEADER = "check,value,tolerance,pass"

# glibc's mallopt parameters and the values run_scenario fixes.  By
# default glibc adapts both thresholds: at 128^2 a float field is 128 KiB,
# exactly the initial mmap threshold, and once the largest mapped
# temporary of an operator apply (512 KiB) is freed the trim threshold
# becomes about 1 MiB.  Every apply then frees more than that at the top
# of the heap, glibc returns it to the kernel, and the next apply faults
# it back in: 250-370 pages per twist apply, a fifth of the wall time of
# a 128^2 ladder study.
# Fixed values keep such temporaries on the heap and its freed top mapped.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 4 * 1024 * 1024
_TRIM_THRESHOLD = 64 * 1024 * 1024
_allocator_policy_set = False


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, header: str, rows) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _write_manifest(outdir: Path, cfg: RunConfig) -> None:
    manifest = {
        "config": config_to_dict(cfg),
        "seed": cfg.seed,
        "versions": {
            "twistk": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "pocketfft": POCKETFFT_SOURCE,
            "python": platform.python_version(),
        },
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _strict_json(value):
    """Non-finite floats (a nan lambda1, an inf threshold) as None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _strict_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def _write_summary(outdir: Path, summary: dict) -> None:
    (outdir / "summary.json").write_text(
        json.dumps(_strict_json(summary), sort_keys=True, indent=2,
                   allow_nan=False) + "\n")


def _write_fields(outdir: Path, K: KahlerStructure) -> None:
    fields = outdir / "fields"
    fields.mkdir(parents=True, exist_ok=True)
    write_field(fields / "potential.bin", K.n, K.potential)
    comps = K.comps
    write_field(fields / "metric_re.bin", K.n, comps.real)
    write_field(fields / "metric_im.bin", K.n, comps.imag)


def _build_problem(cfg: RunConfig):
    grid = PeriodicGrid(cfg.n, cfg.sizes)
    g0_omega = np.array(cfg.g0_omega, dtype=complex)
    g0_alpha = np.array(cfg.g0_alpha, dtype=complex)
    alpha_pot = make_trig_field(grid, cfg.alpha_potential)
    alpha = HermitianFormField.from_potential(grid, g0_alpha, alpha_pot.values)
    omega_pot = make_trig_field(grid, cfg.omega_potential)
    return grid, g0_omega, omega_pot, alpha


def _solver_config(cfg: RunConfig) -> SolverConfig:
    return SolverConfig(newton_tol=cfg.newton_tol, krylov_tol=cfg.krylov_tol)


def _first_R(cfg: RunConfig) -> float:
    if cfg.R_schedule:
        return float(cfg.R_schedule[0])
    if cfg.t_schedule:
        return t_to_R(cfg.t_schedule[0])
    return 100.0


def _seeded_problem(cfg: RunConfig):
    """A Newton scenario's twist, first weight and chain: the one
    `seed_chain` call, at the config's tolerances, seeded from
    omega_potential when it is non-empty and laddered at the first
    weight."""
    grid, g0_omega, omega_pot, alpha = _build_problem(cfg)
    R = _first_R(cfg)
    chain = seed_chain(grid, g0_omega, alpha, R, cfg.order, _solver_config(cfg),
                       potential=omega_pot.values)
    return alpha, R, chain


def _cohomology_summary(K, alpha, R) -> dict:
    """Volume means of S and trace(alpha), the equation's constant
    sbar - R * c as `twisted_residual` forms it, and the same constant
    from the classes alone."""
    mean_scalar = volume_average(K, scalar_curvature(K))
    mean_trace = volume_average(K, trace_form(K, alpha))
    data = CohomologyData.of_classes(K.base_matrix, alpha.base_matrix)
    return {
        "mean_scalar": mean_scalar,
        "mean_trace": mean_trace,
        "class_trace": data.c,
        "constant": mean_scalar - R * mean_trace,
        "constant_from_classes": data.sbar - R * data.c,
    }


def _chain_artifacts(chain: WarmChain, summary: dict, outdir: Path | None):
    """A Newton scenario's result from its chain: the summary with the
    seed block and the records added, one steps.csv row per record, and
    success (every step converged).  With an outdir the fields of the
    last converged metric are written, when there is one."""
    summary["seed"] = {"source": chain.source, "ladder_error": chain.ladder_error,
                       "ladder_sizes": list(chain.ladder_sizes)}
    summary["records"] = [asdict(r) for r in chain.records]
    if outdir is not None and chain.structure is not None:
        _write_fields(outdir, chain.structure)
    rows = [(idx, r.t, r.R, r.residual_sup, r.residual_l2, r.lambda1,
             r.newton_iters, r.wall_ms) for idx, r in enumerate(chain.records)]
    return rows, summary, all(r.converged for r in chain.records)


def _run_single_solve(cfg: RunConfig, outdir: Path):
    alpha, R, chain = _seeded_problem(cfg)
    # eigenpair certification can fail on very coarse grids where the
    # fourth-order truncation defect exceeds the residual tolerance; the
    # solve itself still stands, so lambda1 is nan and the record keeps
    # the reason
    chain.step(alpha, R, eigen_seed=cfg.seed)
    (record,) = chain.records
    summary = {
        "scenario": cfg.scenario,
        "converged": record.converged,
        "residual_sup": record.residual_sup,
        "lambda1": record.lambda1,
        "newton_iterations": record.newton_iters,
    }
    if record.converged:
        summary.update(_cohomology_summary(chain.structure, alpha, R))
    return _chain_artifacts(chain, summary, outdir)


def _run_ladder_study(cfg: RunConfig, outdir: Path):
    schedule = [float(R) for R in cfg.R_schedule]
    grid, g0_omega, omega_pot, alpha = _build_problem(cfg)
    solver = _solver_config(cfg)
    # the ladder itself is the study, so the seed is taken without one
    base, source = seed_structure(grid, g0_omega, alpha, potential=omega_pot.values)
    # rung m of the order-cfg.order ladder is the order-m ladder, so one
    # build per weight gives every order; only its per-rung norms, times
    # and PCG iterations, and the last structure, outlive it
    rungs = []
    pcg_iterations = []
    for R in schedule:
        ladder = build_approximate_solution(base, alpha, R, cfg.order, solver)
        rungs.append((ladder.residual_sups, ladder.residual_rms, ladder.wall_ms))
        pcg_iterations.append(list(ladder.linear_iterations))
        last = ladder.structure
        del ladder
    rows = []
    slopes = {}
    ratios = {}
    for m in range(1, cfg.order + 1):
        sups = [rung_sups[m] for rung_sups, _, _ in rungs]
        for R, (rung_sups, rung_rms, rung_ms) in zip(schedule, rungs):
            rows.append((len(rows), R_to_t(R), R, rung_sups[m], rung_rms[m],
                         math.nan, 0, rung_ms[m]))
        fit = order_fit(schedule, sups)
        scaled = [s * R ** m for R, s in zip(schedule, sups)]
        slopes[f"slope_m{m}"] = fit.exponent
        ratios[f"scaled_residual_ratio_m{m}"] = max(scaled) / min(scaled)
    summary = {"scenario": cfg.scenario, **slopes, **ratios,
               "R_schedule": schedule, "orders": list(range(1, cfg.order + 1)),
               "pcg_iterations": pcg_iterations,
               "seed": {"source": source, "ladder_error": "", "ladder_sizes": []}}
    _write_fields(outdir, last)
    return rows, summary, True


def _run_continuity_sweep(cfg: RunConfig, outdir: Path):
    alpha, _, chain = _seeded_problem(cfg)
    continuity_sweep(chain, alpha, cfg.t_schedule, eigen_seed=cfg.seed)
    # t increases, so the last converged step is the one at the smallest
    # converged weight
    summary = {
        "scenario": cfg.scenario,
        "steps": len(chain.records),
        "smallest_converged_R": chain.R,
    }
    if chain.structure is not None:
        K = chain.structure
        flat = K.base_matrix.reshape(K.base_matrix.shape + (1,) * len(K.grid.sizes))
        summary["final_potential_sup"] = sup_norm(K.potential)
        summary["final_metric_flat_sup"] = float(np.abs(K.comps - flat).max())
        summary.update(_cohomology_summary(K, alpha, chain.R))
    return _chain_artifacts(chain, summary, outdir)


def _run_threshold(cfg: RunConfig, outdir: Path):
    alpha, R, chain = _seeded_problem(cfg)
    estimate = estimate_R_threshold(chain, alpha, R_start=R)
    summary = {
        "scenario": cfg.scenario,
        "threshold": estimate.threshold,
        "bracket_low": estimate.bracket[0],
        "bracket_high": estimate.bracket[1],
        "attempts": len(chain.records),
    }
    # no fields: at 16^4 they would add 4.7 MB to every threshold call
    return _chain_artifacts(chain, summary, None)


def _run_twist_perturbation(cfg: RunConfig, outdir: Path):
    alpha, R, chain = _seeded_problem(cfg)
    base_converged = chain.step(alpha, R)
    summary = {"scenario": cfg.scenario, "base_converged": base_converged,
               "R": R, "stages": cfg.perturbation_steps}
    if base_converged:
        bump = make_trig_field(alpha.grid, [cfg.perturbation])
        target = HermitianFormField(alpha.grid, alpha.base_matrix,
                                    alpha.potential + bump.values)
        started = time.perf_counter()
        perturb_twist(chain, target, steps=cfg.perturbation_steps)
        summary["continuation_wall_ms"] = (time.perf_counter() - started) * 1000.0
        summary["final_residual_sup"] = chain.records[-1].residual_sup
        summary["stages_converged"] = sum(r.converged for r in chain.records[1:])
    return _chain_artifacts(chain, summary, outdir)


def _verify_checks(cfg: RunConfig, outdir: Path):
    """Deterministic cross-checks; every row is (name, value, tol, pass)."""
    checks: list[tuple[str, float, float, bool]] = []
    rng = np.random.default_rng(cfg.seed)
    solver = _solver_config(cfg)

    def record(name: str, value: float, tol: float, ok=None) -> bool:
        passed = bool(value <= tol) if ok is None else bool(ok)
        checks.append((name, float(value), float(tol), passed))
        return passed

    grid = PeriodicGrid(1, (32, 32))
    x, _y = grid.coordinates()
    g_id = np.eye(1, dtype=complex)
    cos_x = ScalarField(grid, np.cos(x) + 0.0 * _y)

    # flat Poisson: Lap0 of cos(x) is -cos(x)/4, so the solve returns -4cos(x)
    sol = flat_poisson_solve(cos_x, g_id)
    record("flat_poisson_cos", sup_norm(sol.values + 4.0 * np.cos(x) + 0.0 * _y),
           1e-12)

    flat = KahlerStructure(grid, g_id, np.zeros(grid.shape))
    alpha_flat = HermitianFormField.from_potential(grid, g_id)
    shifted, _ = solve_shifted(flat, alpha_flat, 4.0, cos_x, solver)
    record("shifted_flat_mode",
           sup_norm(shifted.values + (16.0 / 17.0) * (np.cos(x) + 0.0 * _y)),
           1e-9)

    est = extreme_eigenvalue(flat, alpha_flat, 10.0, seed=cfg.seed)
    record("flat_eigenvalue_R10", abs(est.value - (-1.0 / 16.0 - 10.0 / 4.0)),
           1e-8)

    small = PeriodicGrid(1, (8, 8))
    pot = random_smooth_field(small, rng, amplitude=0.05, kmax=1)
    K_small = KahlerStructure(small, g_id, euclid_mean_zero(pot.values))
    alpha_small = HermitianFormField.from_potential(
        small, g_id, random_smooth_field(small, rng, amplitude=0.02, kmax=1).values)
    spectrum = dense_spectrum(LinearOperatorHandle("twist", K_small, alpha_small))
    record("dense_symmetry_defect", spectrum.symmetry_defect, 1e-9)

    big = PeriodicGrid(1, (64, 64))
    smooth = random_smooth_field(big, rng, amplitude=0.3, kmax=1)
    grid_hess = hessian(big, smooth.values)
    fd = fd_hessian(big, smooth.values)
    scale = max(float(np.abs(grid_hess).max()), 1e-300)
    record("fd_hessian_agreement", float(np.abs(grid_hess - fd).max()) / scale,
           1e-6)

    base_pot = random_smooth_field(big, rng, amplitude=0.1, kmax=1)
    K_big = KahlerStructure(big, g_id, euclid_mean_zero(base_pot.values))
    alpha_big = HermitianFormField.from_potential(
        big, g_id, random_smooth_field(big, rng, amplitude=0.05, kmax=1).values)
    direction = random_smooth_field(big, rng, amplitude=1.0, kmax=1)
    R_lin = 50.0

    def residual_map(values: np.ndarray) -> np.ndarray:
        K_v = KahlerStructure(big, g_id, values)
        res, _c = twisted_residual(K_v, alpha_big, R_lin)
        return res.values

    fd_est = fd_directional_derivative(residual_map, K_big.potential,
                                       direction.values)
    lin = LinearOperatorHandle("full_linearization", K_big, alpha_big,
                               R_lin).apply(direction.values)
    gap = float(np.abs(lin - fd_est.value).max())
    record("linearization_fd_match", gap / max(sup_norm(lin), 1e-300), 1e-5)

    probe = random_smooth_field(grid, rng, amplitude=0.5, kmax=2)
    K_probe = KahlerStructure(grid, g_id,
                              euclid_mean_zero(
                                  random_smooth_field(grid, rng, amplitude=0.08,
                                                      kmax=1).values))
    alpha_probe = HermitianFormField.from_potential(grid, g_id,
                                                    K_probe.potential)
    probe_mz = ScalarField(grid, volume_mean_zero(K_probe, probe.values))
    image = LinearOperatorHandle("twist", K_probe, alpha_probe).apply(probe_mz.values)
    back, _ = solve_F(K_probe, alpha_probe, ScalarField(grid, image), solver)
    record("solve_apply_roundtrip",
           sup_norm(back.values - probe_mz.values) / max(sup_norm(probe_mz.values),
                                                         1e-300), 1e-7)

    seed_pot = make_trig_field(grid, [(0.3, (1, 0), 0.0)])
    K_seed = KahlerStructure(grid, g_id, euclid_mean_zero(seed_pot.values))
    alpha_prime, positivity = trivial_twist(K_seed, alpha_flat, 100.0, solver)
    res_prime, _ = twisted_residual(K_seed, alpha_prime, 100.0)
    record("trivial_twist_residual", sup_norm(res_prime.values), 1e-8)
    record("trivial_twist_positive", 0.0 if positivity.positive else 1.0, 0.5)

    solve_cfg = RunConfig(scenario="single_solve", sizes=(32, 32),
                          alpha_potential=((0.2, (1, 0), 0.0),),
                          newton_tol=cfg.newton_tol, krylov_tol=cfg.krylov_tol,
                          seed=cfg.seed, out=cfg.out)
    gridc, g0c, potc, alphac = _build_problem(solve_cfg)
    seed, _ = seed_structure(gridc, g0c, alphac, potential=potc.values)
    K_init = build_approximate_solution(seed, alphac, 100.0, solve_cfg.order,
                                        solver).structure
    report = newton_solve(K_init, alphac, 100.0, solver)
    record("single_solve_residual", report.residual_sup, 1e-9,
           ok=report.converged and report.residual_sup <= 1e-9)
    if report.converged:
        coh = _cohomology_summary(report.structure, alphac, 100.0)
        record("mean_scalar_after_solve", abs(coh["mean_scalar"]), 1e-7)
        record("mean_trace_matches_class",
               abs(coh["mean_trace"] - coh["class_trace"]), 1e-7)
        record("constant_matches_classes",
               abs(coh["constant"] - coh["constant_from_classes"]), 1e-7)
        _write_fields(outdir, report.structure)

    base = KahlerStructure(gridc, g0c,
                           euclid_mean_zero(make_trig_field(
                               gridc, ((0.15, (1, 1), 0.0),
                                       (0.15, (1, -1), 0.0))).values))
    alpha_ladder = HermitianFormField.from_potential(gridc, g0c, base.potential)
    sups = []
    schedule = (50.0, 100.0, 200.0, 400.0)
    for R in schedule:
        ladder = build_approximate_solution(base, alpha_ladder, R, 1, solver)
        sups.append(ladder.residual_sups[-1])
    fit = order_fit(schedule, sups)
    record("ladder_slope_m1", abs(fit.exponent + 1.0), 0.2)
    return checks


def _run_verify_suite(cfg: RunConfig, outdir: Path):
    checks = _verify_checks(cfg, outdir)
    rows = [(name, value, tol, 1 if ok else 0)
            for name, value, tol, ok in checks]
    _write_csv(outdir / "verify.csv", VERIFY_HEADER, rows)
    all_pass = all(ok for _, _, _, ok in checks)
    summary = {
        "scenario": cfg.scenario,
        "checks": len(checks),
        "failed": [name for name, _, _, ok in checks if not ok],
        "success": all_pass,
    }
    return [], summary, all_pass


_SCENARIO_RUNNERS = {
    "single_solve": _run_single_solve,
    "ladder_study": _run_ladder_study,
    "continuity_sweep": _run_continuity_sweep,
    "threshold": _run_threshold,
    "twist_perturbation": _run_twist_perturbation,
    "verify_suite": _run_verify_suite,
}


def _set_allocator_policy() -> None:
    """Fix glibc's mmap and trim thresholds, once per process; a no-op
    where the C library has no mallopt."""
    global _allocator_policy_set
    if _allocator_policy_set:
        return
    _allocator_policy_set = True
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _process_usage(before: resource.struct_rusage) -> dict:
    """Minor page faults and CPU seconds of this process since `before`."""
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {"minor_faults": after.ru_minflt - before.ru_minflt,
            "user_s": after.ru_utime - before.ru_utime,
            "system_s": after.ru_stime - before.ru_stime}


def run_scenario(cfg: RunConfig) -> int:
    """Execute one scenario; returns the process exit status.

    0 means every requested solve converged (or every check passed);
    1 records a solver-level failure, with reports still written.  A
    config built in code that breaks a scenario rule of
    `config.scenario_diagnostics` (which `parse_config` rejects), an
    unknown scenario included, fails the same way, with a ConfigError
    summary, before any solver work.  The summary of a scenario that
    returns holds its `process` usage.
    """
    _set_allocator_policy()
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_manifest(outdir, cfg)
    try:
        diagnostics = scenario_diagnostics(cfg)
        if diagnostics:
            raise ConfigError(diagnostics)
        before = resource.getrusage(resource.RUSAGE_SELF)
        rows, summary, success = _SCENARIO_RUNNERS[cfg.scenario](cfg, outdir)
        summary["process"] = _process_usage(before)
    except TwistkError as err:
        _write_summary(outdir, {"scenario": cfg.scenario, "success": False,
                                "error": describe(err)})
        return 1
    if cfg.scenario != "verify_suite":
        _write_csv(outdir / "steps.csv", CSV_HEADER, rows)
    summary.setdefault("success", success)
    _write_summary(outdir, summary)
    return 0 if success else 1
