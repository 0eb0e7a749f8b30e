"""End-to-end acceptance gate for the solver and harness.

Ten criteria, one test each, in fixed order.  Every test prints a
single [PASS]/[FAIL] verdict line with the measured numbers (surfaced
by -rA) and asserts the same condition, so the suite output doubles as
a checklist.  Runs shared between criteria live in module-scoped
fixtures that measure their own wall time, letting the owning test
enforce the runtime budget while later tests reuse the solutions.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import EYE1, random_pair, seed_structure
from twistk.config import DEFAULT_T_SCHEDULE, default_config
from twistk.engine import (
    WarmChain,
    build_approximate_solution,
    continuity_sweep,
    estimate_R_threshold,
    newton_solve,
    perturb_twist,
    seed_chain,
    t_to_R,
    trivial_twist,
    twisted_residual,
)
from twistk.geometry import (
    HermitianFormField,
    KahlerStructure,
    class_trace,
    scalar_curvature,
    trace_form,
    volume_average,
)
from twistk.grid import (
    PeriodicGrid,
    ScalarField,
    euclid_mean_zero,
    make_trig_field,
    random_smooth_field,
    sup_norm,
)
from twistk.operators import LinearOperatorHandle, dense_assemble
from twistk.oracles import fd_directional_derivative, order_fit
from twistk.runner import run_scenario
from twistk.solvers import SolverConfig, extreme_eigenvalue, inverse_norm_estimate

ACC = SolverConfig(newton_tol=1e-9, krylov_tol=1e-10)


def _verdict(num: int, label: str, ok: bool, detail: str) -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {label} ({detail})")
    return ok


def _seeded_pair(grid: PeriodicGrid, terms, scale: float):
    """Non-flat structure with a twist proportional to its own metric,
    so the trace is constant and the correction ladder applies."""
    K = seed_structure(grid, terms)
    alpha = HermitianFormField.from_potential(grid, scale * K.base_matrix,
                                              scale * K.potential)
    return K, alpha


@pytest.fixture(scope="module")
def grid32() -> PeriodicGrid:
    return PeriodicGrid(1, (32, 32))


@pytest.fixture(scope="module")
def ladder_newton_runs(grid32):
    """Ladder-seeded Newton solves over three seeds and three weights.

    Feeds criterion 4 directly and contributes every converged solution
    to the pooled invariant checks of criterion 9.
    """
    seeds = [
        _seeded_pair(grid32, [(0.15, (1, 1), 0.0), (0.15, (1, -1), 0.0)], 1.0),
        _seeded_pair(grid32, [(0.3, (1, 0), 0.0)], 0.7),
        _seeded_pair(grid32, [(0.2, (0, 1), 0.5), (0.1, (2, 0), 0.0)], 1.4),
    ]
    weights = (100.0, 200.0, 400.0)
    started = time.perf_counter()
    solutions = []
    residuals = []
    R_stars = []
    dual_gaps = []
    for K, alpha in seeds:
        converged_R = []
        for R in weights:
            ladder = build_approximate_solution(K, alpha, R, 2, ACC)
            rep = newton_solve(ladder.structure, alpha, R, ACC)
            residuals.append(rep.residual_sup)
            if rep.converged:
                converged_R.append(R)
                solutions.append((rep.structure, alpha, R, rep.constant))
        # R* = smallest tested weight from which every larger one solved
        star = math.inf
        for R in sorted(weights, reverse=True):
            if R in converged_R:
                star = R
            else:
                break
        R_stars.append(star)
        ladder = build_approximate_solution(K, alpha, 100.0, 2, ACC)
        from_ladder = newton_solve(ladder.structure, alpha, 100.0, ACC)
        flat0 = KahlerStructure(grid32, K.base_matrix, np.zeros(grid32.shape))
        from_flat = newton_solve(flat0, alpha, 100.0, ACC)
        gap = math.inf
        if from_ladder.converged and from_flat.converged:
            gap = float(np.abs(from_ladder.structure.comps
                               - from_flat.structure.comps).max())
        dual_gaps.append(gap)
    elapsed = time.perf_counter() - started
    return {"solutions": solutions, "residuals": residuals,
            "R_stars": R_stars, "dual_gaps": dual_gaps, "elapsed": elapsed}


@pytest.fixture(scope="module")
def sweep_run(grid32):
    """Full continuity sweep plus threshold scan; feeds criteria 7 and 9."""
    apot = make_trig_field(grid32, [(0.2, (1, 0), 0.0)])
    alpha = HermitianFormField.from_potential(grid32, EYE1, apot.values)
    schedule = DEFAULT_T_SCHEDULE
    started = time.perf_counter()
    # each chain seeded at its first weight, as the runner seeds it
    sweep = seed_chain(grid32, EYE1, alpha, t_to_R(schedule[0]), 2, ACC)
    continuity_sweep(sweep, alpha, schedule)
    descent = seed_chain(grid32, EYE1, alpha, 8.0, 2, ACC)
    threshold = estimate_R_threshold(descent, alpha, R_start=8.0)
    elapsed = time.perf_counter() - started
    return {"alpha": alpha, "sweep": sweep, "threshold": threshold,
            "elapsed": elapsed}


@pytest.fixture(scope="module")
def perturb_run(grid32):
    """Twist perturbation and ten-step continuation; feeds criteria 8 and 9."""
    alpha0 = HermitianFormField.from_potential(grid32, EYE1)
    tiny = make_trig_field(grid32, [(1e-3, (1, 0), 0.0)])
    alpha_tiny = HermitianFormField.from_potential(grid32, EYE1, tiny.values)
    big = make_trig_field(grid32, [(0.2, (1, 0), 0.0)])
    alpha_big = HermitianFormField.from_potential(grid32, EYE1, big.values)

    def perturbed(alpha_new, steps):
        # the flat metric solves the flat twist: the base step needs no iteration
        chain = WarmChain(grid32, EYE1, np.zeros(grid32.shape), "flat", ACC)
        chain.step(alpha0, 100.0)
        perturb_twist(chain, alpha_new, steps=steps)
        return chain.records[1:], chain.structure

    started = time.perf_counter()
    single, _ = perturbed(alpha_tiny, 1)
    chain, chain_end = perturbed(alpha_big, 10)
    elapsed = time.perf_counter() - started
    return {"single": single, "chain": chain, "chain_end": chain_end,
            "alpha_big": alpha_big, "elapsed": elapsed}


def test_criterion_01_dense_twist_operator_structure():
    rng = np.random.default_rng(0)
    started = time.perf_counter()
    worst_defect = 0.0
    worst_kernel_ev = 0.0
    worst_kernel_dev = 0.0
    largest_nonkernel_ev = -math.inf
    pairs = 0
    for n, sizes in ((1, (8, 8)), (2, (6, 6, 6, 6))):
        grid = PeriodicGrid(n, sizes)
        for _ in range(5):
            K, alpha = random_pair(grid, rng)
            handle = LinearOperatorHandle("twist", K, alpha, 1.0)
            mat = dense_assemble(handle)
            w = K.weight.ravel()
            form = w[:, None] * mat
            scale = float(np.abs(form).max())
            worst_defect = max(worst_defect,
                               float(np.abs(form - form.T).max()) / scale)
            evals, evecs = np.linalg.eigh(0.5 * (form + form.T))
            # ascending order: the kernel eigenvalue is the largest
            worst_kernel_ev = max(worst_kernel_ev, abs(evals[-1]) / scale)
            largest_nonkernel_ev = max(largest_nonkernel_ev, evals[-2] / scale)
            v = evecs[:, -1]
            worst_kernel_dev = max(worst_kernel_dev,
                                   float(np.abs(v - v.mean()).max())
                                   / float(np.abs(v).max()))
            pairs += 1
    elapsed = time.perf_counter() - started
    ok = (worst_defect <= 1e-9 and worst_kernel_ev <= 1e-9
          and largest_nonkernel_ev <= -1e-6 and worst_kernel_dev <= 1e-8
          and elapsed <= 60.0)
    assert _verdict(1, "dense twist operator self-adjoint, negative on "
                    "mean-zero, kernel = constants", ok,
                    f"{pairs} pairs, defect {worst_defect:.1e}, kernel ev "
                    f"{worst_kernel_ev:.1e}, next ev {largest_nonkernel_ev:.1e}, "
                    f"{elapsed:.1f}s")


def test_criterion_02_full_linearization_matches_fd():
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    worst = 0.0
    triples = 0
    for n, sizes in ((1, (64, 64)), (2, (16, 16, 16, 16))):
        grid = PeriodicGrid(n, sizes)
        g0 = np.eye(n, dtype=complex)
        for _ in range(10):
            pot = random_smooth_field(grid, rng, amplitude=0.05, kmax=1)
            K = KahlerStructure(grid, g0, euclid_mean_zero(pot.values))
            apot = random_smooth_field(grid, rng, amplitude=0.03, kmax=1)
            alpha = HermitianFormField.from_potential(grid, g0, apot.values)
            psi = random_smooth_field(grid, rng, amplitude=1.0, kmax=1)
            R = float(rng.uniform(10.0, 300.0))

            def residual_map(p: np.ndarray) -> np.ndarray:
                Kp = KahlerStructure(grid, g0, p)
                return (scalar_curvature(Kp).values
                        - R * trace_form(Kp, alpha).values)

            fd = fd_directional_derivative(residual_map, K.potential, psi.values)
            lin = LinearOperatorHandle("full_linearization", K, alpha, R).apply(psi.values)
            rel = float(np.linalg.norm(fd.value - lin) / np.linalg.norm(lin))
            worst = max(worst, rel)
            triples += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5 and triples >= 20 and elapsed <= 120.0
    assert _verdict(2, "full linearization matches finite differences", ok,
                    f"{triples} triples, worst rel err {worst:.1e}, "
                    f"{elapsed:.1f}s")


def test_criterion_03_ladder_residual_order_law(grid32):
    K, alpha = _seeded_pair(grid32,
                            [(0.15, (1, 1), 0.0), (0.15, (1, -1), 0.0)], 1.0)
    weights = (50.0, 100.0, 200.0, 400.0, 800.0)
    started = time.perf_counter()
    slopes = []
    ratios = []
    for m in (1, 2, 3):
        sups = [build_approximate_solution(K, alpha, R, m, ACC).residual_sups[-1]
                for R in weights]
        slopes.append(order_fit(weights, sups).exponent)
        scaled = [R ** m * s for R, s in zip(weights, sups)]
        ratios.append(max(scaled) / min(scaled))
    elapsed = time.perf_counter() - started
    ok = (all(abs(slope + m) <= 0.2 for m, slope in zip((1, 2, 3), slopes))
          and all(r <= 2.0 for r in ratios) and elapsed <= 180.0)
    assert _verdict(3, "ladder residual order law", ok,
                    "slopes " + ", ".join(f"{s:+.3f}" for s in slopes)
                    + "; boundedness ratios "
                    + ", ".join(f"{r:.2f}" for r in ratios)
                    + f"; {elapsed:.1f}s")


def test_criterion_04_ladder_seeded_newton_end_to_end(ladder_newton_runs):
    runs = ladder_newton_runs
    all_converged = (len(runs["solutions"]) == 9
                     and max(runs["residuals"]) <= 1e-9)
    stars_finite = all(math.isfinite(s) for s in runs["R_stars"])
    agree = max(runs["dual_gaps"]) <= 1e-7
    ok = (all_converged and stars_finite and agree
          and runs["elapsed"] <= 300.0)
    assert _verdict(4, "Newton from the order-2 ladder solves all seeds "
                    "and weights", ok,
                    f"worst residual {max(runs['residuals']):.1e}, R* "
                    f"{runs['R_stars']}, worst init gap "
                    f"{max(runs['dual_gaps']):.1e}, {runs['elapsed']:.1f}s")


def test_criterion_05_eigenvalue_bounds():
    grid = PeriodicGrid(1, (16, 16))
    flat = KahlerStructure(grid, EYE1, np.zeros(grid.shape))
    alpha_flat = HermitianFormField.from_potential(grid, EYE1)
    weights = (20.0, 40.0, 80.0, 160.0)
    started = time.perf_counter()
    flat_err = max(abs(extreme_eigenvalue(flat, alpha_flat, R).value
                       - (-1.0 / 16.0 - R / 4.0)) for R in weights)
    K = seed_structure(grid, [(0.3, (1, 0), 0.0)])
    alpha = HermitianFormField.from_potential(grid, EYE1, K.potential)
    vals = [extreme_eigenvalue(K, alpha, R).value for R in weights]
    C2 = abs(vals[0]) / (2.0 * weights[0])
    linear_bound = all(v < -C2 * R for v, R in zip(vals, weights))
    norm_weights = (25.0, 50.0, 100.0)
    norms = [inverse_norm_estimate(K, alpha, R, ACC)
             for R in norm_weights]
    growth = order_fit(norm_weights, norms).exponent
    elapsed = time.perf_counter() - started
    ok = (flat_err <= 1e-8 and linear_bound and growth <= 1.3
          and elapsed <= 120.0)
    assert _verdict(5, "eigenvalue scaling and inverse-norm growth", ok,
                    f"flat err {flat_err:.1e}, C2 {C2:.3f}, growth exponent "
                    f"{growth:+.2f}, {elapsed:.1f}s")


def test_criterion_06_trivial_twist_positivity():
    grid = PeriodicGrid(1, (16, 16))
    K = seed_structure(grid, [(0.3, (1, 0), 0.0)])
    alpha = HermitianFormField.from_potential(grid, EYE1)
    started = time.perf_counter()
    twisted, report_big = trivial_twist(K, alpha, 100.0, ACC)
    residual, _ = twisted_residual(K, twisted, 100.0)
    _, report_small = trivial_twist(K, alpha, 1e-3, ACC)
    elapsed = time.perf_counter() - started
    ok = (sup_norm(residual.values) <= 1e-8 and report_big.positive
          and not report_small.positive and elapsed <= 30.0)
    assert _verdict(6, "trivial twist solves exactly and tracks positivity",
                    ok,
                    f"residual {sup_norm(residual.values):.1e}, min ev at "
                    f"R=100 {report_big.min_eigenvalue:.3f}, at R=1e-3 "
                    f"{report_small.min_eigenvalue:.3f}, {elapsed:.1f}s")


def test_criterion_07_continuity_sweep_to_t1(sweep_run):
    sweep = sweep_run["sweep"]
    threshold = sweep_run["threshold"]
    all_steps = all(s.converged for s in sweep.records)
    final_sup = sup_norm(sweep.structure.potential)
    ok = (all_steps and len(sweep.records) == 20
          and final_sup <= 1e-7 and threshold.threshold == 0.0
          and threshold.bracket[1] < 1e-2 and sweep_run["elapsed"] <= 300.0)
    assert _verdict(7, "continuity sweep reaches the flat limit and the "
                    "threshold is zero", ok,
                    f"20 steps, final potential sup {final_sup:.1e}, "
                    f"bracket {threshold.bracket}, "
                    f"{sweep_run['elapsed']:.1f}s")


def test_criterion_08_twist_perturbation(perturb_run):
    single = perturb_run["single"]
    chain = perturb_run["chain"]
    ok = (len(single) == 1 and single[0].converged
          and single[0].newton_iters <= 4
          and len(chain) == 10 and all(r.converged for r in chain)
          and perturb_run["elapsed"] <= 120.0)
    assert _verdict(8, "twist perturbation and ten-step continuation", ok,
                    f"single step iters {single[0].newton_iters}, chain "
                    f"{sum(r.converged for r in chain)}/10 converged, "
                    f"{perturb_run['elapsed']:.1f}s")


def test_criterion_09_cohomology_invariants(ladder_newton_runs, sweep_run,
                                            perturb_run):
    pool = list(ladder_newton_runs["solutions"])
    sweep = sweep_run["sweep"]
    _, sweep_const = twisted_residual(sweep.structure, sweep_run["alpha"], 0.0)
    pool.append((sweep.structure, sweep_run["alpha"], 0.0, sweep_const))
    pool.append((perturb_run["chain_end"], perturb_run["alpha_big"], 100.0,
                 perturb_run["chain"][-1].constant))
    worst_s = 0.0
    worst_trace = 0.0
    worst_const = 0.0
    for K, alpha, R, const in pool:
        c = class_trace(K.base_matrix, alpha.base_matrix)
        worst_s = max(worst_s, abs(volume_average(K, scalar_curvature(K))))
        worst_trace = max(worst_trace,
                          abs(volume_average(K, trace_form(K, alpha)) - c))
        # the mean scalar curvature of a flat torus class is 0
        worst_const = max(worst_const, abs(const - (0.0 - R * c)))
    ok = worst_s <= 1e-7 and worst_trace <= 1e-7 and worst_const <= 1e-7
    assert _verdict(9, "cohomology invariants on every converged solution",
                    ok,
                    f"{len(pool)} solutions, |mean S| {worst_s:.1e}, trace "
                    f"gap {worst_trace:.1e}, constant gap {worst_const:.1e}")


def test_criterion_10_verify_suite_determinism(tmp_path):
    outputs = []
    codes = []
    for run in ("a", "b"):
        cfg = dataclasses.replace(default_config("verify_suite"),
                                  out=str(tmp_path / run), seed=0)
        codes.append(run_scenario(cfg))
        outputs.append((tmp_path / run / "verify.csv").read_bytes())
    rows = [line.split(",") for line in
            outputs[0].decode().strip().splitlines()[1:]]
    all_pass = all(row[-1] == "1" for row in rows)
    ok = codes == [0, 0] and outputs[0] == outputs[1] and all_pass
    assert _verdict(10, "verify suite is deterministic and green", ok,
                    f"exit codes {codes}, {len(rows)} checks, identical bytes "
                    f"{outputs[0] == outputs[1]}")
