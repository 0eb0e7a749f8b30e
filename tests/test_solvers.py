"""Krylov solvers and spectral estimators against analytic flat answers."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twistk import (
    HermitianFormField,
    KahlerStructure,
    PeriodicGrid,
    ScalarField,
    SolverConfig,
    extreme_eigenvalue,
    green_solve,
    inverse_norm_estimate,
    laplacian,
    newton_linear_solve,
    solve_F,
    solve_shifted,
    volume_average,
    volume_mean_zero,
    volume_rms,
)
from twistk.errors import (
    DomainError,
    IterationLimitError,
    PreconditionError,
    SolvabilityError,
)
from twistk.engine import newton_solve, proportional_seed_potential
from twistk.grid import euclid_mean_zero, make_trig_field, random_smooth_field, sup_norm
from twistk.operators import LinearOperatorHandle, dense_assemble
from twistk.oracles import dense_spectrum
import twistk
import twistk.solvers as solvers

from conftest import EYE1, EYE2, random_pair, seed_structure


class TestGreenSolve:
    def test_flat_cosine_inverts_laplacian(self, flat32):
        x, _ = flat32.grid.coordinates()
        f = ScalarField(flat32.grid, np.cos(x) + np.zeros(flat32.grid.shape))
        G, info = green_solve(flat32, f)
        expected = -4.0 * np.cos(x) + np.zeros(flat32.grid.shape)
        assert sup_norm(G.values - expected) <= 1e-9
        assert info["residual"] <= 1e-9

    def test_zero_rhs_returns_zero_without_iterating(self, flat32):
        f = ScalarField(flat32.grid, np.zeros(flat32.grid.shape))
        G, info = green_solve(flat32, f)
        assert sup_norm(G.values) == 0.0
        assert info["iterations"] == 0

    def test_nonzero_mean_rhs_is_rejected(self, flat32):
        x, _ = flat32.grid.coordinates()
        f = ScalarField(flat32.grid, 1.0 + 0.3 * np.cos(x) + np.zeros(flat32.grid.shape))
        with pytest.raises(SolvabilityError):
            green_solve(flat32, f)

    def test_reapplication_recovers_curvature_rhs(self, grid32):
        K = seed_structure(grid32, [(0.3, (1, 1), 0.0)])
        f = volume_mean_zero(K, K.scalar())
        G, _ = green_solve(K, ScalarField(grid32, f))
        back = laplacian(K, G)
        assert sup_norm(back.values - f) <= 1e-9
        assert abs(volume_average(K, G)) <= 1e-10 * max(sup_norm(G.values), 1e-30)


class TestSolveF:
    def test_flat_metric_twist_is_poisson(self, flat32, alpha_flat32):
        x, _ = flat32.grid.coordinates()
        f = ScalarField(flat32.grid, np.cos(x) + np.zeros(flat32.grid.shape))
        phi, _ = solve_F(flat32, alpha_flat32, f)
        expected = -4.0 * np.cos(x) + np.zeros(flat32.grid.shape)
        assert sup_norm(phi.values - expected) <= 1e-9

    def test_zero_rhs_short_circuits(self, flat32, alpha_flat32):
        f = ScalarField(flat32.grid, np.zeros(flat32.grid.shape))
        phi, info = solve_F(flat32, alpha_flat32, f)
        assert sup_norm(phi.values) == 0.0
        assert info["iterations"] == 0

    def test_constant_class_twist_reapplication(self, grid8x4):
        K = KahlerStructure(grid8x4, EYE2, np.zeros(grid8x4.shape))
        alpha = HermitianFormField.from_potential(
            grid8x4, np.diag([2.0, 3.0]).astype(complex))
        rng = np.random.default_rng(23)
        f_vals = volume_mean_zero(
            K, random_smooth_field(grid8x4, rng, amplitude=1.0).values)
        f = ScalarField(grid8x4, f_vals)
        phi, _ = solve_F(K, alpha, f)
        back = LinearOperatorHandle("twist", K, alpha).apply(phi.values)
        assert sup_norm(back - f_vals) <= 1e-9 * sup_norm(f_vals)

    def test_varying_trace_is_rejected(self, flat32, grid32):
        x, _ = grid32.coordinates()
        pot = 0.3 * np.cos(x) + np.zeros(grid32.shape)
        alpha = HermitianFormField.from_potential(grid32, EYE1, pot)
        f = ScalarField(grid32, np.zeros(grid32.shape))
        with pytest.raises(PreconditionError):
            solve_F(flat32, alpha, f)


class TestSolveShifted:
    def test_flat_single_mode_matches_symbol(self, flat32, alpha_flat32):
        x, _ = flat32.grid.coordinates()
        f = ScalarField(flat32.grid, np.cos(x) + np.zeros(flat32.grid.shape))
        phi, _ = solve_shifted(flat32, alpha_flat32, 4.0, f)
        expected = -(16.0 / 17.0) * np.cos(x) + np.zeros(flat32.grid.shape)
        assert sup_norm(phi.values - expected) <= 1e-9

    def test_negative_weight_is_rejected(self, flat32, alpha_flat32):
        f = ScalarField(flat32.grid, np.zeros(flat32.grid.shape))
        with pytest.raises(PreconditionError):
            solve_shifted(flat32, alpha_flat32, -1.0, f)

    def test_matches_dense_solve_on_non_flat_structure(self):
        grid = PeriodicGrid(1, (8, 8))
        K = seed_structure(grid, [(1e-3, (1, 0), 0.0)])
        alpha = HermitianFormField.from_potential(grid, EYE1, K.potential)
        rng = np.random.default_rng(29)
        f_vals = volume_mean_zero(
            K, random_smooth_field(grid, rng, amplitude=1.0).values)
        phi, _ = solve_shifted(K, alpha, 3.0, ScalarField(grid, f_vals))
        mat = dense_assemble(LinearOperatorHandle("shifted", K, alpha, 3.0))
        direct, *_ = np.linalg.lstsq(mat, f_vals.ravel(), rcond=1e-10)
        direct = volume_mean_zero(K, direct.reshape(grid.shape))
        assert sup_norm(phi.values - direct) <= 1e-7 * sup_norm(direct)

    def test_solution_round_trip_through_operator(self, grid32):
        K = seed_structure(grid32, [(0.2, (1, 0), 0.0)])
        alpha = HermitianFormField.from_potential(grid32, EYE1, K.potential)
        rng = np.random.default_rng(31)
        target = volume_mean_zero(
            K, random_smooth_field(grid32, rng, amplitude=1.0).values)
        f = volume_mean_zero(
            K, LinearOperatorHandle("shifted", K, alpha, 10.0).apply(target))
        phi, _ = solve_shifted(K, alpha, 10.0, ScalarField(grid32, f))
        assert sup_norm(phi.values - target) <= 1e-7 * sup_norm(target)

    def test_eigen_stage_builds_the_setup_once_with_the_same_bits(
            self, grid32, monkeypatch):
        K = seed_structure(grid32, [(0.2, (1, 0), 0.0)])
        alpha = HermitianFormField.from_potential(grid32, EYE1, K.potential)
        cold = extreme_eigenvalue(K, alpha, 4.0, seed=5)
        builds = []
        original = solvers._spd_preconditioner

        def counting(*args):
            builds.append(args[1:])
            return original(*args)

        monkeypatch.setattr(solvers, "_spd_preconditioner", counting)
        again = extreme_eigenvalue(K, alpha, 4.0, seed=5)
        assert again.value == cold.value
        assert again.iterations == cold.iterations > 1
        assert builds == [(4.0,)]

    def test_iteration_budget_raises_with_history(self, grid32, monkeypatch):
        K = seed_structure(grid32, [(0.2, (1, 0), 0.0)])
        alpha = HermitianFormField.from_potential(grid32, EYE1, K.potential)
        rng = np.random.default_rng(37)
        f = volume_mean_zero(
            K, random_smooth_field(grid32, rng, amplitude=1.0).values)
        monkeypatch.setattr(solvers, "_KRYLOV_MAXITER", 2)
        cfg = SolverConfig(krylov_tol=1e-14)
        with pytest.raises(IterationLimitError) as err:
            solve_shifted(K, alpha, 10.0, ScalarField(grid32, f), cfg)
        assert len(err.value.history) == 2


class TestNewtonLinearSolve:
    def test_flat_agrees_with_shifted_solve(self, flat32, alpha_flat32):
        rng = np.random.default_rng(41)
        rhs = volume_mean_zero(
            flat32, random_smooth_field(flat32.grid, rng, amplitude=1.0).values)
        delta, info = newton_linear_solve(flat32, alpha_flat32, 25.0, rhs)
        phi, _ = solve_shifted(flat32, alpha_flat32, 25.0,
                               ScalarField(flat32.grid, rhs))
        assert sup_norm(delta - phi.values) <= 1e-8 * sup_norm(phi.values)
        assert info["residual"] <= 1e-9

    def test_zero_rhs_short_circuits(self, flat32, alpha_flat32):
        delta, info = newton_linear_solve(
            flat32, alpha_flat32, 25.0, np.zeros(flat32.grid.shape))
        assert sup_norm(delta) == 0.0
        assert info["iterations"] == 0

    @staticmethod
    def problem(grid, amplitude):
        """Non-flat K from `default_rng(3)`, alpha its own Kahler form, and a
        volume-mean-zero smooth right-hand side."""
        pot = random_smooth_field(grid, np.random.default_rng(3), amplitude=amplitude)
        K = KahlerStructure(grid, EYE1, pot.values)
        alpha = HermitianFormField.from_potential(grid, EYE1, K.potential)
        rhs = volume_mean_zero(K, random_smooth_field(
            grid, np.random.default_rng(3), amplitude=1.0).values)
        return K, alpha, rhs

    def test_iteration_cap_is_exact(self, grid32, monkeypatch):
        K, alpha, rhs = self.problem(grid32, 0.05)
        monkeypatch.setattr(solvers, "_KRYLOV_MAXITER", 2)
        with pytest.raises(IterationLimitError) as err:
            newton_linear_solve(K, alpha, 5.0, rhs, SolverConfig(krylov_tol=1e-14))
        assert len(err.value.history) == 2

    def test_certified_solve_at_the_cap_returns(self, grid32, monkeypatch):
        # five iterations reach a true residual of ~3e-10, inside the
        # 10 * tol certificate although the estimate is not yet at tol / 10
        K, alpha, rhs = self.problem(grid32, 0.02)
        monkeypatch.setattr(solvers, "_KRYLOV_MAXITER", 5)
        cfg = SolverConfig(krylov_tol=1e-10)
        delta, info = newton_linear_solve(K, alpha, 5.0, rhs, cfg)
        assert info["iterations"] == len(info["history"]) == 5
        assert info["history"][-1] > 0.1 * cfg.krylov_tol
        assert info["residual"] <= 10.0 * cfg.krylov_tol
        handle = LinearOperatorHandle("full_linearization", K, alpha, 5.0, mean_zero=True)
        back = volume_mean_zero(K, rhs - handle.apply(delta))
        assert volume_rms(K, back) / volume_rms(K, rhs) == pytest.approx(
            info["residual"], rel=1e-6)

    def test_applies_one_operator_per_iteration_plus_the_certificate(
            self, grid32, monkeypatch):
        K, alpha, rhs = self.problem(grid32, 0.05)
        applies, preconditions = [], []
        apply = LinearOperatorHandle.apply
        build = solvers._spd_preconditioner

        def counting_apply(handle, values):
            applies.append(handle.kind)
            return apply(handle, values)

        def counting_build(K_arg, R):
            inner = build(K_arg, R)

            def counted(r):
                preconditions.append(R)
                return inner(r)

            return counted

        monkeypatch.setattr(LinearOperatorHandle, "apply", counting_apply)
        monkeypatch.setattr(solvers, "_spd_preconditioner", counting_build)
        _, info = newton_linear_solve(K, alpha, 5.0, rhs)
        assert info["iterations"] > 1
        assert applies == ["full_linearization"] * (info["iterations"] + 1)
        assert len(preconditions) <= info["iterations"] + 1

    def test_restarted_solve_agrees_with_one_cycle(self, grid32, monkeypatch):
        K, alpha, rhs = self.problem(grid32, 0.05)
        cfg = SolverConfig()
        whole, info = newton_linear_solve(K, alpha, 5.0, rhs, cfg)
        assert info["iterations"] > 2
        monkeypatch.setattr(solvers, "_GMRES_RESTART", 2)
        cycled, cycled_info = newton_linear_solve(K, alpha, 5.0, rhs, cfg)
        assert cycled_info["residual"] <= 10.0 * cfg.krylov_tol
        assert cycled_info["iterations"] == len(cycled_info["history"])
        assert sup_norm(cycled - whole) <= 1e-8 * sup_norm(whole)

    def test_non_self_adjoint_solve_matches_dense_least_squares(self):
        grid = PeriodicGrid(1, (8, 8))
        K = seed_structure(grid, [(0.1, (1, 0), 0.0), (0.05, (1, 1), 0.3)])
        alpha = HermitianFormField.from_potential(
            grid, EYE1, make_trig_field(grid, [(0.08, (0, 1), 0.5)]).values)
        handle = LinearOperatorHandle("full_linearization", K, alpha, 5.0, mean_zero=True)
        mat = dense_assemble(handle)
        # not self-adjoint in the volume-weighted inner product
        weighted = K.weight.ravel()[:, None] * mat
        assert np.abs(weighted - weighted.T).max() > 1e-3 * np.abs(weighted).max()
        rng = np.random.default_rng(43)
        rhs = volume_mean_zero(K, random_smooth_field(grid, rng, amplitude=1.0).values)
        delta, _ = newton_linear_solve(K, alpha, 5.0, rhs)
        direct, *_ = np.linalg.lstsq(mat, rhs.ravel(), rcond=1e-10)
        direct = volume_mean_zero(K, direct.reshape(grid.shape))
        assert sup_norm(delta - direct) <= 1e-8 * sup_norm(direct)


def _modules_after_import(modules: str, prefix: str) -> str:
    """The sorted names starting with prefix that a fresh interpreter has
    loaded after `import <modules>`, as printed."""
    src = Path(twistk.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {modules}; "
         f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_loads_no_sparse_module():
    # the Newton GMRES is solvers' own, so scipy.sparse stays out of
    # every process that imports twistk
    assert _modules_after_import("twistk", "scipy.sparse") == "[]"


def test_runner_import_loads_no_dense_linear_algebra():
    # only the verify suite's dense spectrum needs scipy.linalg, and it
    # imports it when called
    assert _modules_after_import("twistk.runner, twistk.cli", "scipy.linalg") == "[]"


def test_runner_import_loads_no_scipy_fft():
    # the grid calls scipy's compiled pocketfft extension by file path
    assert _modules_after_import("twistk.runner, twistk.cli", "scipy.fft") == "[]"


def test_runner_import_loads_no_scipy_special():
    # scipy.fft's Python layer was what imported scipy.special
    assert _modules_after_import("twistk.runner, twistk.cli", "scipy.special") == "[]"


class TestSolverConfig:
    @pytest.mark.parametrize("name", ["newton_tol", "krylov_tol"])
    @pytest.mark.parametrize("value", [0.0, 1.0, -1e-10])
    def test_tolerance_outside_the_unit_interval_is_rejected(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} must lie in"):
            SolverConfig(**{name: value})


class TestPreconditionerRule:
    """The operator's order picks the flat symbol: None (the Laplacian)
    for the second-order solves, the weight R (the biLaplacian shift)
    for the fourth-order ones."""

    def test_each_solve_builds_the_symbol_of_its_order(self, grid16, monkeypatch):
        K = KahlerStructure(grid16, EYE1, np.zeros(grid16.shape))
        alpha = HermitianFormField.from_potential(grid16, EYE1)
        x, _ = grid16.coordinates()
        f = ScalarField(grid16, np.cos(x) + np.zeros(grid16.shape))
        weights = []
        original = solvers._spd_preconditioner

        def recording(K_arg, R):
            weights.append(R)
            return original(K_arg, R)

        monkeypatch.setattr(solvers, "_spd_preconditioner", recording)
        calls = {
            "green_solve": lambda: green_solve(K, f),
            "solve_F": lambda: solve_F(K, alpha, f),
            "solve_shifted": lambda: solve_shifted(K, alpha, 3.0, f),
            "newton_linear_solve": lambda: newton_linear_solve(K, alpha, 5.0, f.values),
            "extreme_eigenvalue": lambda: extreme_eigenvalue(K, alpha, 7.0),
        }
        seen = {}
        for name, call in calls.items():
            weights.clear()
            call()
            seen[name] = list(weights)
        assert seen == {"green_solve": [None], "solve_F": [None],
                        "solve_shifted": [3.0], "newton_linear_solve": [5.0],
                        "extreme_eigenvalue": [7.0]}


def weighted_dot(K, u, v):
    return float(np.sum(u * v * K.weight))


class TestPreconditionerMap:
    """r -> a S^-1(w a r), w = det g, a = 1 for the second order and
    sqrt(w) for the fourth: self-adjoint and positive in the volume
    product, and the exact inverse of the n = 1 Laplacian."""

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2]),
           R=st.one_of(st.none(), st.floats(0.0, 50.0)))
    def test_self_adjoint_and_positive_on_mean_zero_fields(self, seed, n, R):
        grid = PeriodicGrid(n, (16, 16) if n == 1 else (8, 8, 8, 8))
        rng = np.random.default_rng(seed)
        K, _ = random_pair(grid, rng)
        apply_M = solvers._spd_preconditioner(K, R)
        u = volume_mean_zero(K, random_smooth_field(grid, rng, kmax=3).values)
        v = volume_mean_zero(K, random_smooth_field(grid, rng, kmax=3).values)
        Mu, Mv = apply_M(u), apply_M(v)
        scale = math.sqrt(weighted_dot(K, u, Mu) * weighted_dot(K, v, Mv))
        assert abs(weighted_dot(K, u, Mv) - weighted_dot(K, Mu, v)) <= 1e-12 * scale
        assert weighted_dot(K, u, Mu) > 0.0
        assert weighted_dot(K, v, Mv) > 0.0

    @staticmethod
    def smooth_problem(seed):
        grid = PeriodicGrid(1, (32, 32))
        rng = np.random.default_rng(seed)
        K, _ = random_pair(grid, rng, pot_amp=0.1, kmax=2)
        f = volume_mean_zero(K, random_smooth_field(grid, rng, kmax=3).values)
        return K, ScalarField(grid, f)

    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_green_solve_at_n1_takes_at_most_two_iterations(self, seed):
        K, f = self.smooth_problem(seed)
        G, info = green_solve(K, f)
        assert info["iterations"] <= 2
        assert sup_norm(laplacian(K, G).values - f.values) <= 1e-8 * sup_norm(f.values)

    @given(seed=st.integers(0, 2 ** 32 - 1), c=st.floats(0.01, 100.0))
    def test_twist_solve_at_n1_takes_at_most_two_iterations(self, seed, c):
        # alpha = c * omega has constant trace c: F = c * Lap_omega
        K, f = self.smooth_problem(seed)
        alpha = HermitianFormField.from_potential(K.grid, c * K.base_matrix,
                                                  c * K.potential)
        phi, info = solve_F(K, alpha, f)
        assert info["iterations"] <= 2
        back = LinearOperatorHandle("twist", K, alpha).apply(phi.values)
        assert sup_norm(back - f.values) <= 1e-8 * sup_norm(f.values)


class TestExtremeEigenvalue:
    def test_flat_values_match_symbol_maximum(self, grid16):
        K = KahlerStructure(grid16, EYE1, np.zeros(grid16.shape))
        alpha = HermitianFormField.from_potential(grid16, EYE1)
        est10 = extreme_eigenvalue(K, alpha, 10.0)
        assert abs(est10.value - (-2.5625)) <= 1e-8
        est0 = extreme_eigenvalue(K, alpha, 0.0)
        assert abs(est0.value - (-1.0 / 16.0)) <= 1e-8

    def test_reported_pair_satisfies_eigen_equation(self, grid16):
        K = seed_structure(grid16, [(0.3, (1, 0), 0.0)])
        alpha = HermitianFormField.from_potential(grid16, EYE1, K.potential)
        est = extreme_eigenvalue(K, alpha, 20.0)
        handle = LinearOperatorHandle("shifted", K, alpha, 20.0)
        w = K.weight
        wsum = float(np.sum(w))

        def wrms(v):
            return float(np.sqrt(np.sum(v * v * w) / wsum))

        vec = est.vector.values
        defect = handle.apply(vec) - est.value * vec
        assert wrms(defect) <= 1e-6 * max(1.0, abs(est.value)) * wrms(vec)
        assert est.value < 0.0

    def test_larger_weight_pushes_spectrum_down(self, grid16):
        K = seed_structure(grid16, [(0.3, (1, 0), 0.0)])
        alpha = HermitianFormField.from_potential(grid16, EYE1, K.potential)
        lam20 = extreme_eigenvalue(K, alpha, 20.0).value
        lam40 = extreme_eigenvalue(K, alpha, 40.0).value
        assert lam40 < lam20 < 0.0


def solved_structure(n, sizes, terms, R):
    """Metric solving the twisted equation at weight R for the twist
    whose potential is the trig sum `terms` on the identity class."""
    grid = PeriodicGrid(n, sizes)
    g0 = np.eye(n, dtype=complex)
    alpha = HermitianFormField.from_potential(
        grid, g0, make_trig_field(grid, terms).values)
    seed = proportional_seed_potential(grid, g0, alpha)
    report = newton_solve(KahlerStructure(grid, g0, euclid_mean_zero(seed)),
                          alpha, R)
    assert report.converged
    return report.structure, alpha


def dense_leading(K, alpha, R):
    """Largest eigenvalue of the dense shifted operator below the zero of
    the constant mode."""
    spectrum = dense_spectrum(LinearOperatorHandle("shifted", K, alpha, R))
    assert abs(spectrum.eigenvalues[-1]) <= 1e-10
    return float(spectrum.eigenvalues[-2])


@pytest.fixture(scope="module")
def near_degenerate():
    """16^2, twist 0.2 cos x, R = 4, solved metric: the leading eigenvalue
    -1.061258 sits next to -1.063476, the top of the cos-x class."""
    return solved_structure(1, (16, 16), [(0.2, (1, 0), 0.0)], 4.0)


class TestDavidsonEigenStage:
    def test_near_degenerate_cluster_matches_dense_spectrum(self, near_degenerate):
        K, alpha = near_degenerate
        exact = dense_leading(K, alpha, 4.0)
        assert abs(exact - (-1.061258317)) <= 1e-9
        for seed in range(6):
            est = extreme_eigenvalue(K, alpha, 4.0, seed=seed)
            assert abs(est.value - exact) <= 1e-10 * abs(exact)
            assert est.value < 0.0
            assert est.residual <= 1e-8 * abs(est.value)
            assert abs(volume_average(K, est.vector)) <= 1e-12

    def test_same_seed_gives_the_same_bits(self, near_degenerate):
        K, alpha = near_degenerate
        first = extreme_eigenvalue(K, alpha, 4.0, seed=3)
        again = extreme_eigenvalue(K, alpha, 4.0, seed=3)
        assert first.value == again.value
        assert first.iterations == again.iterations
        assert first.vector.values.tobytes() == again.vector.values.tobytes()

    def test_n2_mild_case_matches_dense_spectrum(self):
        K, alpha = solved_structure(2, (8, 8, 8, 8), [(0.05, (1, 0, 0, 0), 0.0)], 4.0)
        exact = dense_leading(K, alpha, 4.0)
        est = extreme_eigenvalue(K, alpha, 4.0, seed=0)
        assert abs(est.value - exact) <= 1e-10 * abs(exact)
        assert est.value < 0.0
        assert abs(volume_average(K, est.vector)) <= 1e-12

    def test_uncertifiable_coarse_grid_raises_within_budget(self):
        # 8^4 does not resolve this twist: the discrete operator is far
        # enough from self-adjoint that no pair meets the certificate
        K, alpha = solved_structure(
            2, (8, 8, 8, 8),
            [(0.2, (1, 0, 0, 0), 0.0), (0.1, (0, 1, 1, 0), 0.3)], 4.0)
        with pytest.raises(IterationLimitError, match="stalled") as err:
            extreme_eigenvalue(K, alpha, 4.0, seed=0)
        assert err.value.history[0] > 1e-8

    def test_restart_budget_raises(self, monkeypatch):
        K, alpha = solved_structure(
            1, (16, 16), [(0.2, (1, 0), 0.0), (0.1, (0, 1), 0.3)], 4.0)
        monkeypatch.setattr(solvers, "_DAVIDSON_RESTARTS", 0)
        # this pair needs more than one basis fill, so no restart fails
        with pytest.raises(IterationLimitError, match="within 0 restarts") as err:
            extreme_eigenvalue(K, alpha, 4.0, seed=0)
        assert len(err.value.history) == solvers._DAVIDSON_CAP

    def test_correction_at_round_off_is_not_normalised(self, near_degenerate,
                                                       monkeypatch):
        K, alpha = near_degenerate
        original = solvers._spd_preconditioner

        def in_span(*args):
            original(*args)
            return lambda r: np.zeros_like(r)

        monkeypatch.setattr(solvers, "_spd_preconditioner", in_span)
        with pytest.raises(IterationLimitError, match="stagnation"):
            extreme_eigenvalue(K, alpha, 4.0, seed=0)

    def test_constant_mode_is_kept_out(self, near_degenerate, monkeypatch):
        # a preconditioner that adds a constant to every correction: the
        # constant mode (eigenvalue 0, above all others) must not enter
        K, alpha = near_degenerate
        reference = extreme_eigenvalue(K, alpha, 4.0, seed=1)
        original = solvers._spd_preconditioner

        def with_constant(*args):
            apply = original(*args)
            return lambda r: apply(r) + 1.0

        monkeypatch.setattr(solvers, "_spd_preconditioner", with_constant)
        est = extreme_eigenvalue(K, alpha, 4.0, seed=1)
        assert abs(est.value - reference.value) <= 1e-12 * abs(reference.value)
        assert abs(volume_average(K, est.vector)) <= 1e-12

    def test_no_inner_solves(self, near_degenerate, monkeypatch):
        K, alpha = near_degenerate

        def refuse(*args, **kwargs):
            raise AssertionError("the eigen stage ran a linear solve")

        monkeypatch.setattr(solvers, "_pcg", refuse)
        applies = []
        original = LinearOperatorHandle.apply

        def counting(self, v):
            applies.append(self.kind)
            return original(self, v)

        monkeypatch.setattr(LinearOperatorHandle, "apply", counting)
        est = extreme_eigenvalue(K, alpha, 4.0, seed=0)
        assert applies == ["shifted"] * est.iterations


class TestInverseNormEstimate:
    def test_flat_estimate_is_bounded_and_deterministic(self, flat32, alpha_flat32):
        sigma = inverse_norm_estimate(flat32, alpha_flat32, 10.0)
        again = inverse_norm_estimate(flat32, alpha_flat32, 10.0)
        assert 1.0 <= sigma <= 16.0
        assert sigma == again
