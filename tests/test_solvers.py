"""Krylov solvers and spectral estimators against analytic flat answers."""

from __future__ import annotations

import numpy as np
import pytest

from twistk import (
    HermitianFormField,
    KahlerStructure,
    KrylovConfig,
    PeriodicGrid,
    ScalarField,
    extreme_eigenvalue,
    green_solve,
    inverse_norm_estimate,
    laplacian,
    newton_linear_solve,
    solve_F,
    solve_shifted,
    volume_average,
    volume_mean_zero,
)
from twistk.errors import (
    IterationLimitError,
    PreconditionError,
    SolvabilityError,
)
from twistk.grid import random_smooth_field, sup_norm
from twistk.operators import LinearOperatorHandle, apply_F, apply_shifted, dense_assemble
import twistk.solvers as solvers

from conftest import EYE1, EYE2, seed_structure


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
        back = apply_F(K, alpha, phi)
        assert sup_norm(back.values - f_vals) <= 1e-9 * sup_norm(f_vals)

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
            K, apply_shifted(K, alpha, 10.0, ScalarField(grid32, target)).values)
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
        assert builds == [("flat-bilaplacian-shift", 4.0)]

    def test_iteration_budget_raises_with_history(self, grid32):
        K = seed_structure(grid32, [(0.2, (1, 0), 0.0)])
        alpha = HermitianFormField.from_potential(grid32, EYE1, K.potential)
        rng = np.random.default_rng(37)
        f = volume_mean_zero(
            K, random_smooth_field(grid32, rng, amplitude=1.0).values)
        cfg = KrylovConfig(tol=1e-14, maxiter=2)
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


class TestInverseNormEstimate:
    def test_flat_estimate_is_bounded_and_deterministic(self, flat32, alpha_flat32):
        sigma = inverse_norm_estimate(flat32, alpha_flat32, 10.0)
        again = inverse_norm_estimate(flat32, alpha_flat32, 10.0)
        assert 1.0 <= sigma <= 16.0
        assert sigma == again
