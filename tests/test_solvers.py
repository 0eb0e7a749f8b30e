"""Krylov solvers and spectral estimators against analytic flat answers."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tracemalloc
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
import twistk.engine as engine
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
        f = volume_mean_zero(K, K.scalar)
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
        # the shifted handle is the one check of R >= 0, so every entry
        # point that builds one refuses R = -1 with its one message
        f = ScalarField(flat32.grid, np.zeros(flat32.grid.shape))
        calls = (lambda: LinearOperatorHandle("shifted", flat32, alpha_flat32, -1.0),
                 lambda: solve_shifted(flat32, alpha_flat32, -1.0, f),
                 lambda: extreme_eigenvalue(flat32, alpha_flat32, -1.0),
                 lambda: inverse_norm_estimate(flat32, alpha_flat32, -1.0))
        for call in calls:
            with pytest.raises(PreconditionError) as err:
                call()
            assert str(err.value) == "the shifted operator requires R >= 0, got -1.0"

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

    def test_solve_is_odd_in_its_right_hand_side(self, grid32, grid8x4):
        # Newton solves for its residual and negates delta in place: GMRES
        # with the mean projection, M and A is exactly odd in b
        K, alpha, rhs = self.problem(grid32, 0.05)
        pairs = [(K, alpha, rhs), random_pair(grid8x4, np.random.default_rng(5), kmax=2)
                 + (random_smooth_field(grid8x4, np.random.default_rng(6), amplitude=1.0).values,)]
        for K, alpha, rhs in pairs:
            delta, info = newton_linear_solve(K, alpha, 5.0, rhs)
            negated, negated_info = newton_linear_solve(K, alpha, 5.0, -rhs)
            assert info["iterations"] > 0
            assert negated.tobytes() == (-delta).tobytes()
            assert negated_info == info

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

    @pytest.mark.parametrize("restart", [None, 2])
    def test_applies_one_operator_per_iteration_plus_the_certificate(
            self, grid32, monkeypatch, restart):
        # each iteration applies M then A; each cycle ends with the update
        # x += M V y and the certifying A
        K, alpha, rhs = self.problem(grid32, 0.05)
        events = []
        apply = LinearOperatorHandle.apply
        build = solvers._spd_preconditioner

        def counting_apply(handle, values):
            events.append(handle.kind)
            return apply(handle, values)

        def counting_build(K_arg, R):
            inner = build(K_arg, R)

            def counted(r):
                events.append("M")
                return inner(r)

            return counted

        monkeypatch.setattr(LinearOperatorHandle, "apply", counting_apply)
        monkeypatch.setattr(solvers, "_spd_preconditioner", counting_build)
        if restart is not None:
            monkeypatch.setattr(solvers, "_GMRES_RESTART", restart)
        _, info = newton_linear_solve(K, alpha, 5.0, rhs)
        k = info["iterations"]
        assert k > 2
        cycles = 1 if restart is None else -(-k // restart)
        assert events == ["M", "full_linearization"] * (k + cycles)

    def test_a_full_cycle_holds_one_basis(self, grid8x4, monkeypatch):
        # the Arnoldi basis V is the only per-iteration field kept, so the
        # solve's peak stays within the restart plus a constant number of
        # fields (handle, preconditioner and one application's
        # temporaries); a preconditioned basis beside V holds twice the
        # restart, about 46 fields here
        restart = 8
        pot = random_smooth_field(grid8x4, np.random.default_rng(3), amplitude=0.1)
        K = KahlerStructure(grid8x4, EYE2, euclid_mean_zero(pot.values))
        alpha = HermitianFormField.from_potential(grid8x4, EYE2, K.potential)
        rhs = volume_mean_zero(K, random_smooth_field(
            grid8x4, np.random.default_rng(4), amplitude=1.0).values)
        monkeypatch.setattr(solvers, "_GMRES_RESTART", restart)
        # the first solve fills the structure's and the grid's caches
        _, info = newton_linear_solve(K, alpha, 5.0, rhs)
        assert info["iterations"] > restart
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            newton_linear_solve(K, alpha, 5.0, rhs)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < (restart + 30) * grid8x4.npoints * 8

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


def _modules_after_import(modules: str, prefix: str | tuple[str, ...]) -> str:
    """The sorted names starting with prefix (or one of a tuple of
    prefixes) that a fresh interpreter has loaded after
    `import <modules>`, as printed."""
    src = Path(twistk.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {modules}; "
         f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


# what numpy's random-number package loads, secrets and OpenSSL's hashlib
# among it, and numpy's FFT package
_RANDOM_AND_FFT = ("numpy.random", "secrets", "hashlib", "_hashlib", "numpy.fft")


def _modules_added_by(code: str, prefixes: tuple[str, ...] = _RANDOM_AND_FFT) -> str:
    """The sorted names starting with one of prefixes that a fresh
    interpreter loads running code after `import numpy`, as printed;
    numpy 1.x loads some of _RANDOM_AND_FFT in `import numpy` itself."""
    src = Path(twistk.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy\nbefore = set(sys.modules)\n" + code + "\n"
         f"print(sorted(m for m in set(sys.modules) - before if m.startswith({prefixes!r})))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_the_eigen_stage_loads_no_random_or_fft_module():
    # the Davidson start is a counter hash, and the grid's wavenumbers
    # are built without np.fft.fftfreq
    code = "\n".join([
        "import numpy as np",
        "from twistk import HermitianFormField, KahlerStructure, PeriodicGrid, extreme_eigenvalue",
        "grid = PeriodicGrid(1, (16, 16))",
        "K = KahlerStructure(grid, np.eye(1), np.zeros(grid.shape))",
        "alpha = HermitianFormField.from_potential(grid, np.eye(1))",
        "assert extreme_eigenvalue(K, alpha, 10.0, seed=5).value < 0.0"])
    assert _modules_added_by(code) == "[]"


def _single_solve_16(out: Path) -> str:
    """Code that runs a 16x16 single_solve into out and checks its exit."""
    return "\n".join([
        "from twistk.config import parse_config",
        "from twistk.runner import run_scenario",
        "cfg = parse_config('{\"scenario\": \"single_solve\", \"sizes\": [16, 16], '",
        f"                  '\"out\": \"{out.as_posix()}\"}}')",
        "assert run_scenario(cfg) == 0"])


def test_a_single_solve_loads_no_random_or_fft_module(tmp_path):
    assert _modules_added_by(_single_solve_16(tmp_path)) == "[]"


def test_a_single_solve_loads_no_scipy_module(tmp_path):
    # the grid loads scipy's pocketfft file by path, and the manifest
    # reads scipy's version from its version.py the same way
    assert _modules_added_by(_single_solve_16(tmp_path), ("scipy",)) == "[]"


def test_import_loads_no_sparse_module():
    # the Newton GMRES is solvers' own, so scipy.sparse stays out of
    # every process that imports twistk; the package resolves its
    # exports on first access, so import every layer
    assert _modules_after_import("twistk.runner, twistk.cli", "scipy.sparse") == "[]"


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


def test_setup_imports_load_no_scipy_module():
    # the grid finds scipy's pocketfft file from scipy's import spec, so
    # what a benchmark set-up probe imports runs no `import scipy`
    assert _modules_after_import("twistk.config, twistk.geometry, twistk.grid",
                                 "scipy") == "[]"


# every layer that parsing a config and building the forms does not need
_SOLVER_STACK = ("twistk.engine", "twistk.operators", "twistk.solvers", "twistk.runner",
                 "twistk.oracles", "twistk.fieldio", "twistk.cli")


def test_setup_imports_load_no_solver_module():
    # config holds the solve tolerances and the ladder bound itself, and
    # the package resolves its exports on first access
    assert _modules_after_import("twistk.config, twistk.geometry, twistk.grid",
                                 _SOLVER_STACK) == "[]"


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

    def test_built_with_no_class_matrix_check(self, monkeypatch):
        # the structure checked its class matrix when it was built
        grid = PeriodicGrid(2, (8, 8, 8, 8))
        rng = np.random.default_rng(7)
        K, _ = random_pair(grid, rng)
        r = volume_mean_zero(K, random_smooth_field(grid, rng, kmax=3).values)

        def refuse(*args):
            raise AssertionError("class matrix checked")

        checks = ("_check_hermitian", "_check_positive_definite")
        for module, names in ((twistk.grid, checks + ("_check_hermitian_matrix",)),
                              (twistk.geometry, checks)):
            for name in names:
                monkeypatch.setattr(module, name, refuse)
        for R in (None, 3.0):
            assert np.isfinite(solvers._spd_preconditioner(K, R)(r)).all()
        assert not hasattr(solvers, "flat_laplacian_symbol")

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


class TestCGApplications:
    """One operator application per CG iteration, plus one certifying
    application for a solve of two or more steps; a one-step solve, and
    a solve that stops on a residual refresh, make none extra."""

    @staticmethod
    def counting(monkeypatch) -> list[str]:
        applies: list[str] = []
        build = solvers._spd_solver

        def counting_build(K, apply_A, R, cfg, what):
            def counted(v):
                applies.append(what)
                return apply_A(v)

            return build(K, counted, R, cfg, what)

        monkeypatch.setattr(solvers, "_spd_solver", counting_build)
        return applies

    @staticmethod
    def fresh_residual(K, apply_A, x, f) -> float:
        return volume_rms(K, volume_mean_zero(K, f - apply_A(x))) / volume_rms(K, f)

    @given(seed=st.integers(0, 2 ** 32 - 1), c=st.floats(0.01, 100.0))
    def test_one_step_n1_solves_make_one_application(self, seed, c):
        K, f = TestPreconditionerMap.smooth_problem(seed)
        alpha = HermitianFormField.from_potential(K.grid, c * K.base_matrix,
                                                  c * K.potential)
        twist = LinearOperatorHandle("twist", K, alpha, mean_zero=True).apply
        cfg = SolverConfig()
        with pytest.MonkeyPatch.context() as mp:
            applies = self.counting(mp)
            phi, info = solve_F(K, alpha, f, cfg)
            G, green_info = green_solve(K, f, cfg)
        assert info["iterations"] == green_info["iterations"] == 1
        assert applies == ["solve_F", "green_solve"]
        # the reported residual is the fresh one up to round-off
        for apply_A, x, solved in ((twist, phi, info),
                                   (lambda v: K.grid.hessian_trace(K.inverse_stack, v), G, green_info)):
            fresh = self.fresh_residual(K, apply_A, x.values, f.values)
            assert solved["residual"] == solved["history"][-1]
            assert abs(solved["residual"] - fresh) <= 1e-3 * cfg.krylov_tol

    def test_multi_step_green_solve_n2_certifies_with_one_more(self, monkeypatch):
        grid = PeriodicGrid(2, (8, 8, 8, 8))
        rng = np.random.default_rng(11)
        K, _ = random_pair(grid, rng)
        f = ScalarField(grid, volume_mean_zero(K, random_smooth_field(grid, rng).values))
        applies = self.counting(monkeypatch)
        G, info = green_solve(K, f)
        assert 1 < info["iterations"] < solvers._CG_REFRESH
        assert applies == ["green_solve"] * (info["iterations"] + 1)
        fresh = self.fresh_residual(K, lambda v: grid.hessian_trace(K.inverse_stack, v),
                                    G.values, f.values)
        assert info["residual"] == pytest.approx(fresh, rel=1e-6)

    @staticmethod
    def lichnerowicz_problem(grid):
        # R = 0 is the Lichnerowicz end of the shifted operator
        K = seed_structure(grid, [(0.2, (1, 0), 0.0)])
        alpha = HermitianFormField.from_potential(grid, EYE1, K.potential)
        rng = np.random.default_rng(41)
        f = ScalarField(grid, volume_mean_zero(
            K, random_smooth_field(grid, rng, amplitude=1.0).values))
        return K, alpha, f

    def test_multi_step_shifted_solve_at_R0_certifies_with_one_more(
            self, grid32, monkeypatch):
        K, alpha, f = self.lichnerowicz_problem(grid32)
        applies = self.counting(monkeypatch)
        _, info = solve_shifted(K, alpha, 0.0, f)
        assert 1 < info["iterations"] < solvers._CG_REFRESH
        assert applies == ["solve_shifted"] * (info["iterations"] + 1)

    def test_solve_stopping_on_a_refresh_makes_no_extra_application(
            self, grid32, monkeypatch):
        K, alpha, f = self.lichnerowicz_problem(grid32)
        whole, info = solve_shifted(K, alpha, 0.0, f)
        steps = info["iterations"]
        monkeypatch.setattr(solvers, "_CG_REFRESH", steps)
        applies = self.counting(monkeypatch)
        refreshed, refreshed_info = solve_shifted(K, alpha, 0.0, f)
        # the loop's steps and the refresh at the last one, no certificate
        assert refreshed_info["iterations"] == steps
        assert applies == ["solve_shifted"] * (steps + 1)
        assert refreshed_info["residual"] == refreshed_info["history"][-1]
        assert sup_norm(refreshed.values - whole.values) <= 1e-8 * sup_norm(whole.values)


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

    @pytest.mark.parametrize("seed", [0, 7, 2001, -3, 2**64 + 5])
    def test_start_is_the_splitmix64_finalizer_of_the_point_counters(self, seed):
        # SplitMix64 from state seed mod 2^64 in Python integers: the
        # uint64 arithmetic wraps the same way.  Its first two outputs from
        # state 0 are the published 0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4
        def reference(i):
            z = (i * 0x9E3779B97F4A7C15 + seed) % 2**64
            z ^= z >> 30
            z = z * 0xBF58476D1CE4E5B9 % 2**64
            z ^= z >> 27
            z = z * 0x94D049BB133111EB % 2**64
            return z ^ z >> 31

        if seed == 0:
            assert [reference(1), reference(2)] == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
        start = solvers._hashed_start(300, seed)
        assert start.dtype == np.float64
        assert start.tolist() == [(reference(i) >> 11) * 2.0**-52 - 1.0
                                  for i in range(1, 301)]
        assert -1.0 <= start.min() and start.max() < 1.0

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


# Reference copies of the Krylov loops and the preconditioner map as they
# were before each field was dropped at its last read: a zero-field start,
# copies of b and M r, A p, M r and the Gram-Schmidt field kept to their
# rebinding, and w * sqrt(w) held by the map.  The solvers must keep
# their bits.

def _reference_preconditioner(K, R):
    grid = K.grid
    L0 = grid.hessian_symbol(np.linalg.inv(K.base_matrix))
    symbol = -L0 if R is None else L0 * L0 - R * L0
    inv_mult = twistk.grid.inverse_symbol(symbol)
    w = K.weight
    outer = None if R is None else np.sqrt(w)
    inner = w if outer is None else w * outer

    def apply(r):
        z = grid.derivatives(inner * r, inv_mult)
        return volume_mean_zero(K, z if outer is None else outer * z)

    return apply


def _reference_pcg(apply_A, b, K, tol, apply_M, what):
    w = K.weight

    def dot(u, v):
        return float(np.sum(u * v * w))

    b = volume_mean_zero(K, b)
    bnorm = volume_rms(K, b)

    def residual(x):
        return volume_mean_zero(K, b - apply_A(x))

    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, {"iterations": 0, "residual": 0.0, "history": []}
    r = b.copy()
    z = apply_M(r)
    p = z.copy()
    rz = dot(r, z)
    history = []
    for i in range(1, solvers._KRYLOV_MAXITER + 1):
        Ap = apply_A(p)
        pAp = dot(p, Ap)
        if pAp <= 0.0:
            raise IterationLimitError(f"{what}: non-positive curvature", history)
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        refreshed = i % solvers._CG_REFRESH == 0
        if refreshed:
            r = residual(x)
        res = volume_rms(K, r) / bnorm
        history.append(res)
        if res <= tol:
            if i > 1 and not refreshed:
                r = residual(x)
                res = volume_rms(K, r) / bnorm
            if res <= 10.0 * tol:
                return volume_mean_zero(K, x), {"iterations": i, "residual": res,
                                                "history": history}
        z = apply_M(r)
        rz_new = dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise IterationLimitError(f"{what}: no convergence", history)


def _reference_gmres(apply_A, b, K, tol, apply_M, what):
    w = K.weight

    def dot(u, v):
        return float(np.sum(u * v * w))

    restart = solvers._GMRES_RESTART
    b = volume_mean_zero(K, b)
    bnorm = math.sqrt(dot(b, b))
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, {"iterations": 0, "residual": 0.0, "history": []}
    target = 0.1 * tol
    history = []
    r, beta = b, bnorm
    while True:
        V = [r / beta]
        H = np.zeros((restart + 1, restart))
        cs = np.zeros(restart)
        sn = np.zeros(restart)
        g = np.zeros(restart + 1)
        g[0] = beta
        for j in range(restart):
            t = apply_A(apply_M(V[j]))
            for i in range(j + 1):
                H[i, j] = dot(t, V[i])
                t -= H[i, j] * V[i]
            H[j + 1, j] = math.sqrt(dot(t, t))
            for i in range(j):
                H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                        cs[i] * H[i + 1, j] - sn[i] * H[i, j])
            rho = math.hypot(H[j, j], H[j + 1, j])
            if rho == 0.0:
                raise IterationLimitError(f"{what}: breakdown", history)
            cs[j], sn[j] = H[j, j] / rho, H[j + 1, j] / rho
            if H[j + 1, j] != 0.0:
                V.append(t / H[j + 1, j])
            H[j, j], H[j + 1, j] = rho, 0.0
            g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
            history.append(abs(g[j + 1]) / bnorm)
            if history[-1] <= target or len(history) == solvers._KRYLOV_MAXITER:
                break
        k = j + 1
        y = np.linalg.solve(H[:k, :k], g[:k])
        x = x + apply_M(sum(yi * vi for yi, vi in zip(y, V)))
        r = volume_mean_zero(K, b - apply_A(x))
        beta = math.sqrt(dot(r, r))
        true_res = beta / bnorm
        stopped = history[-1] <= target or len(history) == solvers._KRYLOV_MAXITER
        if true_res <= (10.0 * tol if stopped else target):
            return volume_mean_zero(K, x), {"iterations": len(history),
                                            "residual": true_res, "history": history}
        if len(history) == solvers._KRYLOV_MAXITER:
            raise IterationLimitError(f"{what}: no convergence", history)


def _two_grid_start(grid, R=8.0):
    """The threshold workload's problem on grid: twist 0.2 cos x_1 on the
    identity class, the start prolonged from a converged half-grid
    Newton solve from the proportional seed."""
    g0 = np.eye(grid.n, dtype=complex)
    wavevector = (1,) + (0,) * (2 * grid.n - 1)
    alpha = HermitianFormField.from_potential(
        grid, g0, make_trig_field(grid, [(0.2, wavevector, 0.0)]).values)
    start, coarse_iters, error = engine._half_grid_start(
        grid, g0, euclid_mean_zero(alpha.potential), alpha, R, SolverConfig())
    assert start is not None and coarse_iters > 0, error
    return start, alpha, R


def _traced_peak(run) -> int:
    """Peak bytes that run() allocates above what is live when it starts."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestHeldFields:
    """At 8^4, n = 2, each Krylov and Newton field is held only until its
    last read.  Counts are of 8^4 float fields; each bound lies between
    the level measured here and that of loops holding the fields its
    comment names, a field or more above it."""

    @staticmethod
    def pointwise_problem(grid):
        # a diagonal operator d v and the projection as M: each
        # application makes two fields, so the solve's own fields show
        pot = random_smooth_field(grid, np.random.default_rng(3), amplitude=0.1)
        K = KahlerStructure(grid, EYE2, euclid_mean_zero(pot.values))
        rhs = volume_mean_zero(K, random_smooth_field(
            grid, np.random.default_rng(4), amplitude=1.0).values)
        d = 1.0 + 0.2 * np.cos(0.37 * np.arange(grid.npoints).reshape(grid.shape))

        def apply_A(v):
            return volume_mean_zero(K, d * v)

        def apply_M(v):
            return volume_mean_zero(K, v)

        return K, rhs, apply_A, apply_M

    def test_a_newton_iteration_from_a_prolonged_start_peaks_below_26_fields(
            self, grid8x4, monkeypatch):
        # one fine iteration of 4 GMRES iterations peaks at 24.2 fields;
        # a mean-zero start copy alive through the solve, a held scalar
        # curvature, a zero-field GMRES start, the Gram-Schmidt field of
        # the last iteration and a held w * sqrt(w) made 28.2
        start, alpha, R = _two_grid_start(grid8x4)
        monkeypatch.setattr(engine, "_MAX_NEWTON", 1)
        assert newton_solve(start, alpha, R).iterations == 1
        K0 = KahlerStructure(grid8x4, EYE2, start.potential.copy())
        peak = _traced_peak(lambda: newton_solve(K0, alpha, R))
        assert peak < 26 * grid8x4.npoints * 8
        assert "scalar" not in vars(K0)

    def test_gmres_holds_under_six_and_a_third_fields_beside_its_basis(self, grid8x4):
        # one cycle of k iterations keeps k + 1 basis fields; beside them
        # it peaks at 5.8 fields (b, the update's partial sums and the
        # Hessenberg arrays), and a zero-field start made 6.8
        K, rhs, apply_A, apply_M = self.pointwise_problem(grid8x4)
        _, info = solvers._gmres(apply_A, rhs, K, 1e-10, apply_M, "gmres")
        k = info["iterations"]
        assert 2 < k < solvers._GMRES_RESTART
        peak = _traced_peak(lambda: solvers._gmres(apply_A, rhs, K, 1e-10, apply_M,
                                                   "gmres"))
        assert peak < (k + 1 + 6.3) * grid8x4.npoints * 8

    def test_pcg_peaks_under_seven_and_a_half_fields(self, grid8x4):
        # b, x, r, z, p and an update's two temporaries: 7.0 fields over
        # 11 iterations; keeping A p to its rebinding made 8.1
        K, rhs, apply_A, apply_M = self.pointwise_problem(grid8x4)
        _, info = solvers._pcg(apply_A, rhs, K, 1e-10, apply_M, "pcg")
        assert info["iterations"] > 2
        peak = _traced_peak(lambda: solvers._pcg(apply_A, rhs, K, 1e-10, apply_M, "pcg"))
        assert peak < 7.5 * grid8x4.npoints * 8

    def test_the_fourth_order_preconditioner_holds_sqrt_det_g_alone(self, grid8x4):
        # sqrt(w) and the inverse symbol on the half spectrum, 1.65
        # fields; holding w * sqrt(w) too made 2.65
        K, _, _, _ = self.pointwise_problem(grid8x4)
        solvers._spd_preconditioner(K, 3.0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            apply_M = solvers._spd_preconditioner(K, 3.0)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 2.1 * grid8x4.npoints * 8


class TestReferenceLoops:
    """The solvers keep the bits of the reference loops above."""

    @staticmethod
    def problems(grid32, grid8x4):
        out = []
        for grid in (grid32, grid8x4):
            rng = np.random.default_rng(47)
            K, alpha = random_pair(grid, rng, kmax=2)
            rhs = random_smooth_field(grid, rng, amplitude=1.0, kmax=3).values
            out.append((K, alpha, volume_mean_zero(K, rhs)))
        return out

    @pytest.mark.parametrize("R", [None, 0.0, 3.0])
    def test_preconditioner_map_has_the_reference_bits(self, grid32, grid8x4, R):
        for K, _, rhs in self.problems(grid32, grid8x4):
            assert (solvers._spd_preconditioner(K, R)(rhs).tobytes()
                    == _reference_preconditioner(K, R)(rhs).tobytes())

    def test_cg_solves_have_the_reference_bits(self, grid32, grid8x4):
        # the second-order and the shifted solves, and at n = 1 a twist
        # solve: the n = 1 second-order solves take one step, whose x is
        # the first update alone, and the others several
        steps = []
        for K, alpha, rhs in self.problems(grid32, grid8x4):
            cases = [(lambda v, K=K: K.grid.hessian_trace(K.inverse_stack, v), None)]
            shifted = LinearOperatorHandle("shifted", K, alpha, 3.0, mean_zero=True)
            cases.append((shifted.apply, 3.0))
            if K.n == 1:
                c = 2.0
                own = HermitianFormField.from_potential(K.grid, c * K.base_matrix,
                                                        c * K.potential)
                cases.append((LinearOperatorHandle("twist", K, own, mean_zero=True).apply,
                              None))
            for apply_A, R in cases:
                def negated(v, apply_A=apply_A):
                    return -apply_A(v)

                x, info = solvers._pcg(negated, -rhs, K, 1e-10,
                                       solvers._spd_preconditioner(K, R), "pcg")
                ref, ref_info = _reference_pcg(negated, -rhs, K, 1e-10,
                                               _reference_preconditioner(K, R), "pcg")
                assert x.tobytes() == ref.tobytes()
                assert info == ref_info
                steps.append(info["iterations"])
        assert steps[0] == steps[2] == 1 and min(steps[1], *steps[3:]) > 2, steps

    @pytest.mark.parametrize("restart", [None, 3])
    def test_gmres_solves_have_the_reference_bits(self, grid32, grid8x4, restart,
                                                  monkeypatch):
        if restart is not None:
            monkeypatch.setattr(solvers, "_GMRES_RESTART", restart)
        for K, alpha, rhs in self.problems(grid32, grid8x4):
            handle = LinearOperatorHandle("full_linearization", K, alpha, 5.0,
                                          mean_zero=True)
            apply_M = solvers._spd_preconditioner(K, 5.0)
            ref_M = _reference_preconditioner(K, 5.0)
            x, info = solvers._gmres(handle.apply, rhs, K, 1e-10,
                                     lambda v: -apply_M(v), "gmres")
            ref, ref_info = _reference_gmres(handle.apply, rhs, K, 1e-10,
                                             lambda v: -ref_M(v), "gmres")
            assert info["iterations"] > (2 if restart is None else restart)
            assert x.tobytes() == ref.tobytes()
            assert info == ref_info

    def test_newton_iterates_have_the_reference_bits(self, grid32, grid8x4, monkeypatch):
        # the 8^4 two-grid start (one fine iteration; at 32^2 the
        # prolonged start has already converged) and the proportional
        # seeds at 32^2 and 8^4 (two iterations each)
        starts = [_two_grid_start(grid8x4)]
        for grid in (grid32, grid8x4):
            _, alpha, R = _two_grid_start(grid)
            seed = KahlerStructure(grid, alpha.base_matrix, euclid_mean_zero(alpha.potential))
            starts.append((seed, alpha, R))
        reports = [newton_solve(K0, alpha, R) for K0, alpha, R in starts]
        monkeypatch.setattr(solvers, "_gmres", _reference_gmres)
        monkeypatch.setattr(solvers, "_spd_preconditioner", _reference_preconditioner)
        for (K0, alpha, R), report, iterations in zip(starts, reports, (1, 2, 2)):
            ref = newton_solve(K0, alpha, R)
            assert report.converged and report.iterations == iterations
            assert report.history == ref.history
            assert report.structure.potential.tobytes() == ref.structure.potential.tobytes()
            assert report.residual_sup == ref.residual_sup
