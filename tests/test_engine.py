"""Continuity-path engine: residuals, ladder, Newton, certificates, sweeps."""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from twistk import (
    HermitianFormField,
    KahlerStructure,
    PeriodicGrid,
    R_to_t,
    SolverConfig,
    WarmChain,
    build_approximate_solution,
    continuity_sweep,
    estimate_R_threshold,
    ift_certificate,
    newton_solve,
    perturb_twist,
    proportional_seed_potential,
    t_to_R,
    trivial_twist,
    twisted_residual,
    volume_average,
)
from twistk.errors import (
    IterationLimitError,
    PreconditionError,
    UnsupportedOrderError,
)
from twistk.config import DEFAULT_T_SCHEDULE, RunConfig
from twistk.grid import half_grid, make_trig_field, prolong, restrict, rms_norm, sup_norm
import twistk.engine as engine
import twistk.runner as runner
import twistk.solvers as solvers
from twistk.runner import run_scenario
from twistk.oracles import order_fit

from conftest import EYE1, EYE2, seed_structure, trig_terms

FAST = SolverConfig(newton_tol=1e-9, krylov_tol=1e-10)


def swept(grid, g0, alpha, t_values, cfg=FAST, *, ladder_order=2, eigen_seed=0):
    """A sweep as the runner makes it: the `seed_chain` chain at the first
    weight, continued by `continuity_sweep`."""
    chain = engine.seed_chain(grid, g0, alpha, t_to_R(t_values[0]), ladder_order, cfg)
    continuity_sweep(chain, alpha, t_values, eigen_seed=eigen_seed)
    return chain


def descended(grid, g0, alpha, *, R_start, ladder_order=2, cfg=FAST):
    """A threshold descent as the runner makes it: the `seed_chain` chain
    at R_start, continued by `estimate_R_threshold`; the chain and the
    estimate."""
    chain = engine.seed_chain(grid, g0, alpha, R_start, ladder_order, cfg)
    return chain, estimate_R_threshold(chain, alpha, R_start=R_start)


def assert_class_plus_potential(form):
    """The form's components are exactly its class matrix plus the
    Hessian of its potential."""
    rebuilt = HermitianFormField.from_potential(form.grid, form.base_matrix,
                                                form.potential)
    assert np.array_equal(form.comps, rebuilt.comps)


def product_seed(grid):
    """Structure from 0.3 cos(x) cos(y) with its own metric form as twist."""
    K = seed_structure(grid, [(0.15, (1, 1), 0.0), (0.15, (1, -1), 0.0)])
    alpha = HermitianFormField.from_potential(grid, K.base_matrix, K.potential)
    return K, alpha


class TestPathMaps:
    def test_midpoint_and_endpoint(self):
        assert t_to_R(0.5) == 1.0
        assert t_to_R(1.0) == 0.0
        assert R_to_t(1.0) == 0.5
        assert R_to_t(0.0) == 1.0

    @given(t=st.floats(0.01, 1.0))
    def test_round_trip(self, t):
        assert abs(R_to_t(t_to_R(t)) - t) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(PreconditionError):
            t_to_R(0.0)
        with pytest.raises(PreconditionError):
            t_to_R(1.5)
        with pytest.raises(PreconditionError):
            R_to_t(-2.0)


class TestTwistedResidual:
    def test_flat_solves_exactly_n1(self, flat32, alpha_flat32):
        residual, const = twisted_residual(flat32, alpha_flat32, 7.0)
        assert sup_norm(residual.values) <= 1e-12
        assert abs(const - (-7.0)) <= 1e-12

    def test_flat_solves_exactly_n2(self, grid8x4):
        K = KahlerStructure(grid8x4, EYE2, np.zeros(grid8x4.shape))
        alpha = HermitianFormField.from_potential(grid8x4, EYE2)
        residual, const = twisted_residual(K, alpha, 7.0)
        assert sup_norm(residual.values) <= 1e-12
        assert abs(const - (-14.0)) <= 1e-12

    def test_zero_weight_returns_centred_curvature(self, grid32):
        K = seed_structure(grid32, [(0.3, (1, 0), 0.0)])
        alpha = HermitianFormField.from_potential(grid32, EYE1, K.potential)
        residual, const = twisted_residual(K, alpha, 0.0)
        assert sup_norm(residual.values - K.scalar()) <= 1e-8 * sup_norm(K.scalar())

    @given(terms=trig_terms(2, 0.05))
    def test_residual_has_volume_mean_zero(self, terms):
        grid = PeriodicGrid(1, (16, 16))
        K = seed_structure(grid, terms)
        alpha = HermitianFormField.from_potential(grid, EYE1, K.potential)
        residual, const = twisted_residual(K, alpha, 11.0)
        mean = volume_average(K, residual)
        # round-off allowance: the constant subtraction cancels to machine
        # precision even when the residual itself is at round-off scale
        assert abs(mean) <= 1e-9 * sup_norm(residual.values) + 1e-13 * (1.0 + abs(const))


class TestTrivialTwist:
    def test_flat_input_is_returned_unchanged(self, flat32, alpha_flat32):
        twisted, report = trivial_twist(flat32, alpha_flat32, 100.0)
        assert np.array_equal(twisted.comps, alpha_flat32.comps)
        assert report.positive

    def test_nonpositive_weight_is_rejected(self, flat32, alpha_flat32):
        with pytest.raises(PreconditionError):
            trivial_twist(flat32, alpha_flat32, 0.0)

    def test_residual_is_absorbed_at_large_weight(self, grid16):
        K = seed_structure(grid16, [(0.3, (1, 0), 0.0)])
        alpha = HermitianFormField.from_potential(grid16, EYE1)
        twisted, report = trivial_twist(K, alpha, 50.0)
        residual, _ = twisted_residual(K, twisted, 50.0)
        assert sup_norm(residual.values) <= 1e-8
        assert report.positive
        assert report.min_eigenvalue > 0.0

    def test_twisted_form_is_its_class_plus_potential(self, grid16):
        K = seed_structure(grid16, [(0.3, (1, 0), 0.0)])
        alpha = HermitianFormField.from_potential(
            grid16, EYE1, make_trig_field(grid16, [(0.1, (1, 1), 0.3)]).values)
        twisted, _ = trivial_twist(K, alpha, 50.0)
        assert np.array_equal(twisted.base_matrix, alpha.base_matrix)
        assert_class_plus_potential(twisted)

    def test_positivity_fails_at_tiny_weight(self, grid16):
        K = seed_structure(grid16, [(0.3, (1, 0), 0.0)])
        alpha = HermitianFormField.from_potential(grid16, EYE1)
        _, report = trivial_twist(K, alpha, 1e-3)
        assert not report.positive
        assert report.min_eigenvalue <= 0.0


class TestLadder:
    def test_flat_seed_needs_no_corrections(self, flat32, alpha_flat32):
        # the flat metric solves a constant twist, so no rung moves it
        sol = build_approximate_solution(flat32, alpha_flat32, 100.0, 3)
        assert len(sol.residual_sups) == 4
        assert all(sup <= 1e-14 for sup in sol.residual_sups)
        assert not np.any(sol.structure.potential)

    def test_non_proportional_twist_is_rejected(self, flat32, grid32):
        x, _ = grid32.coordinates()
        pot = 0.2 * np.cos(x) + np.zeros(grid32.shape)
        alpha = HermitianFormField.from_potential(grid32, EYE1, pot)
        with pytest.raises(PreconditionError):
            build_approximate_solution(flat32, alpha, 100.0, 2)

    def test_order_validation(self, flat32, alpha_flat32):
        for bad in (-1, 9, 2.5):
            with pytest.raises(UnsupportedOrderError):
                build_approximate_solution(flat32, alpha_flat32, 100.0, bad)
        with pytest.raises(PreconditionError):
            build_approximate_solution(flat32, alpha_flat32, 0.0, 2)

    def test_recorded_residuals_match_recomputation(self, grid32):
        K, alpha = product_seed(grid32)
        sol = build_approximate_solution(K, alpha, 100.0, 2, FAST)
        residual, const = twisted_residual(sol.structure, alpha, 100.0)
        recomputed = sup_norm(residual.values)
        assert abs(sol.residual_sups[-1] - recomputed) <= 1e-12 * max(recomputed, 1e-30)
        assert abs(sol.constant - const) <= 1e-12 * max(abs(const), 1e-30)
        assert len(sol.residual_sups) == 3

    def test_each_rung_records_the_iterations_of_its_solve(self, grid32, monkeypatch):
        K, alpha = product_seed(grid32)
        seen = []
        pcg = solvers._pcg

        def recording(*args, **kwargs):
            x, info = pcg(*args, **kwargs)
            seen.append(info["iterations"])
            return x, info

        monkeypatch.setattr(solvers, "_pcg", recording)
        sol = build_approximate_solution(K, alpha, 100.0, 3, FAST)
        assert sol.linear_iterations == tuple(seen)
        # at n = 1 the preconditioner inverts the ladder's operator
        assert len(seen) == 3 and all(1 <= i <= 2 for i in seen)

    def test_rung_records_are_those_of_the_shorter_ladders(self, grid32):
        K, alpha = product_seed(grid32)
        full = build_approximate_solution(K, alpha, 100.0, 3, FAST)
        assert len(full.residual_rms) == len(full.wall_ms) == 4
        assert list(full.wall_ms) == sorted(full.wall_ms)
        for m in range(4):
            rung = build_approximate_solution(K, alpha, 100.0, m, FAST)
            residual, _ = twisted_residual(rung.structure, alpha, 100.0)
            assert full.residual_sups[m] == rung.residual_sups[-1]
            assert full.residual_rms[m] == rms_norm(residual.values)

    def test_single_rung_gains_one_power(self, grid32):
        K, alpha = product_seed(grid32)
        Rs = (50.0, 100.0, 200.0)
        sups = [build_approximate_solution(K, alpha, R, 1, FAST).residual_sups[-1]
                for R in Rs]
        fit = order_fit(Rs, [s / R for s, R in zip(sups, Rs)])
        assert abs(fit.exponent - (-2.0)) <= 0.15

    def test_three_rungs_beat_one_by_thirty(self, grid32):
        K, alpha = product_seed(grid32)
        sup1 = build_approximate_solution(K, alpha, 100.0, 1, FAST).residual_sups[-1]
        sup3 = build_approximate_solution(K, alpha, 100.0, 3, FAST).residual_sups[-1]
        assert sup1 / sup3 >= 10.0 ** 1.5


class TestNewtonSolve:
    def test_flat_small_init_converges_to_zero_potential(self, grid32):
        x, _ = grid32.coordinates()
        K0 = KahlerStructure(grid32, EYE1,
                             1e-3 * np.cos(x) + np.zeros(grid32.shape))
        alpha = HermitianFormField.from_potential(grid32, EYE1)
        report = newton_solve(K0, alpha, 100.0, FAST)
        assert report.converged
        assert report.iterations <= 5
        assert report.residual_sup <= 1e-9
        assert sup_norm(report.structure.potential) <= 1e-7

    def test_budget_exhaustion_raises(self, grid32, monkeypatch):
        """Budget exhaustion raises IterationLimitError inside the solve,
        and the report carries it as "<class>: <message>"."""
        K, alpha = product_seed(grid32)
        monkeypatch.setattr(engine, "_MAX_NEWTON", 1)
        cfg = SolverConfig(newton_tol=1e-15, krylov_tol=1e-10)
        report = newton_solve(K, alpha, 100.0, cfg)
        assert not report.converged
        assert report.message.startswith("IterationLimitError: newton_solve:")

    def test_failure_can_be_reported_instead(self, grid32, monkeypatch):
        K, alpha = product_seed(grid32)
        monkeypatch.setattr(engine, "_MAX_NEWTON", 1)
        cfg = SolverConfig(newton_tol=1e-15, krylov_tol=1e-10)
        report = newton_solve(K, alpha, 100.0, cfg)
        assert not report.converged
        assert report.iterations == 1
        assert report.message != ""


class TestIFTCertificate:
    def test_flat_solution_is_certified(self, flat32, alpha_flat32):
        cert = ift_certificate(flat32, alpha_flat32, 100.0, FAST)
        assert cert.certified
        assert cert.verdict == "certified"
        assert cert.defect < cert.ball_radius
        assert cert.lipschitz_quotient <= 0.5 / cert.inverse_norm
        assert cert.ball_radius == cert.lipschitz_radius / (2.0 * cert.inverse_norm)

    def test_defect_shrinks_with_ladder_order(self, grid32):
        K, alpha = product_seed(grid32)
        defects = []
        for order in (1, 3):
            sol = build_approximate_solution(K, alpha, 200.0, order, FAST)
            cert = ift_certificate(sol.structure, alpha, 200.0, FAST)
            defects.append(cert.defect)
        assert defects[1] < defects[0]
        final = ift_certificate(
            build_approximate_solution(K, alpha, 200.0, 3, FAST).structure,
            alpha, 200.0, FAST)
        assert final.certified


def base_chain(K, alpha, R=100.0, cfg=FAST):
    """A chain whose one step solved, or tried to solve, the base problem
    from K."""
    chain = WarmChain(K, "explicit-potential", cfg)
    chain.step(alpha, R)
    return chain


class TestPerturbTwist:
    def test_identity_perturbation_needs_no_iterations(self, flat32, alpha_flat32):
        chain = base_chain(flat32, alpha_flat32)
        perturb_twist(chain, alpha_flat32)
        assert len(chain.records) == 2
        assert chain.records[1].converged
        assert chain.records[1].newton_iters == 0
        assert chain.structure is flat32

    def test_unsolved_base_is_rejected(self, grid32, monkeypatch):
        K, alpha = product_seed(grid32)
        with pytest.raises(PreconditionError, match="no step"):
            perturb_twist(WarmChain(K, "explicit-potential", FAST), alpha)
        with monkeypatch.context() as patch:
            patch.setattr(engine, "_MAX_NEWTON", 0)
            failed = base_chain(K, alpha)
        assert not failed.records[-1].converged
        with pytest.raises(PreconditionError, match="not converged to 1e-09"):
            perturb_twist(failed, alpha)

    def test_stages_solve_at_the_base_tolerance(self, grid32):
        # a base converged at a loose tolerance is a solved base, and its
        # stages solve at the same tolerance, the chain's
        K, alpha = product_seed(grid32)
        loose = base_chain(K, alpha, cfg=dataclasses.replace(FAST, newton_tol=1e-3))
        assert loose.records[-1].converged
        assert loose.records[-1].residual_sup > FAST.newton_tol
        target = HermitianFormField(grid32, alpha.base_matrix, alpha.potential
                                    + make_trig_field(grid32, [(0.02, (1, 0), 0.0)]).values)
        perturb_twist(loose, target, steps=2)
        assert [r.converged for r in loose.records] == [True] * 3
        assert all(r.residual_sup <= 1e-3 for r in loose.records)

    def test_residual_is_evaluated_only_inside_newton(self, grid16, alpha16,
                                                      monkeypatch):
        # the precondition reads the base step's record; the residual of
        # the base metric is not evaluated a second time
        flat = KahlerStructure(grid16, EYE1, np.zeros(grid16.shape))
        chain = base_chain(flat, alpha16)
        target = HermitianFormField.from_potential(
            grid16, EYE1, make_trig_field(grid16, [(0.05, (1, 0), 0.0)]).values)
        original_newton, original_residual = engine.newton_solve, engine.twisted_residual
        depth, inside, outside = [0], [], []

        def newton(*args, **kwargs):
            depth[0] += 1
            try:
                return original_newton(*args, **kwargs)
            finally:
                depth[0] -= 1

        def residual(*args, **kwargs):
            (inside if depth[0] else outside).append(args)
            return original_residual(*args, **kwargs)

        monkeypatch.setattr(engine, "newton_solve", newton)
        monkeypatch.setattr(engine, "twisted_residual", residual)
        perturb_twist(chain, target, steps=2)
        assert [r.converged for r in chain.records] == [True] * 3
        assert inside and not outside

    def test_stage_forms_are_class_plus_potential(self, grid16, alpha16,
                                                  monkeypatch):
        # the flat metric solves every twist with a constant form
        flat = KahlerStructure(grid16, EYE1, np.zeros(grid16.shape))
        chain = base_chain(flat, alpha16)
        target = HermitianFormField.from_potential(
            grid16, 1.5 * EYE1,
            make_trig_field(grid16, [(0.05, (1, 0), 0.0)]).values)
        original = engine.newton_solve
        stages = []

        def recording(K, alpha, *args, **kwargs):
            stages.append(alpha)
            return original(K, alpha, *args, **kwargs)

        monkeypatch.setattr(engine, "newton_solve", recording)
        perturb_twist(chain, target, steps=3)
        assert [r.converged for r in chain.records[1:]] == [True] * 3
        # each stage solves on the half grid first, with the stage form
        # sampled there, then on the configured grid
        assert [form.grid.sizes for form in stages] == [(8, 8), (16, 16)] * 3
        for j in range(1, 4):
            s = j / 3
            coarse, form = stages[2 * j - 2:2 * j]
            assert np.array_equal(form.base_matrix, (1.0 - s) * alpha16.base_matrix
                                  + s * target.base_matrix)
            assert np.array_equal(coarse.base_matrix, form.base_matrix)
            assert np.array_equal(coarse.potential, form.potential[::2, ::2])
            assert_class_plus_potential(form)
            assert_class_plus_potential(coarse)

    def test_step_count_is_validated(self, flat32, alpha_flat32):
        with pytest.raises(PreconditionError):
            perturb_twist(base_chain(flat32, alpha_flat32), alpha_flat32, steps=0)


class TestSolveStep:
    def test_record_holds_only_plain_values(self, grid16):
        # the half-grid solution of this twist is 9e-9 off on 16^2, so
        # both stages iterate
        alpha = HermitianFormField.from_potential(
            grid16, EYE1, make_trig_field(grid16, [(0.2, (1, 0), 0.0)]).values)
        K0 = KahlerStructure(grid16, EYE1,
                             make_trig_field(grid16, [(1e-3, (1, 0), 0.0)]).values)
        record, K = engine.solve_step(K0, alpha, 10.0, FAST, "flat", eigen_seed=0)
        assert record.converged and record.newton_iters == len(record.history) > 0
        assert (record.coarse_iters, record.coarse_error) == (3, "")
        assert FAST.newton_tol < record.coarse_residual_sup < 1e-8
        assert record.t == R_to_t(10.0)
        assert record.warm_source == "flat"
        assert record.eigen_iterations > 1
        assert sup_norm(twisted_residual(K, alpha, 10.0)[0].values) \
            == record.residual_sup
        plain = (bool, int, float, str)
        for value in dataclasses.asdict(record).values():
            entries = [v for h in value for v in h.values()] \
                if isinstance(value, tuple) else [value]
            assert all(isinstance(v, plain) for v in entries)


    @staticmethod
    def problem(grid):
        """A start 1e-3 off flat and a non-flat twist on the given grid."""
        naxes = len(grid.sizes)
        alpha = HermitianFormField.from_potential(
            grid, EYE1, make_trig_field(grid, [(0.2, (1,) + (0,) * (naxes - 1),
                                                0.0)]).values)
        K0 = KahlerStructure(grid, EYE1, make_trig_field(
            grid, [(1e-3, (1, 1) + (0,) * (naxes - 2), 0.0)]).values)
        return K0, alpha

    @staticmethod
    def assert_plain_newton(record, K, K0, alpha, R):
        """record and K are those of newton_solve(K0, ...) alone."""
        report = newton_solve(K0, alpha, R, FAST)
        assert (record.converged, record.residual_sup, record.residual_l2,
                record.constant, record.newton_iters, record.history,
                record.newton_error) == (
            report.converged, report.residual_sup, report.residual_l2,
            report.constant, report.iterations, report.history, report.message)
        assert np.array_equal(K.potential, report.structure.potential)
        assert np.array_equal(K.comps, report.structure.comps)
        assert math.isnan(record.coarse_residual_sup)

    def test_axis_not_a_multiple_of_four_solves_on_its_grid(self):
        K0, alpha = self.problem(PeriodicGrid(1, (16, 18)))
        record, K = engine.solve_step(K0, alpha, 10.0, FAST, "flat")
        assert (record.coarse_iters, record.coarse_error) == (
            0, "grid axis 18 not a multiple of 4")
        self.assert_plain_newton(record, K, K0, alpha, 10.0)

    def test_failed_half_grid_solve_falls_back(self, grid16, monkeypatch):
        K0, alpha = self.problem(grid16)
        original = engine.newton_solve

        def coarse_fails(K, *args, **kwargs):
            report = original(K, *args, **kwargs)
            if K.grid.sizes == (8, 8):
                report = dataclasses.replace(report, converged=False,
                                             message="forced failure")
            return report

        monkeypatch.setattr(engine, "newton_solve", coarse_fails)
        record, K = engine.solve_step(K0, alpha, 10.0, FAST, "flat")
        assert (record.coarse_iters, record.coarse_error) == (3, "forced failure")
        monkeypatch.setattr(engine, "newton_solve", original)
        self.assert_plain_newton(record, K, K0, alpha, 10.0)

    def test_degenerate_prolongation_falls_back(self, grid16, monkeypatch):
        # 8 cos(x) has Hessian -2 cos(x): the prolonged metric 1 + 2 cos(x)
        # is not positive
        K0, alpha = self.problem(grid16)
        monkeypatch.setattr(engine, "prolong", lambda values, fine, parities:
                            make_trig_field(fine, [(8.0, (1, 0), 0.0)]).values)
        record, K = engine.solve_step(K0, alpha, 10.0, FAST, "flat")
        assert record.coarse_iters == 3
        assert record.coarse_error.startswith(
            "DegenerateMetricError: metric is not positive definite")
        self.assert_plain_newton(record, K, K0, alpha, 10.0)

    def test_degenerate_restriction_falls_back(self, grid16, monkeypatch):
        # the two-grid step and the seed ladder restrict through one pair,
        # so both keep their own start when the half-grid metric
        # 1 + 2 cos(x) of the 8 cos(x) potential is not positive
        K0, alpha = self.problem(grid16)
        degenerate = make_trig_field(PeriodicGrid(1, (8, 8)), [(8.0, (1, 0), 0.0)]).values
        monkeypatch.setattr(engine, "restrict", lambda values, parities: degenerate)
        record, K = engine.solve_step(K0, alpha, 10.0, FAST, "flat")
        assert record.coarse_iters == 0
        assert record.coarse_error.startswith(
            "DegenerateMetricError: metric is not positive definite")
        self.assert_plain_newton(record, K, K0, alpha, 10.0)
        chain = engine.seed_chain(grid16, EYE1, alpha, 10.0, 2, FAST)
        assert chain.source == "proportional-seed"
        assert chain.ladder_error.startswith(
            "DegenerateMetricError: metric is not positive definite")
        assert chain.ladder_sizes == (8, 8)
        seed, _ = engine.seed_structure(grid16, EYE1, alpha)
        assert np.array_equal(chain._seed.potential, seed.potential)

    def test_solved_start_comes_back_unchanged(self, grid16, alpha16):
        flat = KahlerStructure(grid16, EYE1, np.zeros(grid16.shape))
        record, K = engine.solve_step(flat, alpha16, 10.0, FAST, "flat")
        assert K is flat
        assert (record.newton_iters, record.coarse_iters) == (0, 0)
        assert record.coarse_error == "half-grid start already converged"

    @staticmethod
    def assert_translation_is_followed(grid):
        """Solving the 0.2 cos(x_1 - shift) twist at R = 10, then at R = 5
        from there, for shifts of 0 and 1 grid step: the half grid samples
        the odd x_1 points after the shift, and both second steps do the
        same work and give translated potentials."""
        naxes = len(grid.sizes)
        step = 2.0 * math.pi / grid.sizes[0]
        g0 = np.eye(grid.n, dtype=complex)
        flat = KahlerStructure(grid, g0, np.zeros(grid.shape))
        records, potentials = [], []
        for shift in (0, 1):
            alpha = HermitianFormField.from_potential(grid, g0, make_trig_field(
                grid, [(0.2, (1,) + (0,) * (naxes - 1), -shift * step)]).values)
            _, K = engine.solve_step(flat, alpha, 10.0, FAST, "flat")
            assert half_grid(grid, K.potential)[1] == (shift,) + (0,) * (naxes - 1)
            record, K = engine.solve_step(K, alpha, 5.0, FAST, "previous-step")
            records.append(record)
            potentials.append(K.potential)
        assert [(r.newton_iters, r.coarse_iters, r.coarse_error) for r in records] \
            == [(1, 2, "")] * 2
        assert records[1].coarse_residual_sup == pytest.approx(
            records[0].coarse_residual_sup, rel=1e-6)
        assert sup_norm(np.roll(potentials[0], 1, axis=0) - potentials[1]) <= 1e-12

    def test_sampling_follows_a_one_step_translation(self, grid16):
        # the solution of the 0.2 cos(x - shift) twist has a cos(4(x - shift))
        # mode that the even points of the half grid see only at shift 0
        self.assert_translation_is_followed(grid16)

    def test_sampling_follows_a_one_step_translation_at_n2(self, grid8x4):
        # the same with a cos(2(x_1 - shift)) mode on the 4^4 half grid
        self.assert_translation_is_followed(grid8x4)

    @example(R=1e-13, n=1)
    @example(R=1e-13, n=2)
    @given(R=st.floats(0.0, 0.5), n=st.sampled_from([1, 2]))
    def test_small_weights_stay_near_flat(self, R, n):
        # the flat metric solves R = 0, and the solution's potential is
        # O(R) (measured: sup below 0.80 R at n = 1, 0.77 R at n = 2)
        grid = PeriodicGrid(n, (16, 16) if n == 1 else (8, 8, 8, 8))
        g0 = np.eye(n, dtype=complex)
        alpha = HermitianFormField.from_potential(grid, g0, make_trig_field(
            grid, [(0.2, (1,) + (0,) * (2 * n - 1), 0.3)]).values)
        flat = KahlerStructure(grid, g0, np.zeros(grid.shape))
        record, K = engine.solve_step(flat, alpha, R, FAST, "flat")
        assert record.converged
        assert record.residual_sup <= FAST.newton_tol
        assert sup_norm(K.potential) <= R
        if R <= 1e-12:
            assert record.coarse_error == "half-grid start already converged"

    def test_negative_weight_fails_before_any_solve(self, grid16, alpha16,
                                                    monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("newton_solve called")

        monkeypatch.setattr(engine, "newton_solve", refuse)
        flat = KahlerStructure(grid16, EYE1, np.zeros(grid16.shape))
        with pytest.raises(PreconditionError, match="twist weight must be >= 0"):
            engine.solve_step(flat, alpha16, -0.5, FAST, "flat")

    def test_four_point_axis_falls_back(self):
        K0, alpha = self.problem(PeriodicGrid(1, (4, 8)))
        record, _ = engine.solve_step(K0, alpha, 10.0, FAST, "flat")
        assert record.coarse_error == "grid axis 4 below 8"
        assert record.coarse_iters == 0


class TestContinuitySweep:
    def test_t_values_must_increase(self, grid16, alpha16):
        chain = engine.seed_chain(grid16, EYE1, alpha16, 1.0, 2, FAST)
        with pytest.raises(PreconditionError):
            continuity_sweep(chain, alpha16, (0.7, 0.3))
        with pytest.raises(PreconditionError):
            continuity_sweep(chain, alpha16, ())
        assert chain.records == []

    def test_every_t_is_mapped_before_the_first_solve(self, grid16, alpha16,
                                                      monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("newton_solve called")

        monkeypatch.setattr(engine, "newton_solve", refuse)
        with pytest.raises(PreconditionError, match="must lie in"):
            swept(grid16, EYE1, alpha16, (0.5, 0.8, 1.5))

    def test_flat_path_reaches_endpoint(self, grid16, alpha16):
        chain = swept(grid16, EYE1, alpha16, (0.5, 1.0))
        assert len(chain.records) == 2
        assert chain.records[0].warm_source == "ladder[2]"
        assert chain.records[1].warm_source == "previous-step"
        assert all(s.converged for s in chain.records)
        assert sup_norm(chain.structure.potential) <= 1e-7
        assert chain.R == 0.0
        assert abs(chain.records[1].lambda1 - (-0.0625)) <= 1e-6

    def test_eigen_estimation_can_be_skipped(self, grid16, alpha16):
        (step,) = swept(grid16, EYE1, alpha16, (0.5,), ladder_order=0,
                        eigen_seed=None).records
        assert step.warm_source == "flat"
        assert math.isnan(step.lambda1)
        assert step.eigen_error == ""
        assert step.eigen_iterations == 0

    def test_steps_record_the_eigen_stage(self, grid16, alpha16):
        chain = swept(grid16, EYE1, alpha16, (0.5, 1.0))
        for step in chain.records:
            assert step.eigen_error == ""
            assert step.eigen_iterations > 1
            assert step.eigen_residual <= 1e-8

    def test_eigen_failure_keeps_its_class_and_message(self, grid16, alpha16,
                                                        monkeypatch):
        def failing(*args, **kwargs):
            raise IterationLimitError("extreme_eigenvalue: forced", [1.0])

        monkeypatch.setattr(engine, "extreme_eigenvalue", failing)
        (step,) = swept(grid16, EYE1, alpha16, (0.5,)).records
        assert step.converged
        assert math.isnan(step.lambda1)
        assert step.eigen_error == "IterationLimitError: extreme_eigenvalue: forced"

    def test_the_sweep_follows_a_one_grid_step_translation(self, grid32):
        # the seed ladder and every two-grid step keep the half-grid points
        # through the seed's peak, so a twist moved by one grid step gets
        # the same work at every step and the translated potential
        step = 2.0 * math.pi / grid32.sizes[0]
        works, potentials = [], []
        for shift in (0, 1):
            alpha = HermitianFormField.from_potential(grid32, EYE1, make_trig_field(
                grid32, [(0.2, (1, 0), -shift * step)]).values)
            chain = swept(grid32, EYE1, alpha, DEFAULT_T_SCHEDULE, eigen_seed=None)
            works.append([(r.newton_iters, r.coarse_iters,
                           [h["linear_iterations"] for h in r.history])
                          for r in chain.records])
            potentials.append(chain.structure.potential)
        assert len(works[0]) == 20
        assert works[0] == works[1]
        assert sup_norm(np.roll(potentials[0], 1, axis=0) - potentials[1]) <= 1e-12


class TestSeedStructure:
    """engine.seed_structure: the seed alone; seed_chain's ladder on it."""

    @staticmethod
    def skewed_twist(grid):
        # class diag(2, 3) is not proportional to the identity, and the
        # potential makes its trace in the flat metric non-constant
        x = grid.coordinates()[0]
        return HermitianFormField.from_potential(
            grid, np.diag([2.0, 3.0]).astype(complex),
            0.1 * np.cos(x) + np.zeros(grid.shape))

    def test_seed_sources(self, grid16, grid8x4, alpha16):
        x, _ = grid16.coordinates()
        pot = 0.2 * np.cos(x) + np.zeros(grid16.shape)
        scaled = HermitianFormField.from_potential(grid16, 2.0 * EYE1, pot)
        K, source = engine.seed_structure(grid16, EYE1, scaled)
        assert source == "proportional-seed"
        assert np.array_equal(K.potential, pot / 2.0 - (pot / 2.0).mean())
        # a zero explicit potential is no seed
        _, source = engine.seed_structure(grid16, EYE1, scaled,
                                          potential=np.zeros(grid16.shape))
        assert source == "proportional-seed"
        K, source = engine.seed_structure(grid16, EYE1, scaled, potential=pot + 0.05)
        assert source == "explicit-potential"
        assert np.array_equal(K.potential, (pot + 0.05) - (pot + 0.05).mean())
        for grid, g0, alpha in ((grid16, EYE1, alpha16),
                                (grid8x4, EYE2, self.skewed_twist(grid8x4))):
            K, source = engine.seed_structure(grid, g0, alpha)
            assert source == "flat"
            assert not np.any(K.potential)

    def test_ladder_runs_only_at_positive_order_and_weight(self, grid16, alpha16):
        chain = engine.seed_chain(grid16, EYE1, alpha16, 1.0, 2, FAST)
        assert (chain.source, chain.ladder_error) == ("ladder[2]", "")
        chain = engine.seed_chain(grid16, EYE1, alpha16, 0.0, 2, FAST)
        assert (chain.source, chain.ladder_error) == ("flat", "")

    def test_failed_ladder_falls_back_to_the_seed(self, grid8x4):
        chain = engine.seed_chain(grid8x4, EYE2, self.skewed_twist(grid8x4),
                                  100.0, 2, FAST)
        assert chain.source == "flat"
        assert not np.any(chain._seed.potential)
        assert chain.ladder_error.startswith("PreconditionError: ladder seed needs")
        assert chain.ladder_sizes == (4, 4, 4, 4)

    def test_any_twistk_error_of_the_ladder_falls_back(self, grid16, alpha16,
                                                       monkeypatch):
        def stalled(*args, **kwargs):
            raise IterationLimitError("solve_F: forced", [1.0])

        monkeypatch.setattr(engine, "build_approximate_solution", stalled)
        chain = swept(grid16, EYE1, alpha16, (0.5,), eigen_seed=None)
        assert chain.records[0].warm_source == chain.source == "flat"
        assert chain.ladder_error == "IterationLimitError: solve_F: forced"
        assert chain.records[0].converged
        chain, _ = descended(grid16, EYE1, alpha16, R_start=8.0)
        assert chain.records[0].warm_source == "flat"
        assert chain.ladder_error == "IterationLimitError: solve_F: forced"

    def test_unsupported_order_still_raises(self, grid16, alpha16):
        with pytest.raises(UnsupportedOrderError):
            swept(grid16, EYE1, alpha16, (0.5,), ladder_order=9)
        with pytest.raises(UnsupportedOrderError):
            descended(grid16, EYE1, alpha16, R_start=8.0, ladder_order=9)

    def test_sweep_restarts_from_the_seed_until_a_step_converges(
            self, grid16, alpha16, monkeypatch):
        original = engine.newton_solve

        def first_fails(K0, alpha, R, *args, **kwargs):
            report = original(K0, alpha, R, *args, **kwargs)
            if R == 1.0:
                report = dataclasses.replace(report, converged=False)
            return report

        monkeypatch.setattr(engine, "newton_solve", first_fails)
        chain = swept(grid16, EYE1, alpha16, (0.5, 1.0), eigen_seed=None)
        assert [s.warm_source for s in chain.records] == ["ladder[2]", "ladder[2]"]
        assert [s.converged for s in chain.records] == [False, True]


class TestSeedChain:
    """engine.seed_chain: each chain's ladder where its first step solves."""

    @staticmethod
    def ladder_grids(monkeypatch):
        """Sizes of the grid of every ladder build, the engine's and the
        runner's."""
        sizes = []
        original = engine.build_approximate_solution

        def recording(base, *args, **kwargs):
            sizes.append(base.grid.sizes)
            return original(base, *args, **kwargs)

        monkeypatch.setattr(engine, "build_approximate_solution", recording)
        monkeypatch.setattr(runner, "build_approximate_solution", recording)
        return sizes

    @staticmethod
    def proportional_twist(grid, terms):
        return HermitianFormField.from_potential(
            grid, np.eye(grid.n, dtype=complex), make_trig_field(grid, terms).values)

    def test_an_order_2_chain_builds_on_the_half_grid_when_there_is_one(
            self, grid16, grid8x4, monkeypatch):
        sizes = self.ladder_grids(monkeypatch)
        cases = ((grid16, EYE1, [(0.2, (1, 0), 0.0)], (8, 8)),
                 (grid8x4, EYE2, [(0.2, (1, 0, 0, 0), 0.0)], (4, 4, 4, 4)),
                 (PeriodicGrid(1, (18, 18)), EYE1, [(0.2, (1, 0), 0.0)], (18, 18)))
        for grid, g0, terms, ladder_sizes in cases:
            sizes.clear()
            alpha = self.proportional_twist(grid, terms)
            chain = engine.seed_chain(grid, g0, alpha, 8.0, 2, FAST)
            assert sizes == [ladder_sizes]
            assert chain.ladder_sizes == ladder_sizes
            assert (chain.source, chain.ladder_error) == ("ladder[2]", "")
            assert chain.step(alpha, 8.0)
            assert chain.records[0].warm_source == "ladder[2]"
        # the sweep and the threshold descent seed through it
        sizes.clear()
        alpha = self.proportional_twist(grid16, [(0.2, (1, 0), 0.0)])
        sweep = swept(grid16, EYE1, alpha, (0.5,), eigen_seed=None)
        descent, _ = descended(grid16, EYE1, alpha, R_start=8.0)
        assert sizes == [(8, 8), (8, 8)]
        assert sweep.ladder_sizes == descent.ladder_sizes == (8, 8)

    def test_no_ladder_without_an_order_and_a_weight(self, grid16, monkeypatch):
        sizes = self.ladder_grids(monkeypatch)
        alpha = self.proportional_twist(grid16, [(0.2, (1, 0), 0.0)])
        for R, order in ((8.0, 0), (0.0, 2)):
            chain = engine.seed_chain(grid16, EYE1, alpha, R, order, FAST)
            assert (chain.source, chain.ladder_error, chain.ladder_sizes) == (
                "proportional-seed", "", ())
        assert sizes == []

    def test_a_grid_without_a_half_grid_gets_the_configured_grid_ladder(self):
        grid = PeriodicGrid(1, (18, 18))
        alpha = self.proportional_twist(grid, [(0.2, (1, 0), 0.0)])
        chain = engine.seed_chain(grid, EYE1, alpha, 8.0, 2, FAST)
        ladder = build_approximate_solution(engine.seed_structure(grid, EYE1, alpha)[0],
                                            alpha, 8.0, 2, FAST)
        assert (chain.source, chain.ladder_error) == ("ladder[2]", "")
        assert chain.ladder_sizes == (18, 18)
        assert np.array_equal(chain._seed.potential, ladder.structure.potential)

    def test_seed_structure_and_ladder_study_keep_the_configured_grid(
            self, grid16, tmp_path, monkeypatch):
        sizes = self.ladder_grids(monkeypatch)
        alpha = self.proportional_twist(grid16, [(0.2, (1, 0), 0.0)])
        # the seed alone builds no ladder, on any grid
        assert engine.seed_structure(grid16, EYE1, alpha)[1] == "proportional-seed"
        assert sizes == []
        out = tmp_path / "ladder"
        cfg = RunConfig(scenario="ladder_study", sizes=(16, 16),
                        R_schedule=(50.0, 100.0, 200.0), order=2,
                        alpha_potential=((0.2, (1, 0), 0.0),), out=str(out))
        assert run_scenario(cfg) == 0
        assert sizes == [(16, 16)] * 3
        seed = json.loads((out / "summary.json").read_text())["seed"]
        assert seed == {"source": "proportional-seed", "ladder_error": "",
                        "ladder_sizes": []}

    def test_the_first_step_samples_the_ladder_at_the_chain_s_points(
            self, grid16, monkeypatch):
        # -sin 4x lives at the half grid's Nyquist wavenumber and vanishes
        # at the even points of the x axis, so that axis keeps its odd ones
        alpha = self.proportional_twist(
            grid16, [(0.2, (1, 0), 0.0), (0.01, (4, 0), 0.5 * math.pi)])
        halves, ladders = [], []
        original_half = engine.half_grid
        original_ladder = engine.build_approximate_solution

        def halving(grid, values, **kwargs):
            coarse, parities = original_half(grid, values, **kwargs)
            halves.append((values, coarse, parities))
            return coarse, parities

        def laddering(*args, **kwargs):
            ladder = original_ladder(*args, **kwargs)
            ladders.append(ladder.structure.potential)
            return ladder

        monkeypatch.setattr(engine, "half_grid", halving)
        monkeypatch.setattr(engine, "build_approximate_solution", laddering)
        chain = engine.seed_chain(grid16, EYE1, alpha, 8.0, 2, FAST)
        assert chain.step(alpha, 8.0)
        assert chain.records[0].coarse_iters > 0
        (_, _, parities), (start, _, step_parities) = halves[:2]
        assert parities == (1, 0)
        assert step_parities == parities
        (ladder,) = ladders
        prolonged = prolong(ladder, grid16, parities)
        assert np.array_equal(restrict(start, step_parities),
                              restrict(prolonged, parities))
        assert sup_norm(restrict(start, step_parities) - ladder) <= 1e-13

    @pytest.mark.parametrize("grid", ["grid16", "grid8x4"])
    def test_the_half_grid_ladder_follows_a_translation_of_the_seed(
            self, grid, request):
        # cos x_1 has no energy at the half grid's Nyquist wavenumber; a
        # shift by one grid step moves its peak to an odd point, which the
        # half grid keeps, so the ladder and the work are translated too
        grid = request.getfixturevalue(grid)
        naxes = len(grid.sizes)
        step = 2.0 * math.pi / grid.sizes[0]
        g0 = np.eye(grid.n, dtype=complex)
        chains, works = [], []
        for shift in (0, 1):
            alpha = self.proportional_twist(
                grid, [(0.2, (1,) + (0,) * (naxes - 1), -shift * step)])
            chains.append(engine.seed_chain(grid, g0, alpha, 8.0, 2, FAST))
            descent, _ = descended(grid, g0, alpha, R_start=8.0)
            works.append([(r.converged, r.coarse_iters, r.newton_iters,
                           [h["linear_iterations"] for h in r.history])
                          for r in descent.records])
        assert sup_norm(np.roll(chains[0]._seed.potential, 1, axis=0)
                        - chains[1]._seed.potential) <= 1e-13
        assert works[0] == works[1]

    def test_a_failed_half_grid_ladder_falls_back_to_the_seed(self, grid16,
                                                              monkeypatch):
        alpha = self.proportional_twist(grid16, [(0.2, (1, 0), 0.0)])
        seed, _ = engine.seed_structure(grid16, EYE1, alpha)

        def stalled(base, *args, **kwargs):
            assert base.grid.sizes == (8, 8)
            raise IterationLimitError("solve_F: forced", [1.0])

        monkeypatch.setattr(engine, "build_approximate_solution", stalled)
        chain = engine.seed_chain(grid16, EYE1, alpha, 8.0, 2, FAST)
        assert chain.source == "proportional-seed"
        assert chain.ladder_error == "IterationLimitError: solve_F: forced"
        assert chain.ladder_sizes == (8, 8)
        assert chain.step(alpha, 8.0)
        assert chain.records[0].warm_source == "proportional-seed"

        calls = TestWarmChain.record_steps(monkeypatch)
        chain = engine.seed_chain(grid16, EYE1, alpha, 8.0, 2, FAST)
        chain.step(alpha, 8.0)
        assert np.array_equal(calls[0][0].potential, seed.potential)

        def unsupported(*args, **kwargs):
            raise UnsupportedOrderError("forced")

        monkeypatch.setattr(engine, "build_approximate_solution", unsupported)
        with pytest.raises(UnsupportedOrderError):
            engine.seed_chain(grid16, EYE1, alpha, 8.0, 2, FAST)
        monkeypatch.undo()
        with pytest.raises(UnsupportedOrderError):
            engine.seed_chain(grid16, EYE1, alpha, 8.0, 9, FAST)

    def test_the_half_grid_ladder_does_the_configured_grid_s_work_at_n2(
            self, grid8x4, monkeypatch):
        # the speedup must not trade Newton work or accuracy for the
        # cheaper ladder: same verdicts and iterations on every attempt
        alpha = self.proportional_twist(grid8x4, [(0.2, (1, 0, 0, 0), 0.0)])
        half_chain, half = descended(grid8x4, EYE2, alpha, R_start=8.0)

        def configured(grid, g0, alpha, R, order, cfg, **kwargs):
            ladder = build_approximate_solution(
                engine.seed_structure(grid, g0, alpha, **kwargs)[0], alpha, R, order, cfg)
            return WarmChain(ladder.structure, f"ladder[{order}]", FAST, "", grid.sizes)

        monkeypatch.setattr(engine, "seed_chain", configured)
        full_chain, full = descended(grid8x4, EYE2, alpha, R_start=8.0)
        assert half_chain.ladder_sizes == (4, 4, 4, 4)
        assert full_chain.ladder_sizes == (8, 8, 8, 8)

        def work(r):
            return r.R, r.converged, r.coarse_iters, r.newton_iters

        assert [work(r) for r in half_chain.records] == [
            work(r) for r in full_chain.records]
        assert (half.threshold, half.bracket) == (full.threshold, full.bracket)
        assert all(r.residual_sup <= FAST.newton_tol for r in half_chain.records)
        assert sum(r.coarse_iters for r in half_chain.records) > 0


class TestWarmChain:
    """engine.WarmChain: the one warm-start rule of every sequence of solves."""

    @staticmethod
    def twist(grid):
        return HermitianFormField.from_potential(
            grid, EYE1, make_trig_field(grid, [(0.2, (1, 0), 0.0)]).values)

    @staticmethod
    def record_steps(monkeypatch):
        """(start, record, solved metric) of every solve_step call."""
        calls = []
        original = engine.solve_step

        def recording(K_init, *args, **kwargs):
            record, solved = original(K_init, *args, **kwargs)
            calls.append((K_init, record, solved))
            return record, solved

        monkeypatch.setattr(engine, "solve_step", recording)
        return calls

    @staticmethod
    def assert_one_rule(calls, seed_source):
        """Each step starts at the last converged step's solved structure
        itself, or at the first step's start while none has converged."""
        seed, last = calls[0][0], None
        for K_init, record, solved in calls:
            if last is None:
                assert K_init is seed and record.warm_source == seed_source
            else:
                assert K_init is last and record.warm_source == "previous-step"
            if record.converged:
                assert solved is not K_init
                last = solved

    def test_each_step_starts_from_the_last_converged_structure(
            self, grid16, monkeypatch):
        alpha = self.twist(grid16)
        original = engine.newton_solve

        def middle_fails(K0, alpha, R, *args, **kwargs):
            report = original(K0, alpha, R, *args, **kwargs)
            if R == t_to_R(0.8):
                report = dataclasses.replace(report, converged=False)
            return report

        monkeypatch.setattr(engine, "newton_solve", middle_fails)
        calls = self.record_steps(monkeypatch)
        chain = swept(grid16, EYE1, alpha, (0.5, 0.8, 1.0), eigen_seed=None)
        assert [s.converged for s in chain.records] == [True, False, True]
        self.assert_one_rule(calls, "ladder[2]")
        assert calls[2][0] is calls[0][2]
        assert chain.structure is calls[2][2]

        calls.clear()
        monkeypatch.setattr(engine, "newton_solve", original)
        chain, _ = descended(grid16, EYE1, alpha, R_start=8.0)
        assert len(calls) == len(chain.records) > 2
        self.assert_one_rule(calls, "ladder[2]")

        # the base step and the perturbation's stages are one chain
        calls.clear()
        start = KahlerStructure(grid16, EYE1,
                                make_trig_field(grid16, [(1e-3, (1, 0), 0.0)]).values)
        chain = base_chain(start, HermitianFormField.from_potential(grid16, EYE1))
        perturb_twist(chain, alpha, steps=3)
        assert len(calls) == len(chain.records) == 4
        self.assert_one_rule(calls, "explicit-potential")
        assert calls[0][0] is start and chain.structure is calls[3][2]

    def test_every_step_solves_at_the_chain_cfg(self, grid16, monkeypatch):
        alpha = self.twist(grid16)
        cfg = SolverConfig(newton_tol=2e-9, krylov_tol=5e-11)
        original = engine.solve_step
        passed = []

        def recording(K_init, alpha, R, step_cfg, *args, **kwargs):
            passed.append(step_cfg)
            return original(K_init, alpha, R, step_cfg, *args, **kwargs)

        monkeypatch.setattr(engine, "solve_step", recording)
        chain = engine.seed_chain(grid16, EYE1, alpha, t_to_R(0.5), 2, cfg)
        assert chain.cfg is cfg
        continuity_sweep(chain, alpha, (0.5, 1.0), eigen_seed=None)
        chain = engine.seed_chain(grid16, EYE1, alpha, 8.0, 2, cfg)
        estimate_R_threshold(chain, alpha, R_start=8.0)
        target = HermitianFormField(grid16, alpha.base_matrix, 1.1 * alpha.potential)
        perturb_twist(chain, target, steps=2)
        assert len(passed) == 2 + len(chain.records) > 6
        assert all(step_cfg is cfg for step_cfg in passed)

    def test_threshold_lets_its_seed_go_at_the_first_converged_attempt(
            self, grid16, monkeypatch):
        # weak references to the chain's seed, the half-grid ladder's
        # structure and seed_structure's seed, in that order
        refs = {}
        original_seed = engine.seed_structure
        original_ladder = engine.build_approximate_solution

        class Recording(engine.WarmChain):
            def __init__(self, start, *args, **kwargs):
                refs["chain"] = weakref.ref(start)
                super().__init__(start, *args, **kwargs)

        def seeding(*args, **kwargs):
            K, source = original_seed(*args, **kwargs)
            refs["order0"] = weakref.ref(K)
            return K, source

        def laddering(base, *args, **kwargs):
            ladder = original_ladder(base, *args, **kwargs)
            assert base.grid.sizes == (8, 8)
            refs["ladder"] = weakref.ref(ladder.structure)
            return ladder

        alive = []
        original_step = engine.solve_step

        def stepping(*args, **kwargs):
            gc.collect()
            alive.append(tuple(refs[key]() is not None
                               for key in ("chain", "ladder", "order0")))
            return original_step(*args, **kwargs)

        monkeypatch.setattr(engine, "WarmChain", Recording)
        monkeypatch.setattr(engine, "seed_structure", seeding)
        monkeypatch.setattr(engine, "build_approximate_solution", laddering)
        monkeypatch.setattr(engine, "solve_step", stepping)
        chain, _ = descended(grid16, EYE1, self.twist(grid16), R_start=8.0)
        assert chain.records[0].converged
        assert chain.source == "ladder[2]"
        # only the chain's seed reaches the first step, and none outlives it
        assert alive == ([(True, False, False)]
                         + [(False, False, False)] * (len(chain.records) - 1))


class TestThresholdEstimate:
    def test_flat_threshold_is_zero(self, grid16, alpha16):
        chain, estimate = descended(grid16, EYE1, alpha16, R_start=8.0)
        assert estimate.threshold == 0.0
        assert estimate.bracket == (0.0, 0.0)
        assert all(a.converged for a in chain.records)

    def test_failed_first_attempt_verifies_no_weight(self, grid16, alpha16,
                                                     monkeypatch):
        original = engine.newton_solve

        def failing(*args, **kwargs):
            report = original(*args, **kwargs)
            return dataclasses.replace(report, converged=False,
                                       message="forced failure")

        monkeypatch.setattr(engine, "newton_solve", failing)
        chain, estimate = descended(grid16, EYE1, alpha16, R_start=8.0)
        assert estimate.threshold == math.inf
        assert estimate.bracket == (8.0, math.inf)
        assert [a.R for a in chain.records] == [8.0]

    def test_parameters_are_validated(self, grid16, alpha16):
        chain = engine.seed_chain(grid16, EYE1, alpha16, 8.0, 2, FAST)
        with pytest.raises(PreconditionError):
            estimate_R_threshold(chain, alpha16, R_start=0.0)
        assert chain.records == []

    @pytest.mark.parametrize("fails, records", [
        (lambda R: R < 0.7, 15),
        (lambda R: R == 0.0, 19),
    ], ids=["below-0.7", "at-zero-only"])
    def test_the_first_failure_is_bisected(self, grid16, alpha16, monkeypatch,
                                           fails, records):
        original = engine.newton_solve

        def failing(K0, alpha, R, *args, **kwargs):
            report = original(K0, alpha, R, *args, **kwargs)
            if fails(R):
                report = dataclasses.replace(report, converged=False,
                                             message="forced failure")
            return report

        monkeypatch.setattr(engine, "newton_solve", failing)
        chain, estimate = descended(grid16, EYE1, alpha16, R_start=8.0)
        lo, hi = estimate.bracket
        assert len(chain.records) == records
        assert estimate.threshold == hi
        assert [r.converged for r in chain.records] == [not fails(r.R)
                                                        for r in chain.records]
        if lo > 0.0:
            # the descent 8, 4, 2, 1 converges and 0.5 fails; ten geometric
            # bisections of [0.5, 1] leave a ratio of 2^(1/1024)
            assert [r.R for r in chain.records[:5]] == [8.0, 4.0, 2.0, 1.0, 0.5]
            assert lo < 0.7 <= hi
            assert hi / lo == pytest.approx(2.0 ** (1.0 / 1024), rel=1e-12)
        else:
            # the descent ends at 0.0625 and R = 0 fails, so every round
            # halves the smallest verified weight
            assert [r.R for r in chain.records[7:9]] == [0.0625, 0.0]
            assert estimate.bracket == (0.0, 0.0625 / 2 ** 10)


class TestProportionalSeed:
    def test_scaled_class_recovers_potential(self, grid32):
        x, _ = grid32.coordinates()
        pot = 0.4 * np.cos(x) + np.zeros(grid32.shape)
        alpha = HermitianFormField.from_potential(grid32, 2.0 * EYE1, pot)
        psi = proportional_seed_potential(grid32, EYE1, alpha)
        assert psi is not None
        assert sup_norm(psi - pot / 2.0) <= 1e-12

    def test_non_proportional_class_returns_none(self, grid8x4):
        alpha = HermitianFormField.from_potential(
            grid8x4, np.diag([2.0, 3.0]).astype(complex),
            np.zeros(grid8x4.shape))
        assert proportional_seed_potential(grid8x4, EYE2, alpha) is None

    def test_unknown_potential_returns_none(self, grid32, alpha_flat32):
        assert proportional_seed_potential(grid32, EYE1, alpha_flat32) is None
