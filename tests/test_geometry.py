"""Metrics from potentials, curvature, pairings and volume averages."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given

from twistk import (
    HermitianFormField,
    KahlerStructure,
    PeriodicGrid,
    ScalarField,
    class_trace,
    form_pairing,
    gradient_pairing,
    laplacian,
    ricci_form,
    scalar_curvature,
    trace_form,
    volume_average,
    volume_mean_zero,
)
from twistk.engine import twisted_residual
from twistk.errors import DegenerateMetricError, DomainError
import twistk.geometry as geometry
from twistk.grid import (euclid_mean_zero, hermitian_stack, hessian, holo_gradient,
                         make_trig_field, random_smooth_field, sup_norm)
from twistk.operators import LinearOperatorHandle
from twistk.oracles import (
    fd_complex_derivative,
    naive_form_pairing,
    naive_gradient_pairing,
    naive_trace_form,
    pointwise_inverse,
)

from conftest import EYE1, EYE2, random_pair, seed_structure, trig_terms


class TestMetricFromPotential:
    def test_flat_metric_is_the_class_matrix(self, grid32):
        K = KahlerStructure(grid32, EYE1, np.zeros(grid32.shape))
        assert sup_norm(K.comps - 1.0) == 0.0
        assert sup_norm(K.weight - 1.0) == 0.0

    def test_cosine_potential_shifts_metric_by_quarter(self, grid32):
        # d/dz d/dzbar cos(x) = -cos(x)/4, so g = 1 - (eps/4) cos(x)
        eps = 0.4
        x, _ = grid32.coordinates()
        phi = eps * np.cos(x) + np.zeros(grid32.shape)
        K = KahlerStructure(grid32, EYE1, phi)
        expected = 1.0 - (eps / 4.0) * np.cos(x) + np.zeros(grid32.shape)
        assert sup_norm(K.comps[0, 0] - expected) <= 1e-12

    def test_large_potential_degenerates(self, grid32):
        x, _ = grid32.coordinates()
        phi = 8.0 * np.cos(x) + np.zeros(grid32.shape)
        with pytest.raises(DegenerateMetricError) as err:
            KahlerStructure(grid32, EYE1, phi)
        assert err.value.eigenvalue <= 0.0
        assert len(err.value.point) == 2

    def test_constant_shift_of_potential_changes_nothing(self, grid32):
        x, _ = grid32.coordinates()
        phi = 0.3 * np.cos(x) + np.zeros(grid32.shape)
        a = KahlerStructure(grid32, EYE1, phi)
        b = KahlerStructure(grid32, EYE1, phi + 7.0)
        assert np.abs(a.comps - b.comps).max() <= 1e-12

    def test_class_matrix_must_be_hermitian_positive(self, grid32):
        with pytest.raises(DomainError):
            KahlerStructure(grid32, np.array([[-2.0 + 0.0j]]), np.zeros(grid32.shape))

    def test_inverse_is_pointwise_exact(self):
        grid = PeriodicGrid(2, (8, 8, 8, 8))
        rng = np.random.default_rng(2)
        K, _ = random_pair(grid, rng, pot_amp=0.08)
        prod = np.einsum("jk...,kl...->jl...", K.inverse, K.comps)
        eye = np.zeros_like(prod)
        eye[0, 0] = eye[1, 1] = 1.0
        assert np.abs(prod - eye).max() <= 1e-10
        assert np.abs(K.inverse - pointwise_inverse(K.comps)).max() <= 1e-12


class TestCurvature:
    def test_flat_ricci_and_scalar_vanish(self, flat32):
        assert sup_norm(ricci_form(flat32).comps) <= 1e-14
        assert sup_norm(flat32.scalar) <= 1e-14

    def test_ricci_matches_log_metric_second_derivative(self):
        # n=1: Ric_11 = -d/dz d/dzbar log(g); the oracle route differentiates
        # log g with 8th-order stencils, so run at 64^2 for its truncation
        grid = PeriodicGrid(1, (64, 64))
        x, _ = grid.coordinates()
        phi = 0.4 * np.cos(x) + np.zeros(grid.shape)
        K = KahlerStructure(grid, EYE1, phi)
        ric = ricci_form(K).comps[0, 0]
        oracle = -fd_complex_derivative(grid, np.log(K.comps[0, 0].real),
                                        (1,), (1,))
        assert np.abs(ric - oracle).max() <= 1e-8

    def test_ricci_components_have_zero_grid_mean(self):
        grid = PeriodicGrid(2, (8, 8, 8, 8))
        rng = np.random.default_rng(7)
        K, _ = random_pair(grid, rng, pot_amp=0.08)
        ric = ricci_form(K).comps
        for j in range(2):
            for k in range(2):
                assert abs(ric[j, k].mean()) <= 1e-10

    def test_scalar_first_order_expansion(self, grid32):
        eps = 1e-3
        x, _ = grid32.coordinates()
        K = KahlerStructure(grid32, EYE1, eps * np.cos(x) + np.zeros(grid32.shape))
        expected = -(eps / 16.0) * np.cos(x) + np.zeros(grid32.shape)
        assert sup_norm(K.scalar - expected) <= 1e-6

    def test_scalar_curvature_integrates_to_zero(self, grid32):
        K = seed_structure(grid32, [(0.3, (1, 0), 0.0), (0.1, (0, 2), 1.0)])
        S = scalar_curvature(K)
        assert abs(volume_average(K, S)) <= 1e-8 * max(sup_norm(S.values), 1e-30)

    @given(terms=trig_terms(2, 0.05))
    def test_scalar_average_vanishes_for_random_seeds(self, terms):
        grid = PeriodicGrid(1, (16, 16))
        K = seed_structure(grid, terms)
        S = scalar_curvature(K)
        assert abs(volume_average(K, S)) <= 1e-8 * max(sup_norm(S.values), 1e-12)


class TestKahlerStructureIsAForm:
    def test_metric_is_the_positive_case_of_the_form(self):
        grid = PeriodicGrid(2, (6, 6, 6, 6))
        g0 = np.array([[1.5, 0.3 + 0.2j], [0.3 - 0.2j, 1.2]])
        phi = euclid_mean_zero(random_smooth_field(
            grid, np.random.default_rng(29), amplitude=0.08).values)
        K = KahlerStructure(grid, g0, phi)
        assert isinstance(K, HermitianFormField)
        assert np.array_equal(K.comps, HermitianFormField(grid, g0, phi).comps)
        assert sup_norm(trace_form(K, K).values - 2.0) <= 1e-12
        with pytest.raises(DomainError, match="class matrix g0 must be positive definite"):
            KahlerStructure(grid, -g0, phi)
        x = grid.coordinates()[0]
        with pytest.raises(DegenerateMetricError,
                           match="metric is not positive definite: eigenvalue"):
            KahlerStructure(grid, g0, 40.0 * np.cos(x) + np.zeros(grid.shape))

    def test_a_build_checks_its_class_matrix_once(self, monkeypatch):
        # the form's Hermitian check, then the structure's positivity test;
        # geometry binds no combined check that could repeat them
        assert not hasattr(geometry, "_check_hermitian_matrix")
        calls = []
        for name in ("_check_hermitian", "_check_positive_definite"):
            def counted(*args, name=name, real=getattr(geometry, name)):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(geometry, name, counted)
        grid = PeriodicGrid(2, (6, 6, 6, 6))
        KahlerStructure(grid, np.array([[1.5, 0.3 + 0.2j], [0.3 - 0.2j, 1.2]]),
                        np.zeros(grid.shape))
        assert calls == ["_check_hermitian", "_check_positive_definite"]

    @pytest.mark.parametrize("amplitude, message", [
        (1e306, "metric is not positive definite: eigenvalue -6.4"),
        (1e307, "metric is not finite: eigenvalue nan")])
    def test_metric_whose_hessian_overflows_is_degenerate(self, grid32, amplitude, message):
        # a finite potential whose spectral Hessian overflows: at 1e307 the
        # metric is NaN everywhere, which once passed the positivity test
        x, _ = grid32.coordinates()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DegenerateMetricError, match=message) as err:
            KahlerStructure(grid32, EYE1, amplitude * np.cos(16 * x) + np.zeros(grid32.shape))
        assert len(err.value.point) == 2

    def test_infinite_metric_sample_is_degenerate(self, grid32, monkeypatch):
        # an infinite sample beside finite positive ones leaves the smallest
        # eigenvalue finite; the infinite det names the point
        real = geometry.stack_det

        def with_infinity(s):
            det = real(s)
            det[3, 5] = np.inf
            return det

        monkeypatch.setattr(geometry, "stack_det", with_infinity)
        with pytest.raises(DegenerateMetricError, match="metric is not finite: eigenvalue inf") as err:
            KahlerStructure(grid32, EYE1, np.zeros(grid32.shape))
        assert err.value.point == (3, 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("cls", [HermitianFormField, KahlerStructure])
    def test_non_finite_potential_is_a_domain_error(self, cls, bad):
        grid = PeriodicGrid(1, (8, 8))
        potential = np.zeros(grid.shape)
        potential[3, 5] = bad
        with pytest.raises(DomainError, match="form potential contains non-finite samples"):
            cls(grid, np.eye(1), potential)


class TestTraceForm:
    def test_constant_diagonal_trace(self):
        grid = PeriodicGrid(2, (6, 6, 6, 6))
        K = KahlerStructure(grid, EYE2, np.zeros(grid.shape))
        alpha = HermitianFormField.from_potential(grid, np.diag([2.0, 3.0]))
        tr = trace_form(K, alpha)
        assert sup_norm(tr.values - 5.0) <= 1e-13

    def test_trace_of_own_form_is_dimension(self, grid32):
        K = seed_structure(grid32, [(0.3, (1, 0), 0.0)])
        tr = trace_form(K, K)
        assert sup_norm(tr.values - 1.0) <= 1e-11

    def test_trace_average_is_cohomological(self, grid32):
        rng = np.random.default_rng(9)
        K, alpha = random_pair(grid32, rng, pot_amp=0.1, alpha_amp=0.08, kmax=2)
        tr = trace_form(K, alpha)
        assert abs(volume_average(K, tr)
                   - class_trace(K.base_matrix, alpha.base_matrix)) <= 1e-8

    def test_matches_loop_oracle(self):
        grid = PeriodicGrid(2, (6, 6, 6, 6))
        rng = np.random.default_rng(13)
        K, alpha = random_pair(grid, rng, pot_amp=0.08, alpha_amp=0.05)
        assert np.abs(trace_form(K, alpha).values
                      - naive_trace_form(K, alpha)).max() <= 1e-10


class TestLaplacianAndPairings:
    def test_flat_laplacian_of_cosine(self, flat32):
        x, _ = flat32.grid.coordinates()
        f = ScalarField(flat32.grid, np.cos(x) + np.zeros(flat32.grid.shape))
        out = laplacian(flat32, f)
        assert sup_norm(out.values + 0.25 * np.cos(x)
                        + np.zeros(flat32.grid.shape)) <= 1e-12

    def test_laplacian_of_constant_vanishes(self, flat32):
        f = ScalarField(flat32.grid, np.full(flat32.grid.shape, 3.0))
        assert sup_norm(laplacian(flat32, f).values) <= 1e-13

    @given(terms=trig_terms(2, 0.5))
    def test_laplacian_integrates_to_zero(self, terms):
        grid = PeriodicGrid(1, (16, 16))
        K = seed_structure(grid, [(0.2, (1, 0), 0.0)])
        f = make_trig_field(grid, terms)
        out = laplacian(K, f)
        assert abs(volume_average(K, out)) <= 1e-10 * max(sup_norm(out.values), 1e-12)

    def test_pairing_of_form_with_itself(self, grid32):
        K = seed_structure(grid32, [(0.25, (1, 1), 0.5)])
        assert sup_norm(form_pairing(K, K, K).values - 1.0) <= 1e-10

    def test_pairing_with_metric_form_is_trace(self, grid32):
        rng = np.random.default_rng(17)
        K, beta = random_pair(grid32, rng, pot_amp=0.1, alpha_amp=0.1, kmax=2)
        paired = form_pairing(K, K, beta)
        tr = trace_form(K, beta)
        assert sup_norm(paired.values - tr.values) <= 1e-10

    def test_pairing_with_hessian_is_laplacian(self, grid32):
        K = seed_structure(grid32, [(0.2, (1, 0), 0.0), (0.1, (0, 1), 0.7)])
        phi = random_smooth_field(grid32, np.random.default_rng(19), amplitude=0.5)
        hess_form = HermitianFormField.from_potential(
            grid32, np.zeros((1, 1)), phi.values)
        paired = form_pairing(K, K, hess_form)
        assert sup_norm(paired.values - laplacian(K, phi).values) <= 1e-10

    def test_pairing_matches_loop_oracle(self):
        grid = PeriodicGrid(2, (6, 6, 6, 6))
        rng = np.random.default_rng(23)
        K, alpha = random_pair(grid, rng, pot_amp=0.08, alpha_amp=0.05)
        _, beta = random_pair(grid, np.random.default_rng(29), alpha_amp=0.07)
        ours = form_pairing(K, alpha, beta).values
        assert np.abs(ours - naive_form_pairing(K, alpha, beta)).max() <= 1e-10

    def test_gradient_pairing_of_constant_vanishes(self, flat32):
        f = ScalarField(flat32.grid, np.full(flat32.grid.shape, 4.0))
        g = ScalarField(flat32.grid, np.full(flat32.grid.shape, -1.0))
        assert sup_norm(gradient_pairing(flat32, f, g).values) <= 1e-13

    def test_flat_gradient_pairing_of_cosine(self, flat32):
        # d/dz cos(x) = -sin(x)/2 and g^{11} = 1, so the pairing is sin^2/4
        x, _ = flat32.grid.coordinates()
        f = ScalarField(flat32.grid, np.cos(x) + np.zeros(flat32.grid.shape))
        out = gradient_pairing(flat32, f, f)
        expected = 0.25 * np.sin(x) ** 2 + np.zeros(flat32.grid.shape)
        assert sup_norm(out.values - expected) <= 1e-12

    def test_gradient_pairing_matches_fd_oracle(self):
        grid = PeriodicGrid(1, (64, 64))
        rng = np.random.default_rng(31)
        K = seed_structure(grid, [(0.2, (1, 0), 0.0)])
        f = random_smooth_field(grid, rng, amplitude=1.0, kmax=1)
        h = random_smooth_field(grid, rng, amplitude=1.0, kmax=1)
        ours = gradient_pairing(K, f, h).values
        oracle = naive_gradient_pairing(K, f.values, h.values)
        assert np.abs(ours - oracle).max() <= 1e-10


class TestVolumeAverages:
    def test_average_of_one_is_one(self, grid32):
        K = seed_structure(grid32, [(0.3, (1, 0), 0.0)])
        assert abs(volume_average(K, np.ones(grid32.shape)) - 1.0) <= 1e-14

    def test_flat_average_of_cosine_is_zero(self, flat32):
        x, _ = flat32.grid.coordinates()
        f = ScalarField(flat32.grid, np.cos(x) + np.zeros(flat32.grid.shape))
        assert abs(volume_average(flat32, f)) <= 1e-15

    def test_average_is_resolution_independent(self):
        # same seed terms evaluated at two resolutions; spectral quadrature
        # is exact for band-limited integrands so they must agree
        terms = [(0.3, (1, 0), 0.0)]
        coarse = PeriodicGrid(1, (32, 32))
        fine = PeriodicGrid(1, (64, 64))
        values = []
        for grid in (coarse, fine):
            K = seed_structure(grid, terms)
            x, _ = grid.coordinates()
            f = ScalarField(grid, np.cos(x) + np.zeros(grid.shape))
            values.append(volume_average(K, f))
        assert abs(values[0] - values[1]) <= 1e-8

    def test_mean_zero_projection(self, grid32):
        K = seed_structure(grid32, [(0.3, (1, 0), 0.0)])
        rng = np.random.default_rng(37)
        f = rng.standard_normal(grid32.shape)
        projected = volume_mean_zero(K, f)
        assert abs(volume_average(K, projected)) <= 1e-12


class TestFormsAndClasses:
    def test_hermitian_validation(self, grid32):
        with pytest.raises(DomainError):
            HermitianFormField.from_potential(grid32, np.array([[1j]]))
        grid = PeriodicGrid(2, (4, 4, 4, 4))
        with pytest.raises(DomainError):
            HermitianFormField.from_potential(grid, np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_min_eigenvalue_of_constant_form(self):
        grid = PeriodicGrid(2, (6, 6, 6, 6))
        alpha = HermitianFormField.from_potential(grid, np.diag([2.0, 0.5]))
        assert abs(alpha.min_eigenvalue() - 0.5) <= 1e-13

    def test_closed_forms_carry_their_potential(self, grid32):
        pot = make_trig_field(grid32, [(0.1, (1, 0), 0.0)])
        alpha = HermitianFormField.from_potential(grid32, EYE1, pot.values)
        assert np.array_equal(alpha.potential, pot.values)
        assert np.array_equal(alpha.comps, EYE1[:, :, None, None]
                              + hessian(grid32, pot.values))

    def test_cohomology_constants(self):
        assert abs(class_trace(EYE2, np.diag([2.0, 3.0])) - 5.0) <= 1e-13
        scaled = class_trace(np.array([[2.0 + 0.0j]]), np.array([[3.0 + 0.0j]]))
        assert abs(scaled - 1.5) <= 1e-13

    def test_ricci_form_is_closed_with_zero_class(self, grid32):
        K = seed_structure(grid32, [(0.3, (1, 0), 0.0)])
        ric = ricci_form(K)
        assert sup_norm(np.asarray(ric.base_matrix)) == 0.0


G0_COMPLEX = np.array([[1.5, 0.3 + 0.2j], [0.3 - 0.2j, 1.2]])


@pytest.fixture(scope="module")
def complex_class_pair():
    """Non-flat metric and twist at n = 2 on 8^4, both in the class
    G0_COMPLEX, whose off-diagonal entry is complex."""
    grid = PeriodicGrid(2, (8, 8, 8, 8))
    rng = np.random.default_rng(41)
    phi = euclid_mean_zero(random_smooth_field(grid, rng, amplitude=0.08, kmax=1).values)
    apot = random_smooth_field(grid, rng, amplitude=0.05, kmax=1).values
    return (KahlerStructure(grid, G0_COMPLEX, phi),
            HermitianFormField.from_potential(grid, G0_COMPLEX, apot))


class TestNonDiagonalComplexClass:
    """The closed forms on Hermitian stacks against numpy.linalg and the
    loop oracles, for a metric class with a complex off-diagonal entry."""

    def test_inverse_det_and_min_eigenvalue(self, complex_class_pair):
        K, alpha = complex_class_pair
        moved = np.moveaxis(K.comps, (0, 1), (-2, -1))
        assert np.abs(K.inverse - pointwise_inverse(K.comps)).max() <= 1e-12
        assert np.abs(K.weight - np.linalg.det(moved).real).max() <= 1e-12
        assert abs(K.min_eigenvalue() - np.linalg.eigvalsh(moved)[..., 0].min()) <= 1e-12
        moved = np.moveaxis(alpha.comps, (0, 1), (-2, -1))
        assert abs(alpha.min_eigenvalue() - np.linalg.eigvalsh(moved)[..., 0].min()) <= 1e-12

    def test_trace_and_pairings(self, complex_class_pair):
        K, alpha = complex_class_pair
        assert np.abs(trace_form(K, alpha).values
                      - naive_trace_form(K, alpha)).max() <= 1e-12
        assert np.abs(form_pairing(K, alpha, K).values
                      - naive_form_pairing(K, alpha, K)).max() <= 1e-12
        assert np.abs(form_pairing(K, alpha, alpha).values
                      - naive_form_pairing(K, alpha, alpha)).max() <= 1e-12

    def test_gradient_pairing(self, complex_class_pair):
        # Re sum_{j,k} (G^{-1})[k, j] (d_j f) conj(d_k h), the inverse from
        # numpy.linalg and the gradients as complex fields
        K, _ = complex_class_pair
        rng = np.random.default_rng(43)
        f, h = (random_smooth_field(K.grid, rng, amplitude=1.0, kmax=2) for _ in range(2))
        inv = pointwise_inverse(K.comps)
        u, v = holo_gradient(K.grid, f.values), holo_gradient(K.grid, h.values)
        oracle = sum(inv[k, j] * u[j] * np.conj(v[k])
                     for j in range(2) for k in range(2)).real
        assert np.abs(gradient_pairing(K, f, h).values - oracle).max() <= 1e-12

    def test_scalar_curvature(self, complex_class_pair):
        # S = -tr(G^{-1} Hess log det G) with det and inverse from numpy.linalg
        K, _ = complex_class_pair
        moved = np.moveaxis(K.comps, (0, 1), (-2, -1))
        hess = hessian(K.grid, np.log(np.linalg.det(moved).real))
        oracle = -np.einsum("kj...,jk...->...", pointwise_inverse(K.comps), hess).real
        assert np.abs(K.scalar - oracle).max() <= 1e-12


class TestStructureMemory:
    def test_every_cached_field_is_real(self, complex_class_pair):
        # after the Ricci and scalar curvature and a handle build, every
        # grid field the structure holds is real float64: a scalar field
        # or a Hermitian stack of leading length n^2; the scalar curvature
        # is read, not held
        K, alpha = complex_class_pair
        K.scalar
        LinearOperatorHandle("full_linearization", K, alpha, 2.0)
        shape = K.grid.shape
        held = {name: value for name, value in vars(K).items()
                if name not in ("grid", "base_matrix")}
        assert set(held) == {"potential", "weight", "inverse_stack", "ricci"}
        for name, array in held.items():
            assert array.dtype == np.float64, name
            assert array.shape in (shape, (K.n * K.n,) + shape), name

    def test_a_structure_holds_its_potential_weight_inverse_and_curvature(self, grid8x4):
        # at n = 2: the potential and det g (1 field each) and the inverse
        # (4), 6 fields, then the Ricci stack (4), 10; holding the scalar
        # curvature too made 11, and the metric's stack too 10 and 15.
        # 2 KiB is for the Python objects, which do not grow with the grid
        phi = random_smooth_field(grid8x4, np.random.default_rng(31), amplitude=0.05).values
        field = grid8x4.npoints * 8
        # the first build caches the grid's stacks
        KahlerStructure(grid8x4, EYE2, phi)

        def built(curvature):
            K = KahlerStructure(grid8x4, EYE2, phi.copy())
            if curvature:
                K.scalar
            return K

        for curvature, fields in ((False, 6), (True, 10)):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                K = built(curvature)
                held = tracemalloc.get_traced_memory()[0] - before
                del K
            finally:
                tracemalloc.stop()
            assert held < fields * field + 2048, curvature

    @pytest.mark.parametrize("n, sizes", [(1, (16, 12)), (2, (6, 8, 4, 6))])
    def test_the_metric_stack_of_each_read_has_the_form_s_bits(self, n, sizes):
        grid = PeriodicGrid(n, sizes)
        g0 = EYE1 if n == 1 else np.array([[1.5, 0.3 + 0.2j], [0.3 - 0.2j, 1.2]])
        phi = random_smooth_field(grid, np.random.default_rng(37), amplitude=0.05).values
        K = KahlerStructure(grid, g0, phi)
        form = HermitianFormField(grid, g0, phi)
        assert K.stack is not K.stack
        assert K.stack.tobytes() == form.stack.tobytes()
        assert K.comps.tobytes() == form.comps.tobytes()
        assert K.min_eigenvalue() == form.min_eigenvalue()
        assert "stack" not in vars(K)

    @pytest.mark.parametrize("n, sizes", [(1, (16, 12)), (2, (6, 8, 4, 6))])
    def test_the_scalar_curvature_is_read_not_held(self, n, sizes):
        # a residual reads it once; each read is the trace of the held
        # inverse and Ricci stacks, with its bits
        grid = PeriodicGrid(n, sizes)
        K, alpha = random_pair(grid, np.random.default_rng(43), kmax=2)
        twisted_residual(K, alpha, 3.0)
        assert "scalar" not in vars(K)
        expected = geometry.stack_trace(grid, K.inverse_stack, K.ricci).tobytes()
        first, second = K.scalar, scalar_curvature(K).values
        assert first is not second
        assert first.tobytes() == second.tobytes() == expected
        assert "scalar" not in vars(K)

    def test_matvec_in_place_keeps_the_bits_of_its_expressions(self, grid8x4):
        # each component in the order of its numpy expression, through one
        # scratch field: the expressions' temporaries held 3 fields beside
        # the output at 8^4
        rng = np.random.default_rng(41)
        m = rng.standard_normal((4,) + grid8x4.shape)
        v = rng.standard_normal((4,) + grid8x4.shape)
        m0, m1, mr, mi = m
        v0r, v1r, v0i, v1i = v
        expected = np.stack([m0 * v0r + mr * v1r - mi * v1i,
                             mr * v0r + mi * v0i + m1 * v1r,
                             m0 * v0i + mr * v1i + mi * v1r,
                             mr * v0i - mi * v0r + m1 * v1i])
        assert geometry.stack_matvec(m, v).tobytes() == expected.tobytes()
        out = np.empty_like(v)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            geometry.stack_matvec(m, v, out)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out.tobytes() == expected.tobytes()
        assert peak < grid8x4.npoints * 8 + 2048

    def test_complex_views_are_not_cached(self, complex_class_pair):
        K, _ = complex_class_pair
        keys = set(vars(K))
        assert K.comps.dtype == complex and K.inverse.dtype == complex
        assert K.comps is not K.comps
        assert set(vars(K)) == keys

    @pytest.mark.parametrize("n, sizes", [(1, (16, 12)), (2, (6, 8, 4, 6))])
    def test_kernels_keep_the_bits_of_paired_copies_and_batched_transforms(self, n, sizes):
        # the traces put the pairing weight 2 on the off-diagonal fields
        # instead of on a `hessian_pairing` copy of the stack, the Hessian
        # fields are streamed one inverse transform each, and the form's
        # stack and the Ricci stack are formed in place: all of it exact
        grid = PeriodicGrid(n, sizes)
        rng = np.random.default_rng(29)
        K, alpha = random_pair(grid, rng, kmax=2)
        v = rng.standard_normal(grid.shape)

        def batched_hessian(values):
            return grid.ifft(grid.fft(values) * grid.hessian_stack)

        def paired(s, h):
            return np.einsum("i...,i...->...", grid.hessian_pairing(s), h)

        base = hermitian_stack(alpha.base_matrix).reshape((-1,) + (1,) * len(sizes))
        assert alpha.stack.tobytes() == (base + batched_hessian(alpha.potential)).tobytes()
        assert K.ricci.tobytes() == (-batched_hessian(K.log_det)).tobytes()
        assert (trace_form(K, alpha).values.tobytes()
                == paired(K.inverse_stack, alpha.stack).tobytes())
        assert K.scalar.tobytes() == paired(K.inverse_stack, K.ricci).tobytes()
        assert (laplacian(K, ScalarField(grid, v)).values.tobytes()
                == paired(K.inverse_stack, batched_hessian(v)).tobytes())

    def test_ricci_is_computed_once_and_the_scalar_on_each_read(self, grid32,
                                                                monkeypatch):
        K = seed_structure(grid32, [(0.3, (1, 0), 0.0)])
        traces = []

        def counted(*args, real=geometry.stack_trace):
            traces.append(args)
            return real(*args)

        monkeypatch.setattr(geometry, "stack_trace", counted)
        assert K.ricci is K.ricci
        assert K.scalar is not K.scalar
        assert scalar_curvature(K).values.tobytes() == K.scalar.tobytes()
        assert len(traces) == 4
        assert all(args[2] is K.ricci for args in traces)
