"""Linear operator kinds: annihilation, symmetry, flat symbols, signs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

from twistk import (
    HermitianFormField,
    KahlerStructure,
    PeriodicGrid,
    ScalarField,
    dense_assemble,
    laplacian,
    volume_average,
    volume_mean_zero,
)
from twistk.errors import DomainError, RefusalError
from twistk.geometry import gradient_pairing
from twistk.grid import (
    holo_gradient,
    make_trig_field,
    random_smooth_field,
    sup_norm,
)
from twistk.operators import LinearOperatorHandle
from twistk.oracles import dense_spectrum

from conftest import EYE1, random_pair, seed_structure, trig_terms


def flat_laplacian_values(grid: PeriodicGrid) -> np.ndarray:
    """Eigenvalues -|k|^2/4 of the flat Laplacian, one per full-spectrum mode."""
    k = np.meshgrid(*(np.fft.fftfreq(s, d=1.0 / s) for s in grid.sizes), indexing="ij")
    return -0.25 * sum(ka * ka for ka in k).ravel()


def lichnerowicz_spectrum(K: KahlerStructure):
    """Eigenvalues (ascending) and symmetry defect of the Lichnerowicz
    operator, the negated shifted kind at R = 0 (where the twist form is
    unused, so K itself is passed)."""
    spectrum = dense_spectrum(LinearOperatorHandle("shifted", K, K, 0.0))
    return np.sort(-spectrum.eigenvalues), spectrum.symmetry_defect


class TestAnnihilation:
    @given(terms=trig_terms(2, 0.05))
    def test_every_kind_annihilates_constants(self, terms):
        grid = PeriodicGrid(1, (8, 8))
        K = seed_structure(grid, terms)
        alpha = HermitianFormField.from_potential(grid, 1.3 * EYE1)
        const = np.full(grid.shape, 2.0)
        for kind in ("twist", "full_linearization", "shifted"):
            handle = LinearOperatorHandle(kind, K, alpha, R=7.0)
            assert sup_norm(handle.apply(const)) <= 1e-10

    def test_mean_zero_flag_projects_output(self, grid32):
        K = seed_structure(grid32, [(0.2, (1, 0), 0.0)])
        alpha = HermitianFormField.from_potential(grid32, EYE1, K.potential)
        handle = LinearOperatorHandle("shifted", K, alpha, R=5.0, mean_zero=True)
        rng = np.random.default_rng(1)
        out = handle.apply(rng.standard_normal(grid32.shape))
        assert abs(volume_average(K, out)) <= 1e-12 * max(sup_norm(out), 1e-30)


class TestTwistOperator:
    def test_metric_twist_reduces_to_laplacian(self, grid32):
        K = seed_structure(grid32, [(0.3, (1, 0), 0.0), (0.1, (0, 1), 0.4)])
        phi = random_smooth_field(grid32, np.random.default_rng(3), amplitude=0.7)
        out = LinearOperatorHandle("twist", K, K).apply(phi.values)
        lap = laplacian(K, phi)
        assert sup_norm(out - lap.values) <= 1e-10

    def test_flat_dense_matrix_has_laplacian_spectrum(self):
        grid = PeriodicGrid(1, (8, 8))
        K = KahlerStructure(grid, EYE1, np.zeros(grid.shape))
        alpha = HermitianFormField.from_potential(grid, EYE1)
        spectrum = dense_spectrum(LinearOperatorHandle("twist", K, alpha))
        assert spectrum.symmetry_defect <= 1e-12
        assert np.abs(spectrum.eigenvalues - np.sort(flat_laplacian_values(grid))).max() <= 1e-10

    def test_dense_matrix_self_adjoint_on_random_pair(self):
        grid = PeriodicGrid(1, (8, 8))
        K, alpha = random_pair(grid, np.random.default_rng(5))
        spectrum = dense_spectrum(LinearOperatorHandle("twist", K, alpha))
        assert spectrum.symmetry_defect <= 1e-9

    def test_quadratic_form_equals_gradient_energy(self, grid32):
        # the defining identity of the weak form: the quadratic form of F
        # is minus the alpha-weighted energy of the (1,0)-gradient xi
        rng = np.random.default_rng(7)
        K, alpha = random_pair(grid32, rng, pot_amp=0.1, alpha_amp=0.06, kmax=2)
        phi = random_smooth_field(grid32, rng, amplitude=0.8, kmax=2)
        handle = LinearOperatorHandle("twist", K, alpha)
        lhs = handle.quadratic_form(phi.values)
        grads = holo_gradient(grid32, phi.values)
        xi = np.einsum("lj...,l...->j...", K.inverse, np.conj(grads))
        energy = np.einsum("jk...,j...,k...->...", alpha.comps, xi,
                           np.conj(xi)).real
        rhs = -volume_average(K, energy)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(lhs), 1e-30)


class TestLichnerowicz:
    def test_flat_operator_is_squared_laplacian(self, flat32):
        x, _ = flat32.grid.coordinates()
        phi = ScalarField(flat32.grid, np.cos(x) + np.zeros(flat32.grid.shape))
        out = -LinearOperatorHandle("shifted", flat32, flat32, 0.0).apply(phi.values)
        expected = (1.0 / 16.0) * np.cos(x) + np.zeros(flat32.grid.shape)
        assert sup_norm(out - expected) <= 1e-12

    def test_dense_positive_semidefinite_kernel_constants(self):
        # the strong-form realization carries an O(amplitude) truncation
        # defect on an 8x8 grid, so the pinned symmetry tolerance is
        # checked at an amplitude where truncation sits below it
        grid = PeriodicGrid(1, (8, 8))
        K, _ = random_pair(grid, np.random.default_rng(11), pot_amp=2e-6)
        eigs, defect = lichnerowicz_spectrum(K)
        scale = float(np.abs(eigs).max())
        assert defect <= 1e-8
        assert eigs[0] >= -1e-8 * scale
        assert abs(eigs[0]) <= 1e-8 * scale
        assert eigs[1] >= 1e-4

    def test_dense_structure_survives_visible_curvature(self):
        grid = PeriodicGrid(1, (8, 8))
        K, _ = random_pair(grid, np.random.default_rng(11), pot_amp=0.02)
        eigs, defect = lichnerowicz_spectrum(K)
        scale = float(np.abs(eigs).max())
        assert defect <= 1e-4
        assert eigs[0] >= -1e-8 * scale
        assert eigs[1] >= 1e-4


class TestFullLinearization:
    def test_flat_weight_zero_is_negated_bilaplacian(self, flat32):
        x, _ = flat32.grid.coordinates()
        psi = ScalarField(flat32.grid, np.cos(x) + np.zeros(flat32.grid.shape))
        alpha = HermitianFormField.from_potential(flat32.grid, EYE1)
        out = LinearOperatorHandle("full_linearization", flat32, alpha, 0.0).apply(psi.values)
        expected = -(1.0 / 16.0) * np.cos(x) + np.zeros(flat32.grid.shape)
        assert sup_norm(out - expected) <= 1e-12

    def test_agrees_with_shifted_at_flat_solution(self, flat32):
        # at an exact solution the gradient terms vanish, so the derivative
        # collapses to the self-adjoint model
        alpha = HermitianFormField.from_potential(flat32.grid, EYE1)
        psi = random_smooth_field(flat32.grid, np.random.default_rng(13),
                                  amplitude=1.0)
        a = LinearOperatorHandle("full_linearization", flat32, alpha, 30.0).apply(psi.values)
        b = LinearOperatorHandle("shifted", flat32, alpha, 30.0).apply(psi.values)
        assert sup_norm(a - b) <= 1e-10


class TestShiftedOperator:
    def test_flat_dense_spectrum_matches_symbol(self):
        grid = PeriodicGrid(1, (8, 8))
        K = KahlerStructure(grid, EYE1, np.zeros(grid.shape))
        alpha = HermitianFormField.from_potential(grid, EYE1)
        R = 10.0
        spectrum = dense_spectrum(LinearOperatorHandle("shifted", K, alpha, R))
        lap = flat_laplacian_values(grid)
        expected = np.sort(-(lap ** 2) + R * lap)
        assert np.abs(spectrum.eigenvalues - expected).max() <= 1e-8

    def test_self_adjoint_in_volume_inner_product(self, grid32):
        rng = np.random.default_rng(17)
        K, alpha = random_pair(grid32, rng, pot_amp=0.08, alpha_amp=0.05)
        handle = LinearOperatorHandle("shifted", K, alpha, R=12.0)
        u = random_smooth_field(grid32, rng, amplitude=1.0, kmax=2).values
        v = random_smooth_field(grid32, rng, amplitude=1.0, kmax=2).values
        uv = handle.quadratic_form(u, v)
        vu = handle.quadratic_form(v, u)
        assert abs(uv - vu) <= 1e-8 * max(abs(uv), 1e-30)

    @given(terms=trig_terms(2, 0.4))
    def test_negative_on_mean_zero_fields(self, terms):
        grid = PeriodicGrid(1, (8, 8))
        K = seed_structure(grid, [(0.2, (1, 0), 0.0)])
        alpha = HermitianFormField.from_potential(grid, EYE1, K.potential)
        handle = LinearOperatorHandle("shifted", K, alpha, R=5.0)
        phi = volume_mean_zero(K, make_trig_field(grid, terms).values)
        norm = float(np.sqrt(volume_average(K, phi * phi)))
        if norm < 1e-8:
            return
        phi = phi / norm
        assert handle.quadratic_form(phi) <= -1e-12

    def test_weight_increases_negativity(self, grid32):
        # the quadratic form loses -(R2-R1) * twist energy, so it is
        # strictly decreasing in the twist weight on non-constant fields
        rng = np.random.default_rng(19)
        K, alpha = random_pair(grid32, rng)
        phi = volume_mean_zero(
            K, random_smooth_field(grid32, rng, amplitude=1.0).values)
        low = LinearOperatorHandle("shifted", K, alpha, R=5.0).quadratic_form(phi)
        high = LinearOperatorHandle("shifted", K, alpha, R=9.0).quadratic_form(phi)
        assert high < low


class TestHandleValidation:
    def test_unknown_kind_is_rejected(self, flat32):
        with pytest.raises(DomainError):
            LinearOperatorHandle("laplace", flat32, flat32)
        with pytest.raises(DomainError):
            LinearOperatorHandle("lichnerowicz", flat32, flat32)

    def test_twist_kind_requires_a_form(self, flat32):
        # every kind takes the twist form; the signature enforces it
        with pytest.raises(TypeError):
            LinearOperatorHandle("twist", flat32)

    def test_dense_assembly_cap(self):
        grid = PeriodicGrid(1, (66, 66))
        K = KahlerStructure(grid, EYE1, np.zeros(grid.shape))
        alpha = HermitianFormField.from_potential(grid, EYE1)
        with pytest.raises(RefusalError):
            dense_assemble(LinearOperatorHandle("twist", K, alpha))
