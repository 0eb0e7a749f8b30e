"""Independent oracles: power-law fits, finite differences, loop kernels."""

from __future__ import annotations

import numpy as np
import pytest

from twistk import (
    HermitianFormField,
    KahlerStructure,
    PeriodicGrid,
    ScalarField,
    scalar_curvature,
    trace_form,
)
from twistk.errors import DomainError, PreconditionError
from twistk.grid import sup_norm
from twistk.oracles import (
    fd_directional_derivative,
    fd_scalar_curvature,
    order_fit,
    pointwise_inverse,
)

from conftest import EYE1, seed_structure


class TestOrderFit:
    def test_exact_power_law_is_recovered(self):
        xs = (50.0, 100.0, 200.0, 400.0)
        ys = tuple(3.7 * x ** -2 for x in xs)
        fit = order_fit(xs, ys)
        assert abs(fit.exponent - (-2.0)) <= 1e-12
        assert fit.max_log_deviation <= 1e-12
        assert abs(fit.log_prefactor - np.log(3.7)) <= 1e-12

    def test_noisy_power_law_stays_within_tenth(self):
        xs = np.array([50.0, 100.0, 200.0, 400.0, 800.0])
        wiggle = np.array([1.05, 0.95, 1.05, 0.95, 1.05])
        fit = order_fit(xs, 2.0 * xs ** -2 * wiggle)
        assert abs(fit.exponent - (-2.0)) <= 0.1
        assert fit.max_log_deviation <= 0.1

    def test_single_sample_is_rejected(self):
        with pytest.raises(PreconditionError):
            order_fit((10.0,), (1.0,))

    def test_nonpositive_samples_are_rejected(self):
        with pytest.raises(DomainError):
            order_fit((10.0, 20.0), (1.0, -1.0))
        with pytest.raises(DomainError):
            order_fit((0.0, 20.0), (1.0, 1.0))


class TestDirectionalDerivative:
    def test_flat_scalar_curvature_derivative(self, grid32):
        x, _ = grid32.coordinates()
        psi = np.cos(x) + np.zeros(grid32.shape)

        def curvature(pot):
            K = KahlerStructure(grid32, EYE1, pot)
            return K.scalar

        fd = fd_directional_derivative(curvature, np.zeros(grid32.shape), psi)
        expected = -(1.0 / 16.0) * np.cos(x) + np.zeros(grid32.shape)
        assert sup_norm(fd.value - expected) <= 1e-5
        assert fd.error <= 1e-4

    def test_flat_trace_derivative(self, grid32):
        x, _ = grid32.coordinates()
        psi = np.cos(x) + np.zeros(grid32.shape)
        alpha = HermitianFormField.from_potential(grid32, EYE1)

        def trace(pot):
            K = KahlerStructure(grid32, EYE1, pot)
            return trace_form(K, alpha).values

        fd = fd_directional_derivative(trace, np.zeros(grid32.shape), psi)
        expected = 0.25 * np.cos(x) + np.zeros(grid32.shape)
        assert sup_norm(fd.value - expected) <= 1e-5

    def test_degenerate_steps_are_skipped(self, grid32):
        x, _ = grid32.coordinates()
        base = 3.6 * np.cos(x) + np.zeros(grid32.shape)
        psi = np.cos(x) + np.zeros(grid32.shape)

        def curvature(pot):
            K = KahlerStructure(grid32, EYE1, pot)
            return K.scalar

        fd = fd_directional_derivative(curvature, base, psi,
                                       epsilons=(0.5, 0.05, 0.02, 0.01))
        assert fd.epsilon < 0.5
        assert np.all(np.isfinite(fd.value))

    def test_all_degenerate_steps_raise(self, grid32):
        x, _ = grid32.coordinates()
        base = 3.6 * np.cos(x) + np.zeros(grid32.shape)
        psi = np.cos(x) + np.zeros(grid32.shape)

        def curvature(pot):
            K = KahlerStructure(grid32, EYE1, pot)
            return K.scalar

        with pytest.raises(PreconditionError):
            fd_directional_derivative(curvature, base, psi,
                                      epsilons=(0.9, 0.8, 0.7))


class TestStencilOracles:
    def test_fd_scalar_curvature_agrees_with_spectral(self, grid64):
        K = seed_structure(grid64, [(0.3, (1, 0), 0.0)])
        assert sup_norm(fd_scalar_curvature(K) - K.scalar) <= 1e-6

    def test_pointwise_inverse_inverts(self, grid8x4):
        pot = ScalarField(
            grid8x4,
            0.05 * np.cos(grid8x4.coordinates()[0]) + np.zeros(grid8x4.shape))
        K = KahlerStructure(grid8x4, np.eye(2, dtype=complex), pot.values)
        inv = pointwise_inverse(K.comps)
        eye = np.einsum("jk...,kl...->jl...", inv, K.comps)
        target = np.eye(2).reshape(2, 2, 1, 1, 1, 1)
        assert np.abs(eye - target).max() <= 1e-12


class TestScalarCurvatureConsistency:
    def test_module_level_wrapper_matches_structure(self, grid32):
        K = seed_structure(grid32, [(0.2, (1, 1), 0.3)])
        s = scalar_curvature(K)
        assert sup_norm(s.values - K.scalar) == 0.0
