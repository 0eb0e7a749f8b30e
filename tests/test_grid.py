"""Grid construction, transforms and spectral derivatives."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twistk import PeriodicGrid, ScalarField
from twistk.errors import DomainError, ShapeError, SolvabilityError
from twistk.grid import (
    flat_laplacian_symbol,
    flat_poisson_solve,
    half_grid,
    hessian,
    make_trig_field,
    prolong,
    restrict,
    rms_norm,
    sobolev_norm,
    sup_norm,
)
from twistk.oracles import fd_complex_derivative

from conftest import EYE1, trig_terms


class TestConstruction:
    def test_axis_count_must_match_dimension(self):
        with pytest.raises(ShapeError):
            PeriodicGrid(1, (16, 16, 16))
        with pytest.raises(ShapeError):
            PeriodicGrid(2, (16, 16))

    def test_sizes_must_be_even_and_at_least_four(self):
        with pytest.raises(DomainError):
            PeriodicGrid(1, (15, 16))
        with pytest.raises(DomainError):
            PeriodicGrid(1, (2, 16))

    def test_sizes_must_be_integral(self):
        with pytest.raises(DomainError):
            PeriodicGrid(1, (16.9, 16))
        assert PeriodicGrid(1, (16.0, np.int64(8))).sizes == (16, 8)

    def test_dimension_must_be_one_or_two(self):
        with pytest.raises(DomainError):
            PeriodicGrid(3, (8,) * 6)

    def test_point_count_and_spacings(self):
        grid = PeriodicGrid(2, (8, 4, 6, 4))
        assert grid.npoints == 8 * 4 * 6 * 4
        assert grid.spacings() == tuple(2.0 * np.pi / s for s in grid.sizes)

    def test_nyquist_mask_counts_unresolved_modes(self):
        grid = PeriodicGrid(2, (6, 4, 8, 4))
        mask = grid.nyquist_mask
        assert mask.shape == grid.half_shape
        # the half spectrum keeps wavenumbers 0..N/2 of the last axis
        resolved = np.prod([s - 1 for s in grid.sizes[:-1]]) * (grid.sizes[-1] // 2)
        assert int((~mask).sum()) == resolved


class TestTransforms:
    def test_constant_field_maps_to_unit_coefficient(self, grid32):
        coeffs = grid32.fft(np.ones(grid32.shape))
        assert coeffs.shape == grid32.half_shape
        assert abs(coeffs[0, 0] - 1.0) <= 1e-14
        rest = coeffs.copy()
        rest[0, 0] = 0.0
        assert np.abs(rest).max() <= 1e-14

    def test_cosine_splits_into_conjugate_modes(self, grid32):
        x, _ = grid32.coordinates()
        coeffs = grid32.fft(np.cos(x) + np.zeros(grid32.shape))
        assert abs(coeffs[1, 0] - 0.5) <= 1e-14
        assert abs(coeffs[-1, 0] - 0.5) <= 1e-14

    def test_shape_mismatch_is_rejected(self, grid32):
        with pytest.raises(ShapeError):
            grid32.fft(np.zeros((16, 16)))
        with pytest.raises(ShapeError):
            grid32.ifft(np.zeros((16, 16), dtype=complex))
        # a full spectrum is not a half spectrum
        with pytest.raises(ShapeError):
            grid32.ifft(np.zeros(grid32.shape, dtype=complex))

    @given(terms=trig_terms(2, 1.0))
    def test_round_trip_recovers_field(self, terms):
        grid = PeriodicGrid(1, (16, 16))
        f = make_trig_field(grid, terms)
        back = grid.ifft(grid.fft(f.values))
        scale = max(sup_norm(f.values), 1e-30)
        assert sup_norm(back - f.values) <= 1e-12 * scale

    @given(terms=trig_terms(2, 1.0))
    def test_parseval_identity(self, terms):
        # the half spectrum counts every column strictly inside (0, N/2)
        # of the last axis twice, once for its conjugate partner
        grid = PeriodicGrid(1, (16, 16))
        f = make_trig_field(grid, terms)
        twice = np.full(grid.half_shape[-1], 2.0)
        twice[[0, -1]] = 1.0
        half_l2 = float(np.sqrt(np.sum(twice * np.abs(grid.fft(f.values)) ** 2)))
        full_l2 = float(np.sqrt(np.sum(np.abs(np.fft.fftn(f.values) / grid.npoints) ** 2)))
        assert abs(half_l2 - full_l2) <= 1e-12 * max(full_l2, 1e-30)
        assert abs(half_l2 - rms_norm(f.values)) <= 1e-12 * max(half_l2, 1e-30)

    def test_sobolev_norm_at_zero_is_rms(self, grid32):
        rng = np.random.default_rng(3)
        f = ScalarField(grid32, rng.standard_normal(grid32.shape))
        assert abs(sobolev_norm(f, 0.0) - rms_norm(f.values)) <= 1e-12

    @pytest.mark.parametrize("sizes, wavevector", [
        ((32, 32), (1, 0)), ((32, 32), (2, -3)),
        ((16, 16, 16, 16), (1, 0, 0, 0)), ((16, 16, 16, 16), (1, -1, 2, 1)),
    ], ids=["n1-x", "n1-oblique", "n2-x1", "n2-oblique"])
    def test_sobolev_norm_of_a_cosine_at_s4(self, sizes, wavevector):
        # a cos(k.x) has coefficients a/2 at +-k, so the norm is
        # |a| sqrt((1+|k|^2)^4 / 2)
        grid = PeriodicGrid(len(sizes) // 2, sizes)
        a = -0.7
        f = make_trig_field(grid, [(a, wavevector, 0.4)])
        ksq = sum(k * k for k in wavevector)
        expected = abs(a) * np.sqrt((1.0 + ksq) ** 4 / 2.0)
        assert abs(sobolev_norm(f, 4.0) - expected) <= 1e-12 * expected


class TestProlong:
    """grid's half-grid pair: `restrict` samples the points that
    `half_grid` picks, `prolong` interpolates back onto them."""

    CASES = [((16, 16), [(0.7, (1, 0), 0.2), (-0.4, (3, -7), 1.3)]),
             ((8, 8, 8, 8), [(0.5, (1, -1, 2, 0), 0.4), (0.3, (0, 3, -3, 1), 2.0)]),
             ((8, 12), [(0.6, (3, 5), 0.9), (0.2, (-2, 1), 0.0)])]
    IDS = ["n1", "n2", "anisotropic"]

    @staticmethod
    def grids(sizes):
        n = len(sizes) // 2
        return PeriodicGrid(n, sizes), PeriodicGrid(n, tuple(2 * s for s in sizes))

    @staticmethod
    def every_parity(sizes):
        return itertools.product((0, 1), repeat=len(sizes))

    @pytest.mark.parametrize("sizes, terms", CASES, ids=IDS)
    def test_band_limited_field_is_reproduced(self, sizes, terms):
        # every wavevector lies strictly inside the coarse Nyquist band, so
        # prolonging the samples of any parity gives the fine field back
        coarse, fine = self.grids(sizes)
        values = make_trig_field(fine, terms).values
        assert half_grid(fine, values)[0] == coarse
        for parities in self.every_parity(sizes):
            back = prolong(restrict(values, parities), coarse, fine, parities)
            assert sup_norm(back - values) <= 1e-14

    @pytest.mark.parametrize("sizes", [sizes for sizes, _ in CASES], ids=IDS)
    def test_coarse_samples_are_interpolated(self, sizes):
        # a random field fills every coarse mode, the Nyquist modes included
        coarse, fine = self.grids(sizes)
        values = np.random.default_rng(17).standard_normal(coarse.shape)
        for parities in self.every_parity(sizes):
            out = prolong(values, coarse, fine, parities)
            assert out.shape == fine.shape
            assert out.dtype == np.float64
            assert sup_norm(restrict(out, parities) - values) <= 1e-14

    @pytest.mark.parametrize("sizes", [sizes for sizes, _ in CASES], ids=IDS)
    def test_nyquist_modes_are_split_evenly(self, sizes):
        # on the coarse grid cos(N/2 x_a + x_b + p) is (-1)^j cos(x_b + p),
        # whose even split interpolant is cos(N/2 x_a) cos(x_b + p), here
        # translated by the parities' fine-grid steps
        coarse, fine = self.grids(sizes)
        h = fine.spacings()
        for parities in self.every_parity(sizes):
            coords = [x - p * step for x, p, step in zip(fine.coordinates(), parities, h)]
            for a, size in enumerate(sizes):
                b = (a + 1) % len(sizes)
                wavevector = [0] * len(sizes)
                wavevector[a], wavevector[b] = size // 2, 1
                values = make_trig_field(coarse, [(1.0, wavevector, 0.3)]).values
                expected = np.cos(size // 2 * coords[a]) * np.cos(coords[b] + 0.3)
                out = prolong(values, coarse, fine, parities)
                assert sup_norm(out - expected) <= 1e-13

    def test_grids_must_differ_by_two_on_every_axis(self):
        coarse = PeriodicGrid(1, (8, 8))
        with pytest.raises(ShapeError):
            prolong(np.zeros(coarse.shape), coarse, PeriodicGrid(1, (16, 8)), (0, 0))
        with pytest.raises(ShapeError):
            prolong(np.zeros((16, 16)), coarse, PeriodicGrid(1, (16, 16)), (0, 0))

    @pytest.mark.parametrize("sizes, message", [
        ((16, 18), "grid axis 18 not a multiple of 4"),
        ((4, 16), "grid axis 4 below 8"),
    ], ids=["not-multiple-of-4", "below-8"])
    def test_grid_without_a_half_grid_is_refused(self, sizes, message):
        grid = PeriodicGrid(1, sizes)
        with pytest.raises(DomainError) as info:
            half_grid(grid, np.zeros(grid.shape))
        assert str(info.value) == message

    def test_parities_follow_the_half_grid_nyquist_mode(self, grid16):
        # the even points see cos(4 x) and the odd points sin(4 x); an axis
        # without that mode, or with it below round-off, keeps the parity
        # given for ties, by default the even one
        x, y = grid16.coordinates()
        for values, parities in ((np.cos(4 * x) + 0 * y, (0, 0)),
                                 (np.sin(4 * x) + 0 * y, (1, 0)),
                                 (np.sin(4 * y) + np.cos(4 * x), (0, 1)),
                                 (np.cos(x) + 1e-14 * np.sin(4 * x) + 0 * y, (0, 0))):
            coarse, picked = half_grid(grid16, values)
            assert (coarse.sizes, picked) == ((8, 8), parities)
        for values, parities in ((np.sin(4 * x) + 0 * y, (1, 1)),
                                 (np.cos(4 * x) + 0 * y, (0, 1)),
                                 (np.cos(x) + 1e-14 * np.sin(4 * x) + 0 * y, (1, 1))):
            assert half_grid(grid16, values, ties=(1, 1))[1] == parities

    @given(data=st.data())
    def test_pair_round_trips_at_any_parity(self, data):
        n = data.draw(st.sampled_from([1, 2]), label="n")
        parities = data.draw(st.tuples(*[st.integers(0, 1)] * (2 * n)), label="parities")
        terms = data.draw(trig_terms(2 * n, 1.0), label="terms")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        fine = PeriodicGrid(n, (16,) * (2 * n))
        values = make_trig_field(fine, terms).values
        coarse, _ = half_grid(fine, values)
        back = prolong(restrict(values, parities), coarse, fine, parities)
        assert sup_norm(back - values) <= 1e-14 * max(1.0, sup_norm(values))
        samples = np.random.default_rng(seed).standard_normal(coarse.shape)
        out = prolong(samples, coarse, fine, parities)
        assert sup_norm(restrict(out, parities) - samples) <= 1e-14


class TestDerivatives:
    def test_mixed_second_derivative_of_cosine(self, grid32):
        x, _ = grid32.coordinates()
        H = hessian(grid32, np.cos(x) + np.zeros(grid32.shape))
        assert sup_norm(H[0, 0].real + 0.25 * np.cos(x) + np.zeros(grid32.shape)) <= 1e-12
        assert sup_norm(H[0, 0].imag) <= 1e-12

    def test_derivative_of_constant_vanishes(self, grid32):
        assert sup_norm(hessian(grid32, np.full(grid32.shape, 2.5))) <= 1e-13

    def test_mixed_pair_matches_finite_differences(self):
        # n=2 cross derivative d/dz1 d/dzbar2 of cos(x1)cos(y2); budget is
        # the 8th-order stencil truncation, far above round-off
        grid = PeriodicGrid(2, (16, 16, 16, 16))
        x1, _y1, _x2, y2 = grid.coordinates()
        values = np.cos(x1) * np.cos(y2) + np.zeros(grid.shape)
        spectral = hessian(grid, values)[0, 1]
        fd = fd_complex_derivative(grid, values, (1, 0), (0, 1))
        assert np.abs(spectral - fd).max() <= 1e-6

    def test_cross_derivatives_are_conjugate_for_real_fields(self):
        grid = PeriodicGrid(2, (8, 8, 8, 8))
        rng = np.random.default_rng(5)
        H = hessian(grid, rng.standard_normal(grid.shape))
        assert np.abs(H[0, 1] - np.conj(H[1, 0])).max() <= 1e-12


class TestFlatPoisson:
    def test_cosine_mode(self, grid32):
        x, _ = grid32.coordinates()
        f = ScalarField(grid32, np.cos(x) + np.zeros(grid32.shape))
        u = flat_poisson_solve(f, EYE1)
        assert sup_norm(u.values + 4.0 * np.cos(x) + np.zeros(grid32.shape)) <= 1e-12

    def test_zero_maps_to_zero(self, grid32):
        u = flat_poisson_solve(ScalarField(grid32, np.zeros(grid32.shape)), EYE1)
        assert sup_norm(u.values) == 0.0

    def test_reapplication_inverts_solve(self):
        grid = PeriodicGrid(2, (8, 8, 8, 8))
        g0 = np.diag([2.0, 3.0]).astype(complex)
        rng = np.random.default_rng(11)
        f_values = rng.standard_normal(grid.shape)
        f_values -= f_values.mean()
        u = flat_poisson_solve(ScalarField(grid, f_values), g0)
        symbol = flat_laplacian_symbol(grid, g0)
        assert symbol.shape == grid.half_shape
        back = grid.derivatives(u.values, symbol)
        assert sup_norm(back - f_values) <= 1e-10 * sup_norm(f_values)

    def test_mean_zero_is_required(self, grid32):
        with pytest.raises(SolvabilityError):
            flat_poisson_solve(ScalarField(grid32, np.ones(grid32.shape)), EYE1)

    def test_reference_matrix_must_be_positive(self, grid32):
        f = ScalarField(grid32, np.zeros(grid32.shape))
        with pytest.raises(DomainError):
            flat_poisson_solve(f, np.array([[-1.0 + 0.0j]]))


class TestFieldTypes:
    def test_non_finite_samples_are_rejected(self, grid16):
        values = np.zeros(grid16.shape)
        values[0, 0] = np.nan
        with pytest.raises(DomainError):
            ScalarField(grid16, values)

    def test_trig_field_matches_direct_evaluation(self):
        grid = PeriodicGrid(1, (16, 16))
        x, y = grid.coordinates()
        f = make_trig_field(grid, [(0.5, (1, -1), 0.3)])
        expected = 0.5 * np.cos(x - y + 0.3)
        assert sup_norm(f.values - expected) <= 1e-14

    def test_trig_field_rejects_short_wavevector(self, grid8x4):
        with pytest.raises(ShapeError):
            make_trig_field(grid8x4, [(1.0, (1, 0), 0.0)])

    def test_trig_field_rejects_non_integral_wavevector(self, grid16):
        with pytest.raises(DomainError):
            make_trig_field(grid16, [(1.0, (1.5, 0), 0.0)])
        f = make_trig_field(grid16, [(1.0, (1.0, np.int64(0)), 0.0)])
        assert sup_norm(f.values - make_trig_field(grid16, [(1.0, (1, 0), 0.0)]).values) == 0.0
