"""Grid construction, transforms and spectral derivatives."""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, strategies as st

import twistk.grid as grid_module
from twistk import PeriodicGrid, ScalarField
from twistk.errors import DomainError, ShapeError, SolvabilityError
from twistk.grid import (
    fft_workers,
    flat_laplacian_symbol,
    flat_poisson_solve,
    half_grid,
    hessian,
    make_trig_field,
    prolong,
    restrict,
    rms_norm,
    set_fft_workers,
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

    @pytest.mark.parametrize("n", [1.5, True, np.True_, None, "1"])
    def test_dimension_must_be_an_integer(self, n):
        with pytest.raises(DomainError):
            PeriodicGrid(n, (8, 8))

    def test_an_integral_float_dimension_is_stored_as_an_int(self):
        grid = PeriodicGrid(1.0, (8, 8))
        assert type(grid.n) is int and grid == PeriodicGrid(1, (8, 8))
        assert hessian(grid, np.zeros(grid.shape)).shape == (1, 1, 8, 8)
        assert type(PeriodicGrid(np.int64(2), (4,) * 4).n) is int

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


@pytest.fixture(params=["file", "package"])
def pocketfft_loader(request, monkeypatch):
    """The pocketfft module the transform pair calls: the extension
    loaded by file path, or the one imported through scipy.fft when the
    file lookup misses."""
    if request.param == "package":
        monkeypatch.setattr(grid_module, "_pocketfft_path",
                            lambda: Path("absent") / "pypocketfft.so")
        module, source = grid_module._load_pocketfft()
        assert source == "scipy.fft._pocketfft"
        monkeypatch.setattr(grid_module, "_POCKETFFT", module)
    else:
        # the file loader leaves sys.modules alone
        assert Path(grid_module.POCKETFFT_SOURCE).is_file()
        assert "pypocketfft" not in sys.modules
    return request.param


class TestPocketfftLoaders:
    @pytest.mark.parametrize("n, sizes", [(1, (32, 32)), (2, (16, 16, 16, 16))])
    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pair_is_bit_identical_to_scipy_fft(self, pocketfft_loader, n, sizes, lead,
                                                workers):
        grid = PeriodicGrid(n, sizes)
        values = np.random.default_rng(11).standard_normal(lead + sizes)
        axes = tuple(range(-len(sizes), 0))
        before = fft_workers()
        set_fft_workers(workers)
        try:
            coeffs = grid.fft(values)
            back = grid.ifft(coeffs)
        finally:
            set_fft_workers(before)
        expected = scipy.fft.rfftn(values, axes=axes, norm="forward", workers=workers)
        assert coeffs.dtype == expected.dtype and coeffs.shape == expected.shape
        assert np.array_equal(coeffs.view(float), expected.view(float))
        expected = scipy.fft.irfftn(coeffs, s=sizes, axes=axes, norm="forward",
                                    workers=workers)
        assert back.dtype == expected.dtype and np.array_equal(back, expected)

    def test_scipy_version_is_read_from_its_file(self, monkeypatch):
        # the version is cached per process; each case reads it afresh
        monkeypatch.setattr(grid_module, "scipy_version",
                            grid_module.scipy_version.__wrapped__)
        assert grid_module.scipy_version() == scipy.__version__
        assert "scipy_version" not in sys.modules
        # where scipy lays the file out elsewhere, the version comes from
        # `import scipy`
        monkeypatch.setattr(grid_module, "_scipy_file", lambda *parts: Path("absent", *parts))
        assert grid_module.scipy_version() == scipy.__version__

    def test_scipy_version_is_read_once_per_process(self, tmp_path, monkeypatch):
        # every run_scenario call writes a manifest; only the first runs
        # scipy's version.py
        from twistk.config import parse_config
        from twistk.runner import run_scenario

        loads = []
        load_file = grid_module._load_file

        def counting(name, path):
            loads.append(name)
            return load_file(name, path)

        monkeypatch.setattr(grid_module, "_load_file", counting)
        grid_module.scipy_version.cache_clear()
        for run in range(3):
            out = tmp_path / f"run{run}"
            cfg = parse_config(json.dumps({"scenario": "single_solve", "sizes": [16, 16],
                                           "out": str(out)}))
            assert run_scenario(cfg) == 0
            versions = json.loads((out / "manifest.json").read_text())["versions"]
            assert versions["scipy"] == scipy.__version__
        assert loads == ["scipy_version"]

    @pytest.mark.parametrize("count", [0, -2])
    def test_worker_count_below_one_is_refused(self, count):
        before = fft_workers()
        with pytest.raises(DomainError, match=f"fft worker count must be >= 1, got {count}"):
            set_fft_workers(count)
        assert fft_workers() == before


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

    def test_complex_field_is_rejected(self, grid32):
        # the real-to-complex transform would keep only the real part
        with pytest.raises(DomainError, match="real"):
            grid32.fft(np.ones(grid32.shape, dtype=complex))
        with pytest.raises(DomainError, match="real"):
            grid32.fft(np.zeros((2,) + grid32.shape, dtype=np.complex64))

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
            back = prolong(restrict(values, parities), fine, parities)
            assert sup_norm(back - values) <= 1e-14

    @pytest.mark.parametrize("sizes", [sizes for sizes, _ in CASES], ids=IDS)
    def test_coarse_samples_are_interpolated(self, sizes):
        # a random field fills every coarse mode, the Nyquist modes included
        coarse, fine = self.grids(sizes)
        values = np.random.default_rng(17).standard_normal(coarse.shape)
        for parities in self.every_parity(sizes):
            out = prolong(values, fine, parities)
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
                out = prolong(values, fine, parities)
                assert sup_norm(out - expected) <= 1e-13

    def test_grids_must_differ_by_two_on_every_axis(self):
        # prolong reads the coarse grid off the fine one: values of any
        # other shape, or a fine grid without a half grid, are refused
        fine = PeriodicGrid(1, (16, 16))
        with pytest.raises(ShapeError):
            prolong(np.zeros((16, 16)), fine, (0, 0))
        with pytest.raises(ShapeError):
            prolong(np.zeros((8, 4)), fine, (0, 0))
        with pytest.raises(DomainError):
            prolong(np.zeros((9, 9)), PeriodicGrid(1, (18, 18)), (0, 0))

    def test_a_grid_builds_its_half_grid_once(self):
        fine = PeriodicGrid(2, (8, 16, 8, 8))
        assert fine.half is fine.half
        assert fine.half == PeriodicGrid(2, (4, 8, 4, 4))
        values = make_trig_field(fine, [(1.0, (1, 2, 0, 1), 0.3)]).values
        assert half_grid(fine, values)[0] is fine.half

    @pytest.mark.parametrize("sizes, message", [
        ((16, 18), "grid axis 18 not a multiple of 4"),
        ((4, 16), "grid axis 4 below 8"),
    ], ids=["not-multiple-of-4", "below-8"])
    def test_grid_without_a_half_grid_is_refused(self, sizes, message):
        grid = PeriodicGrid(1, sizes)
        for refuse in (lambda: grid.half, lambda: half_grid(grid, np.zeros(grid.shape))):
            with pytest.raises(DomainError) as info:
                refuse()
            assert str(info.value) == message

    def test_parities_follow_the_half_grid_nyquist_mode(self, grid16):
        # the even points see cos(4 x) and the odd points sin(4 x); an axis
        # without that mode, or with it below round-off, keeps the parity
        # of the field's first maximum
        x, y = grid16.coordinates()
        h = grid16.spacings()[0]
        for values, parities in ((np.cos(4 * x) + 0 * y, (0, 0)),
                                 (np.sin(4 * x) + 0 * y, (1, 0)),
                                 (np.sin(4 * y) + np.cos(4 * x), (0, 1)),
                                 (np.cos(x) + 1e-14 * np.sin(4 * x) + 0 * y, (0, 0))):
            coarse, picked = half_grid(grid16, values)
            assert (coarse.sizes, picked) == ((8, 8), parities)
        for values, parities in ((np.cos(x - h) + 0 * y, (1, 0)),
                                 (np.cos(x - h) * np.cos(y - 3 * h), (1, 1)),
                                 (np.sin(4 * x) + np.cos(y - h), (1, 1)),
                                 (np.cos(x - h) + 1e-14 * np.sin(4 * x) + 0 * y, (1, 0))):
            assert half_grid(grid16, values)[1] == parities

    @given(data=st.data())
    def test_pair_round_trips_at_any_parity(self, data):
        n = data.draw(st.sampled_from([1, 2]), label="n")
        parities = data.draw(st.tuples(*[st.integers(0, 1)] * (2 * n)), label="parities")
        terms = data.draw(trig_terms(2 * n, 1.0), label="terms")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        fine = PeriodicGrid(n, (16,) * (2 * n))
        values = make_trig_field(fine, terms).values
        back = prolong(restrict(values, parities), fine, parities)
        assert sup_norm(back - values) <= 1e-14 * max(1.0, sup_norm(values))
        samples = np.random.default_rng(seed).standard_normal(fine.half.shape)
        out = prolong(samples, fine, parities)
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

    @pytest.mark.parametrize("n, sizes", [(1, (16, 12)), (2, (6, 8, 4, 6))])
    def test_each_field_has_its_own_inverse_transform_and_the_batched_bits(self, n, sizes):
        grid = PeriodicGrid(n, sizes)
        values = np.random.default_rng(7).standard_normal(grid.shape)
        for stack in (grid.hessian_stack, grid.dzbar_stack):
            batched = grid.ifft(grid.fft(values) * stack)
            assert grid.derivatives(values, stack).tobytes() == batched.tobytes()
        calls = []
        inverse = grid_module.PeriodicGrid.ifft
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid_module.PeriodicGrid, "ifft",
                       lambda self, coeffs, out=None: calls.append(coeffs.shape)
                       or inverse(self, coeffs, out))
            grid.derivatives(values, grid.hessian_stack)
        assert calls == [grid.half_shape] * n * n

    def test_cross_derivatives_are_conjugate_for_real_fields(self):
        grid = PeriodicGrid(2, (8, 8, 8, 8))
        rng = np.random.default_rng(5)
        H = hessian(grid, rng.standard_normal(grid.shape))
        assert np.abs(H[0, 1] - np.conj(H[1, 0])).max() <= 1e-12


class TestWavenumbers:
    def test_wavenumbers_are_integers_where_fftfreq_rounds(self):
        # at 98 points 98 * (1 / 98) != 1, so np.fft.fftfreq(98, d=1/98)
        # returns k * (1 + 2^-52)
        grid = PeriodicGrid(1, (98, 4))
        k = grid._wavenumbers()[0].ravel()
        assert np.array_equal(k, np.round(k))
        assert k.tolist() == list(range(49)) + list(range(-49, 0))

    @pytest.mark.parametrize("size", [8, 12, 16, 32, 128])
    def test_wavenumbers_have_the_bits_of_fftfreq_where_it_is_exact(self, size):
        grid = PeriodicGrid(1, (size, 4))
        k = grid._wavenumbers()[0].ravel()
        assert k.dtype == np.float64
        assert k.tobytes() == np.fft.fftfreq(size, d=1.0 / size).tobytes()


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

    def test_complex_samples_are_rejected(self, grid16):
        # a cast to float would keep only the real part, with a warning
        values = np.zeros(grid16.shape, dtype=complex)
        with pytest.raises(DomainError, match="must be real"):
            ScalarField(grid16, values)
        with pytest.raises(DomainError, match="must be real"):
            ScalarField(grid16, (values + 1j).tolist())

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
