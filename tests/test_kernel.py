"""Half-spectrum derivative kernel against full-spectrum references.

Every reference here applies the complex full-spectrum multipliers the
kernel splits by index reflection with numpy's own transforms,
np.fft.ifftn(multiplier * np.fft.fftn(v)), independent of the grid's
transform pair (the normalisation cancels).  The multipliers are built
here from integer wavenumbers, independent of the grid's stacks.  Random
normal fields put energy on every Nyquist-touching mode, where a wrong
split would show at O(1).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistk import HermitianFormField, KahlerStructure, PeriodicGrid
from twistk.errors import ShapeError
from twistk.grid import hessian, holo_gradient
from twistk.operators import KINDS, LinearOperatorHandle
from twistk.oracles import dense_spectrum

GRIDS = [
    PeriodicGrid(1, (8, 8)),
    PeriodicGrid(1, (6, 10)),
    PeriodicGrid(2, (4, 4, 4, 4)),
    PeriodicGrid(2, (6, 4, 8, 4)),
]
GRID_IDS = ["x".join(map(str, g.sizes)) for g in GRIDS]
TOL = 1e-13

seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _rel(new: np.ndarray, ref: np.ndarray) -> float:
    return float(np.abs(new - ref).max()) / max(float(np.abs(ref).max()), 1e-300)


def _full(grid: PeriodicGrid, values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(np.fft.fftn(values) * mult)


def _wavenumbers(grid: PeriodicGrid) -> list[np.ndarray]:
    return np.meshgrid(*(np.fft.fftfreq(s, d=1.0 / s) for s in grid.sizes), indexing="ij")


def _holo(grid: PeriodicGrid, j: int, conjugate: bool = False) -> np.ndarray:
    """Full-spectrum multiplier of d/dz_j (d/dzbar_j when conjugate)."""
    k = _wavenumbers(grid)
    return 0.5 * (1j * k[2 * j] + (-1.0 if conjugate else 1.0) * k[2 * j + 1])


def _resolved(grid: PeriodicGrid) -> np.ndarray:
    """Full-spectrum mask of the modes touching no Nyquist wavenumber."""
    return np.all([np.abs(k) != s // 2 for k, s in zip(_wavenumbers(grid), grid.sizes)], axis=0)


def _hessian_mult(grid: PeriodicGrid, j: int, k: int) -> np.ndarray:
    return _holo(grid, j) * _holo(grid, k, conjugate=True)


def _reference_hessian(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    n = grid.n
    out = np.empty((n, n) + grid.shape, dtype=complex)
    for j in range(n):
        for k in range(j, n):
            out[j, k] = _full(grid, values, _hessian_mult(grid, j, k))
            out[k, j] = np.conj(out[j, k])
    return out


def _reference_gradient(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """d/dz_j with full wavenumbers, zeroed on every Nyquist-touching mode."""
    return np.stack([_full(grid, values, _holo(grid, j) * _resolved(grid))
                     for j in range(grid.n)])


def _reference_closure(grid: PeriodicGrid, g0: np.ndarray, a0: np.ndarray) -> np.ndarray:
    """Full-spectrum frozen twist symbol tr(P a0 P H), P = g0^{-1}, on the
    Nyquist-touching modes; a0 is positive for every `_random_pair`."""
    p0 = np.linalg.inv(g0)
    pap0 = p0 @ a0 @ p0
    symbol = sum(pap0[l, m] * _hessian_mult(grid, m, l)
                 for l in range(grid.n) for m in range(grid.n))
    return np.where(_resolved(grid), 0.0, symbol.real)


def _reference_apply(handle: LinearOperatorHandle, values: np.ndarray) -> np.ndarray:
    """Operator action with complex transforms and complex contractions."""
    K, grid = handle.K, handle.K.grid
    P = K.inverse
    n = grid.n
    ricci = -_reference_hessian(grid, np.log(K.weight))
    scalar = np.einsum("kj...,jk...->...", P, ricci).real
    pricp = np.einsum("lj...,jk...,km...->lm...", P, ricci, P)
    second, grad_of, bilap, weak = None, None, 0.0, 0.0
    if handle.kind == "twist":
        weak = 1.0
    elif handle.kind == "full_linearization":
        pap = np.einsum("lj...,jk...,km...->lm...", P, handle.alpha.comps, P)
        second, bilap = handle.R * pap - pricp, -1.0
    else:
        second, grad_of, bilap, weak = -pricp, -scalar, -1.0, handle.R

    out = np.zeros(grid.shape)
    if second is not None:
        H = _reference_hessian(grid, values)
        out = out + np.einsum("lm...,ml...->...", second, H).real
        lap = np.einsum("kj...,jk...->...", P, H).real
        lap2 = np.einsum("kj...,jk...->...", P, _reference_hessian(grid, lap)).real
        out = out + bilap * lap2
    if grad_of is not None:
        grad = np.einsum("kj...,j...->k...", P, _reference_gradient(grid, grad_of))
        g = _reference_gradient(grid, values)
        out = out + np.einsum("k...,k...->...", grad, np.conj(g)).real
    if weak:
        resolved = _resolved(grid)
        coeffs = np.fft.fftn(values)
        grads = np.stack([np.fft.ifftn(coeffs * _holo(grid, l, conjugate=True) * resolved)
                          for l in range(n)])
        xi = np.einsum("lj...,l...->j...", P, grads)
        paired = np.einsum("jk...,j...->k...", handle.alpha.comps, xi)
        flux = K.weight * np.einsum("k...,lk...->l...", paired, np.conj(P))
        out_hat = _reference_closure(grid, K.base_matrix, handle.alpha.base_matrix) * coeffs
        for l in range(n):
            out_hat = out_hat + _holo(grid, l) * resolved * np.fft.fftn(flux[l])
        out = out + weak * np.fft.ifftn(out_hat).real / K.weight
    return out


def _random_pair(grid: PeriodicGrid, rng: np.random.Generator):
    """Non-diagonal classes and potentials with energy on every mode."""
    n = grid.n
    g0 = np.eye(n, dtype=complex) * 1.5
    a0 = np.eye(n, dtype=complex)
    if n == 2:
        g0[0, 1] = 0.3 + 0.2j
        g0[1, 0] = 0.3 - 0.2j
        a0[0, 1] = -0.2 + 0.1j
        a0[1, 0] = -0.2 - 0.1j
    pot = 2e-3 * rng.standard_normal(grid.shape)
    K = KahlerStructure(grid, g0, pot - pot.mean())
    alpha = HermitianFormField.from_potential(grid, a0, 1e-3 * rng.standard_normal(grid.shape))
    return K, alpha


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
class TestKernelMatchesFullSpectrum:
    @given(seed=seeds)
    def test_half_transforms_are_the_kept_half_of_the_full_ones(self, grid, seed):
        v = np.random.default_rng(seed).standard_normal((2,) + grid.shape)
        half = grid.fft(v)
        assert half.shape == (2,) + grid.half_shape
        for field, coeffs in zip(v, half):
            full = np.fft.fftn(field)[..., :grid.half_shape[-1]] / grid.npoints
            assert _rel(coeffs, full) <= TOL
        assert _rel(grid.ifft(half), v) <= TOL

    @given(seed=seeds)
    def test_hessian(self, grid, seed):
        v = np.random.default_rng(seed).standard_normal(grid.shape)
        assert _rel(hessian(grid, v), _reference_hessian(grid, v)) <= TOL

    @given(seed=seeds)
    def test_holo_gradient(self, grid, seed):
        v = np.random.default_rng(seed).standard_normal(grid.shape)
        assert _rel(holo_gradient(grid, v), _reference_gradient(grid, v)) <= TOL

    @given(seed=seeds)
    def test_every_operator_kind(self, grid, seed):
        rng = np.random.default_rng(seed)
        K, alpha = _random_pair(grid, rng)
        v = rng.standard_normal(grid.shape)
        for kind in KINDS:
            for R in (3.0, 0.0):
                handle = LinearOperatorHandle(kind, K, alpha, R=R)
                assert _rel(handle.apply(v), _reference_apply(handle, v)) <= TOL, (kind, R)


@pytest.mark.parametrize("grid", GRIDS[2:], ids=GRID_IDS[2:])
def test_dense_twist_operator_keeps_symmetry_and_kernel(grid):
    rng = np.random.default_rng(7)
    for _ in range(3):
        K, alpha = _random_pair(grid, rng)
        spectrum = dense_spectrum(LinearOperatorHandle("twist", K, alpha))
        assert spectrum.symmetry_defect <= 1e-9
        evals = spectrum.eigenvalues
        scale = float(np.abs(evals).max())
        # ascending: exactly one eigenvalue at zero, everything else negative
        assert abs(evals[-1]) <= 1e-12 * scale
        assert evals[-2] <= -1e-6 * scale
        out = LinearOperatorHandle("twist", K, alpha).apply(np.full(grid.shape, 1.7))
        assert float(np.abs(out).max()) <= 1e-12


@pytest.mark.parametrize("grid", [GRIDS[0], GRIDS[2]], ids=[GRID_IDS[0], GRID_IDS[2]])
def test_wrong_field_shapes_are_rejected(grid):
    K, alpha = _random_pair(grid, np.random.default_rng(3))
    handle = LinearOperatorHandle("shifted", K, alpha, R=3.0)
    # a stack of n fields would broadcast against the n-row gradient stack
    for shape in [(grid.n,) + grid.shape, grid.shape[:-1] + (grid.shape[-1] + 2,)]:
        v = np.zeros(shape)
        for call in (lambda: hessian(grid, v), lambda: holo_gradient(grid, v),
                     lambda: handle.apply(v), lambda: grid.ifft(v)):
            with pytest.raises(ShapeError):
                call()
    with pytest.raises(ShapeError):
        grid.fft(np.zeros(grid.shape[:-1] + (grid.shape[-1] + 2,)))
