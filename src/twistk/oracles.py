"""Independent verification routes for the spectral pipeline.

Everything here deliberately avoids the code paths it checks: derivatives
use high-order finite differences on the periodic grid instead of the
FFT, pointwise linear algebra goes through numpy.linalg instead of the
closed-form Hermitian kernels, convergence orders come from log-log
fits, and operator symmetry is measured on densely assembled matrices.
Agreement tolerances in tests must budget for the finite-difference
truncation error (kh)^8, which is far above machine precision on coarse
grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateMetricError, DomainError, PreconditionError
from .geometry import HermitianFormField, KahlerStructure
from .grid import PeriodicGrid
from .operators import LinearOperatorHandle, dense_assemble

# 8th-order central first-derivative stencil, offsets 1..4
_FD8 = (4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0)


@dataclass(frozen=True)
class FitResult:
    """Least-squares power law y ~ prefactor * x^exponent (log-log fit)."""

    exponent: float
    log_prefactor: float
    max_log_deviation: float


def order_fit(xs: Sequence[float], ys: Sequence[float]) -> FitResult:
    """Fit the decay/growth order of positive samples against positive xs."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise PreconditionError("order_fit needs two same-length 1d samples")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise DomainError("order_fit needs strictly positive samples")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    deviation = float(np.abs(ly - (slope * lx + intercept)).max())
    return FitResult(exponent=float(slope), log_prefactor=float(intercept),
                     max_log_deviation=deviation)


@dataclass(frozen=True)
class FDDerivative:
    """Directional derivative estimate with a data-driven error bar."""

    value: np.ndarray
    error: float
    epsilon: float


def fd_directional_derivative(func: Callable[[np.ndarray], np.ndarray],
                              x0: np.ndarray, direction: np.ndarray, *,
                              epsilons: Sequence[float] = (1e-2, 3e-3, 1e-3, 3e-4, 1e-4),
                              ) -> FDDerivative:
    """Central-difference derivative of func along direction at x0.

    Evaluates (func(x0 + e d) - func(x0 - e d)) / (2 e) over the given
    step sizes, Richardson-extrapolates the closest consecutive pair and
    reports their gap as the error estimate.  Steps that degenerate a
    metric inside func are skipped (with at least two required to
    survive).
    """
    estimates: list[tuple[float, np.ndarray]] = []
    for eps in epsilons:
        try:
            plus = func(x0 + eps * direction)
            minus = func(x0 - eps * direction)
        except DegenerateMetricError:
            continue
        estimates.append((eps, (plus - minus) / (2.0 * eps)))
    if len(estimates) < 2:
        raise PreconditionError(
            "fd_directional_derivative: fewer than two step sizes usable")
    gaps = []
    for (ea, va), (eb, vb) in zip(estimates, estimates[1:]):
        gap = float(np.abs(va - vb).max())
        gaps.append((gap, ea, va, eb, vb))
    gap, ea, va, eb, vb = min(gaps, key=lambda item: item[0])
    # central differences have O(e^2) error: eliminate the leading term
    value = (va * eb ** 2 - vb * ea ** 2) / (eb ** 2 - ea ** 2)
    return FDDerivative(value=value, error=gap, epsilon=eb)


def _fd_axis_derivative(values: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    out = np.zeros_like(values)
    for offset, coeff in enumerate(_FD8, start=1):
        out = out + coeff * (np.roll(values, -offset, axis=axis)
                             - np.roll(values, offset, axis=axis))
    return out / spacing


def fd_complex_derivative(grid: PeriodicGrid, values: np.ndarray,
                          dz: tuple[int, ...], dzbar: tuple[int, ...]) -> np.ndarray:
    """Finite-difference route for mixed d/dz, d/dzbar derivatives.

    d/dz_j = (d/dx_j - i d/dy_j) / 2 on axes (2j, 2j+1); 8th-order
    periodic stencils, applied repeatedly for higher orders.
    """
    if len(dz) != grid.n or len(dzbar) != grid.n:
        raise PreconditionError("derivative multi-indices must have length n")
    out = np.asarray(values, dtype=complex)
    h = grid.spacings()
    for j in range(grid.n):
        for _ in range(dz[j]):
            dx = _fd_axis_derivative(out, 2 * j, h[2 * j])
            dy = _fd_axis_derivative(out, 2 * j + 1, h[2 * j + 1])
            out = 0.5 * (dx - 1j * dy)
        for _ in range(dzbar[j]):
            dx = _fd_axis_derivative(out, 2 * j, h[2 * j])
            dy = _fd_axis_derivative(out, 2 * j + 1, h[2 * j + 1])
            out = 0.5 * (dx + 1j * dy)
    return out


def fd_hessian(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """Complex Hessian d^2/dz_j dzbar_k via the finite-difference route."""
    n = grid.n
    out = np.zeros((n, n) + grid.shape, dtype=complex)
    for j in range(n):
        dz = tuple(1 if a == j else 0 for a in range(n))
        dj = fd_complex_derivative(grid, values, dz, (0,) * n)
        for k in range(n):
            dzbar = tuple(1 if a == k else 0 for a in range(n))
            out[j, k] = fd_complex_derivative(grid, dj, (0,) * n, dzbar)
    return out


def pointwise_inverse(comps: np.ndarray) -> np.ndarray:
    """Pointwise matrix inverse through numpy.linalg (moveaxis route)."""
    moved = np.moveaxis(comps, (0, 1), (-2, -1))
    return np.moveaxis(np.linalg.inv(moved), (-2, -1), (0, 1))


def naive_trace_form(K: KahlerStructure, alpha: HermitianFormField) -> np.ndarray:
    """Trace of alpha against the metric with explicit index loops.

    Uses g^{j kbar} = (G^{-1})[k, j] with the inverse from numpy.linalg;
    no einsum, no closed-form adjugate.
    """
    inv = pointwise_inverse(K.comps)
    a = alpha.comps
    n = K.n
    out = np.zeros(K.grid.shape, dtype=complex)
    for j in range(n):
        for k in range(n):
            out += inv[k, j] * a[j, k]
    return out.real


def naive_form_pairing(K: KahlerStructure, alpha: HermitianFormField,
                       beta: HermitianFormField) -> np.ndarray:
    """Pointwise pairing tr(G^-1 A G^-1 B) with explicit loops."""
    inv = pointwise_inverse(K.comps)
    a, b = alpha.comps, beta.comps
    n = K.n
    out = np.zeros(K.grid.shape, dtype=complex)
    for j in range(n):
        for k in range(n):
            for l in range(n):
                for m in range(n):
                    out += inv[l, j] * a[j, k] * inv[k, m] * b[m, l]
    return out.real


def naive_gradient_pairing(K: KahlerStructure, f: np.ndarray,
                           h: np.ndarray) -> np.ndarray:
    """Re g^{j kbar} (d f / dz_j)(d h / dzbar_k) via finite differences."""
    inv = pointwise_inverse(K.comps)
    n = K.n
    out = np.zeros(K.grid.shape, dtype=complex)
    for j in range(n):
        dz = tuple(1 if a == j else 0 for a in range(n))
        df = fd_complex_derivative(K.grid, f, dz, (0,) * n)
        for k in range(n):
            dzbar = tuple(1 if a == k else 0 for a in range(n))
            dh = fd_complex_derivative(K.grid, h, (0,) * n, dzbar)
            out += inv[k, j] * df * dh
    return out.real


def fd_scalar_curvature(K: KahlerStructure) -> np.ndarray:
    """Scalar curvature with every derivative taken by finite differences.

    S = -g^{j kbar} d^2 log det(g) / dz_j dzbar_k; det through
    numpy.linalg.det, inverse through numpy.linalg.inv.  Truncation
    error is O((k h)^8) for band-limited metrics.
    """
    comps = K.comps
    moved = np.moveaxis(comps, (0, 1), (-2, -1))
    logdet = np.log(np.linalg.det(moved).real)
    hess = fd_hessian(K.grid, logdet)
    inv = pointwise_inverse(comps)
    n = K.n
    out = np.zeros(K.grid.shape, dtype=complex)
    for j in range(n):
        for k in range(n):
            out += inv[k, j] * (-hess[j, k])
    return out.real


@dataclass(frozen=True)
class DenseSpectrum:
    """Eigenvalues of a densely assembled operator plus its symmetry defect.

    The operator A is conjugated to B = W^{1/2} A W^{-1/2} with W the
    diagonal volume weight; B is symmetric exactly when A is
    self-adjoint in the volume-weighted inner product, and the defect is
    ||B - B^T||_F / ||B||_F before symmetrization.
    """

    eigenvalues: np.ndarray
    symmetry_defect: float


def dense_spectrum(handle: LinearOperatorHandle) -> DenseSpectrum:
    # only the verify suite and the tests call this, so scipy.linalg
    # stays out of every other process
    import scipy.linalg

    A = dense_assemble(handle)
    w = handle.K.weight.ravel()
    root = np.sqrt(w)
    B = (A * root[:, None]) / root[None, :]
    norm = float(np.linalg.norm(B))
    defect = float(np.linalg.norm(B - B.T)) / max(norm, 1e-300)
    eigenvalues = scipy.linalg.eigh(0.5 * (B + B.T), eigvals_only=True)
    return DenseSpectrum(eigenvalues=np.asarray(eigenvalues), symmetry_defect=defect)
