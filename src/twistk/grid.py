"""Uniform periodic grids on [0, 2*pi)^(2n) and spectral differentiation.

The torus carries complex coordinates z_j = x_j + i*y_j; real axes are
ordered (x_1, y_1, ..., x_n, y_n), so axis 2j is x_{j+1} and axis 2j+1
is y_{j+1}.  Holomorphic derivatives follow the convention

    d/dz_j    = (d/dx_j - i*d/dy_j) / 2,
    d/dzbar_j = (d/dx_j + i*d/dy_j) / 2,

realised as exact Fourier multipliers on integer wavenumbers.  A grid
builds two derivative stacks, one per derivative order, each with one
Nyquist rule.  The second-order stack (`hessian_stack`) keeps the full
wavenumbers, so that second-order contractions such as the flat
Laplacian have kernel exactly the constants on the grid.  The
first-order stack (`dzbar_stack`) holds d/dzbar_j with full wavenumbers,
zeroed on every mode that touches a Nyquist wavenumber
(`nyquist_mask`).  For a real field d/dz_j is the complex conjugate of
d/dzbar_j, so the same stack serves it with its imaginary part negated.

`PeriodicGrid.fft`/`ifft` are the grid's one transform pair, the
real-to-complex pair: `fft` keeps the first N // 2 + 1 Fourier
coefficients along the last axis of a real field (or of a stack of
fields along leading axes), and `ifft` returns real fields.  They are
normalised so that a constant field has coefficient 1 at wavevector
zero.

Every spectral derivative, flat solve and Sobolev weight goes through
one half-spectrum kernel, `PeriodicGrid.derivatives`: one forward
transform of the input, a product with a stack of multipliers, and one
batched inverse transform that yields real fields.  A complex derivative
D v = IFFT(m * FFT(v)) of a real field v, with FFT/IFFT the
full-spectrum pair, is carried as two real fields.  A grid forms them
once, when it builds its two stacks, by splitting the full-spectrum
multiplier m by discrete index reflection, with -k taken mod N on every
axis:

    m_h(k) = (m(k) + conj(m(-k))) / 2,      Re D v = irfft(m_h * rfft v),
    m_a(k) = (m(k) - conj(m(-k))) / (2i),   Im D v = irfft(m_a * rfft v).

Both halves are Hermitian under the reflection, so the identities hold
exactly on every mode.  On a mode touching a Nyquist wavenumber the
reflection keeps that index fixed, so the naive split into the real and
imaginary parts of the symbol would be wrong there; the reflection split
is what keeps the half-spectrum operators equal to the full-spectrum
ones.  Nothing else touches the full spectrum: a constant-coefficient
symbol (the flat Laplacian, the preconditioner symbols, the twist
closure, the Sobolev weights) is the pairing of a constant matrix with
the Hessian stack (`hessian_symbol`), the same pairing that
`hessian_trace` forms with variable coefficients.

The half grid of the two-grid Newton step has one owner here:
`half_grid` decides whether a grid has one and which points of each axis
it keeps (the parities), `restrict` samples a field at those points, and
`prolong` interpolates a half-grid field back spectrally onto the same
points.  No other module holds a half-grid rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import DomainError, ShapeError, SolvabilityError

_WORKERS = 1
# trig terms of `random_trig_terms` and `random_smooth_field`
_RANDOM_TERMS = 6
# `half_grid`: Nyquist amplitudes within this fraction of the field's sup
# are treated as equal
_PARITY_ROUND_OFF = 1e-12


def set_fft_workers(count: int) -> None:
    """Set the worker count used by all FFTs in this process."""
    global _WORKERS
    if int(count) < 1:
        raise DomainError(f"fft worker count must be >= 1, got {count}")
    _WORKERS = int(count)


def fft_workers() -> int:
    return _WORKERS


def _axis_shape(length: int, axis: int, ndim: int) -> tuple[int, ...]:
    shape = [1] * ndim
    shape[axis] = length
    return tuple(shape)


def _integer(value, what: str) -> int:
    """value as an int; DomainError unless it is integral."""
    if not float(value).is_integer():
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _pairs(n: int) -> list[tuple[int, int]]:
    """Off-diagonal index pairs j < k, in the order of the Hessian stack."""
    return [(j, k) for j in range(n) for k in range(j + 1, n)]


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform grid over [0, 2*pi)^(2n) with its cached derivative stacks.

    Parameters
    ----------
    n:
        Complex dimension, 1 or 2.
    sizes:
        Points per real axis, one entry per axis in the order
        (x_1, y_1, ..., x_n, y_n).  Each size must be an even integer
        >= 4; an integral float counts as its integer.
    """

    n: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        if self.n not in (1, 2):
            raise DomainError(f"complex dimension must be 1 or 2, got {self.n}")
        sizes = tuple(_integer(s, "axis size") for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if len(sizes) != 2 * self.n:
            raise ShapeError(
                f"expected {2 * self.n} axis sizes for n={self.n}, got {len(sizes)}"
            )
        for s in sizes:
            if s < 4 or s % 2 != 0:
                raise DomainError(f"axis sizes must be even and >= 4, got {s}")

    # -- basic geometry -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.sizes

    @functools.cached_property
    def npoints(self) -> int:
        return math.prod(self.sizes)

    def spacings(self) -> tuple[float, ...]:
        return tuple(2.0 * math.pi / s for s in self.sizes)

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Broadcastable coordinate arrays, one per real axis."""
        ndim = len(self.sizes)
        out = []
        for a, s in enumerate(self.sizes):
            x = np.arange(s) * (2.0 * math.pi / s)
            out.append(x.reshape(_axis_shape(s, a, ndim)))
        return tuple(out)

    # -- transforms -------------------------------------------------------

    @functools.cached_property
    def half_shape(self) -> tuple[int, ...]:
        """Shape of a half spectrum: the last axis keeps N // 2 + 1 modes."""
        return self.sizes[:-1] + (self.sizes[-1] // 2 + 1,)

    def fft(self, values: np.ndarray) -> np.ndarray:
        """Half spectrum of a real field, or of a stack of them along
        leading axes: the first `half_shape[-1]` Fourier coefficients
        along the last axis, normalised so a constant has coefficient 1."""
        if values.shape[values.ndim - len(self.sizes):] != self.sizes:
            raise ShapeError(f"field shape {values.shape} does not end in grid {self.shape}")
        return scipy.fft.rfftn(values, axes=self._axes, norm="forward", workers=_WORKERS)

    def ifft(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse of `fft`: real fields from half spectra."""
        if coeffs.shape[coeffs.ndim - len(self.sizes):] != self.half_shape:
            raise ShapeError(
                f"half-spectrum shape {coeffs.shape} does not end in {self.half_shape}")
        return scipy.fft.irfftn(coeffs, s=self.sizes, axes=self._axes, norm="forward",
                                workers=_WORKERS)

    @property
    def _axes(self) -> tuple[int, ...]:
        return tuple(range(-len(self.sizes), 0))

    # -- half-spectrum derivative kernel -----------------------------------

    def derivatives(self, values: np.ndarray, mults: np.ndarray) -> np.ndarray:
        """The derivative kernel: the real field ifft(fft(values) * m) for
        every multiplier m of the half-spectrum stack mults (or for the
        single half-spectrum multiplier mults), in one batched inverse."""
        if values.shape != self.shape:
            raise ShapeError(f"field shape {values.shape} does not match grid {self.shape}")
        return self.ifft(self.fft(values) * mults)

    # -- the two derivative stacks ----------------------------------------

    def _wavenumbers(self) -> list[np.ndarray]:
        """Full integer wavenumbers, one broadcastable array per real axis."""
        ndim = len(self.sizes)
        return [np.fft.fftfreq(s, d=1.0 / s).reshape(_axis_shape(s, a, ndim))
                for a, s in enumerate(self.sizes)]

    def _holo_factor(self, j: int, conjugate: bool) -> np.ndarray:
        """Full-spectrum multiplier of d/dz_j (d/dzbar_j when conjugate=True)."""
        k = self._wavenumbers()
        sign = -1.0 if conjugate else 1.0
        return 0.5 * (1j * k[2 * j] + sign * k[2 * j + 1])

    def _split(self, mult: np.ndarray) -> np.ndarray:
        """Half-spectrum stack (m_h, m_a) of a full-spectrum multiplier.

        For real v, the real and imaginary parts of the full-spectrum
        IFFT(mult * FFT(v)) are the two fields `derivatives(v, _split(mult))`;
        see the module docstring for the reflection split.
        """
        mult = np.broadcast_to(mult, self.shape)
        keep = self.half_shape[-1]
        # index -k mod N on every axis, over the kept half of the last one
        reflected = [(-np.arange(s)) % s for s in self.sizes[:-1]]
        reflected.append((-np.arange(keep)) % self.sizes[-1])
        mirror = np.conj(mult[np.ix_(*reflected)])
        mult = mult[..., :keep]
        return np.stack([0.5 * (mult + mirror), -0.5j * (mult - mirror)])

    def _resolved(self) -> np.ndarray:
        """Full-spectrum mask of the modes touching no Nyquist wavenumber."""
        return functools.reduce(np.logical_and, (np.abs(k) != s // 2 for k, s in
                                                 zip(self._wavenumbers(), self.sizes)))

    @functools.cached_property
    def nyquist_mask(self) -> np.ndarray:
        """Half-spectrum mask of the modes with some axis at its Nyquist
        wavenumber.

        First-order spectral derivatives cannot act on these modes with
        exact odd symmetry, so `dzbar_stack` is zero there; operators
        built from summation by parts treat them separately.
        """
        return ~self._resolved()[..., :self.half_shape[-1]]

    @functools.cached_property
    def hessian_stack(self) -> np.ndarray:
        """The second-order stack: d/dz_j d/dzbar_j for each j, then the
        halves (m_h, m_a), the Re and Im parts, of d/dz_j d/dzbar_k for
        each pair j < k, all with full wavenumbers.  Stored real when no
        entry has an imaginary part."""
        n = self.n

        def mult(j: int, k: int) -> np.ndarray:
            return self._holo_factor(j, False) * self._holo_factor(k, True)

        parts = [self._split(mult(j, j))[0] for j in range(n)]
        for j, k in _pairs(n):
            parts.extend(self._split(mult(j, k)))
        stack = np.stack(parts)
        return np.ascontiguousarray(stack.real) if not np.any(stack.imag) else stack

    @functools.cached_property
    def dzbar_stack(self) -> np.ndarray:
        """The first-order stack: the Re parts of d/dzbar_j for each j,
        then the Im parts, with full wavenumbers, zeroed on every mode
        touching a Nyquist wavenumber.  For a real field the Re parts of
        d/dz_j are the same and its Im parts the negated ones."""
        resolved = self._resolved()
        halves = [self._split(self._holo_factor(j, True) * resolved) for j in range(self.n)]
        return np.stack([h[0] for h in halves] + [h[1] for h in halves])

    def hessian_pairing(self, S: np.ndarray) -> np.ndarray:
        """Real coefficients c with Re sum_{l,m} S[l,m] H[m,l] = sum_i c_i h_i,
        h the Hessian stack of a real field and H its complex Hessian."""
        n = self.n
        parts = [S[j, j].real for j in range(n)]
        for j, k in _pairs(n):
            parts.append(S[j, k].real + S[k, j].real)
            parts.append(S[j, k].imag - S[k, j].imag)
        return np.stack(parts)

    def hessian_trace(self, pairing: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Re tr(S H) for the Hessian H of values, given S's `hessian_pairing`."""
        H = self.derivatives(values, self.hessian_stack)
        return np.einsum("i...,i...->...", pairing, H)

    def hessian_symbol(self, S: np.ndarray) -> np.ndarray:
        """Real half-spectrum multiplier of the constant-coefficient
        operator v -> Re tr(S H) for a constant n x n matrix S, H the
        complex Hessian of v: S's `hessian_pairing` against the Hessian
        stack, which is real on every mode not touching a Nyquist
        wavenumber.  Keeping the real part keeps the self-adjoint part
        of the operator there."""
        return np.einsum("i,i...->...", self.hessian_pairing(S), self.hessian_stack).real


@dataclass(frozen=True)
class ScalarField:
    """Real scalar samples on a periodic grid."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ShapeError(
                f"field shape {values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise DomainError("field contains non-finite samples")
        object.__setattr__(self, "values", values)


def hessian(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """Complex Hessian H[j, k] = d/dz_j d/dzbar_k applied to values.

    Output has shape (n, n) + grid.shape and is pointwise Hermitian for
    real input.
    """
    n = grid.n
    stack = grid.derivatives(values, grid.hessian_stack)
    out = np.empty((n, n) + grid.shape, dtype=complex)
    for j in range(n):
        out[j, j] = stack[j]
    for i, (j, k) in enumerate(_pairs(n)):
        re, im = stack[n + 2 * i], stack[n + 2 * i + 1]
        out[j, k] = re + 1j * im
        out[k, j] = re - 1j * im
    return out


def holo_gradient(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """Components d/dz_j of values, shape (n,) + grid.shape: the conjugate
    of the first-order stack's d/dzbar_j, so zero on every mode touching
    a Nyquist wavenumber."""
    stack = grid.derivatives(values, grid.dzbar_stack)
    return stack[:grid.n] - 1j * stack[grid.n:]


def _check_hermitian(matrix: np.ndarray, n: int, what: str) -> np.ndarray:
    """The n x n matrix as complex; ShapeError or DomainError otherwise."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (n, n):
        raise ShapeError(f"{what} must be {n}x{n}, got shape {matrix.shape}")
    if not np.allclose(matrix, matrix.conj().T, rtol=0.0,
                       atol=1e-12 * max(1.0, np.abs(matrix).max())):
        raise DomainError(f"{what} must be Hermitian")
    return matrix


def _check_hermitian_matrix(g0: np.ndarray, n: int, what: str) -> np.ndarray:
    g0 = _check_hermitian(g0, n, what)
    eigs = np.linalg.eigvalsh(g0)
    if eigs.min() <= 0.0:
        raise DomainError(f"{what} must be positive definite, eigenvalues {eigs}")
    return g0


def flat_laplacian_symbol(grid: PeriodicGrid, g0: np.ndarray) -> np.ndarray:
    """Half-spectrum symbol of the constant-coefficient Laplacian
    sum g0^{jk} d_j d_kbar.

    Real, zero only at k = 0, strictly negative elsewhere.
    """
    g0 = _check_hermitian_matrix(g0, grid.n, "reference matrix g0")
    return grid.hessian_symbol(np.linalg.inv(g0))


def inverse_symbol(symbol: np.ndarray) -> np.ndarray:
    """1 / symbol off the zeros of a real symbol, 0 on them."""
    inv = np.zeros_like(symbol)
    nonzero = symbol != 0.0
    inv[nonzero] = 1.0 / symbol[nonzero]
    return inv


def flat_poisson_solve(f: ScalarField, g0: np.ndarray) -> ScalarField:
    """Solve sum g0^{jk} d_j d_kbar u = f for mean-zero u on the grid modes.

    The right-hand side must have Euclidean grid mean zero (relative to
    its sup-norm); the k = 0 mode of the solution is set to zero.
    """
    sup = float(np.abs(f.values).max())
    mean = float(f.values.mean())
    if abs(mean) > 1e-12 * max(sup, 1e-300):
        raise SolvabilityError(
            f"flat Poisson right-hand side must be mean-zero, got mean {mean:.3e} vs sup {sup:.3e}"
        )
    grid = f.grid
    inv = inverse_symbol(flat_laplacian_symbol(grid, g0))
    return ScalarField(grid, grid.derivatives(f.values, inv))


def sobolev_weight(grid: PeriodicGrid, s: float) -> np.ndarray:
    """Half-spectrum multiplier of S_s, coefficients times (1+|k|^2)^s;
    -|k|^2 / 4 is the symbol of sum_j d_j d_jbar."""
    return (1.0 - 4.0 * grid.hessian_symbol(np.eye(grid.n))) ** s


def sobolev_norm(f: ScalarField, s: float) -> float:
    """Spectral proxy norm: sqrt(sum (1+|k|^2)^s |f_k|^2) over the full
    spectrum, computed as sqrt(mean(f * S_s f)) by Parseval.

    At s = 0 this is the grid root-mean-square norm.
    """
    smooth = f.grid.derivatives(f.values, sobolev_weight(f.grid, s))
    return float(np.sqrt(np.mean(f.values * smooth)))


def half_grid(grid: PeriodicGrid, values: np.ndarray, *,
              ties: tuple[int, ...] | None = None,
              ) -> tuple[PeriodicGrid, tuple[int, ...]]:
    """The grid with half as many points on every axis, and per axis the
    parity of the points (0 even, 1 odd) that `restrict` keeps there.

    Every axis must be a multiple of 4 of at least 8, so that the half
    grid has even axes of at least 4 points; DomainError otherwise.  The
    kept points are those whose samples see more of the field's energy
    at the half grid's Nyquist wavenumber N/4, measured by the
    alternating sums over them.  Sampling the even points sees the
    cosine phase of that mode and the odd points its sine phase, so the
    choice follows a translation of the field by one grid step.  Where
    the two amplitudes agree to _PARITY_ROUND_OFF times the field's sup,
    so that only round-off could decide, the axis keeps the parity given
    in `ties`, by default the even points.
    """
    for size in grid.sizes:
        if size % 4:
            raise DomainError(f"grid axis {size} not a multiple of 4")
        if size < 8:
            raise DomainError(f"grid axis {size} below 8")
    tie = _PARITY_ROUND_OFF * float(np.abs(values).max())
    parities = []
    for axis, size in enumerate(values.shape):
        pairs = np.moveaxis(values, axis, 0).reshape(size // 2, 2, -1)
        seen = np.einsum("j,jpr->pr", (-1.0) ** np.arange(size // 2), pairs)
        amplitude = np.sqrt(np.mean(seen ** 2, axis=1)) / (size // 2)
        if abs(amplitude[1] - amplitude[0]) > tie:
            parities.append(int(amplitude[1] > amplitude[0]))
        else:
            parities.append(0 if ties is None else ties[axis])
    return PeriodicGrid(grid.n, tuple(size // 2 for size in grid.sizes)), tuple(parities)


def restrict(values: np.ndarray, parities: tuple[int, ...]) -> np.ndarray:
    """The samples of a field at the points 2j + parity of every axis,
    the field on the half grid (see `half_grid`)."""
    return np.ascontiguousarray(values[tuple(slice(p, None, 2) for p in parities)])


def prolong(values: np.ndarray, coarse: PeriodicGrid, fine: PeriodicGrid,
            parities: tuple[int, ...]) -> np.ndarray:
    """Trigonometric interpolant of a real field on `coarse`, sampled on
    `fine`, which has twice as many points on every axis; the inverse of
    `restrict`, so coarse sample j lands on fine point 2j + parity.

    The coarse half spectrum is zero-padded.  Each coarse Nyquist
    coefficient, whose one coarse mode stands for both wavenumbers
    +-N/2, is split evenly between them: on the last (real-to-complex)
    axis that halves the Nyquist slice, whose -N/2 partner is implied.
    The result is real; rolling it by the parities puts the coarse
    samples back where `restrict` took them.
    """
    if fine.n != coarse.n or fine.sizes != tuple(2 * s for s in coarse.sizes):
        raise ShapeError(f"grid {fine.sizes} is not grid {coarse.sizes} "
                         "refined by 2 on every axis")
    spec = coarse.fft(values)
    ndim = len(coarse.sizes)
    for axis, size in enumerate(coarse.sizes[:-1], start=-ndim):
        half = size // 2
        low, nyquist, high = np.split(spec, [half, half + 1], axis=axis)
        pad = list(spec.shape)
        pad[axis] = size - 1
        spec = np.concatenate([low, 0.5 * nyquist, np.zeros(pad, dtype=complex),
                               0.5 * nyquist, high], axis=axis)
    spec[..., coarse.sizes[-1] // 2] *= 0.5
    pad = [(0, 0)] * spec.ndim
    pad[-1] = (0, fine.half_shape[-1] - spec.shape[-1])
    return np.roll(fine.ifft(np.pad(spec, pad)), parities, axis=tuple(range(ndim)))


def rms_norm(values: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(values) ** 2)))


def sup_norm(values: np.ndarray) -> float:
    return float(np.abs(values).max())


def euclid_mean_zero(values: np.ndarray) -> np.ndarray:
    return values - values.mean()


def make_trig_field(grid: PeriodicGrid, terms) -> ScalarField:
    """Build sum_i a_i cos(k_i . x + phase_i) from (a, k, phase) terms.

    Each term is (amplitude, wavevector, phase) with the wavevector an
    integer tuple over the 2n real axes.  This is the seed format shared
    by configs, tests and refinement oracles: the same terms can be
    evaluated on any resolution.
    """
    coords = grid.coordinates()
    values = np.zeros(grid.shape)
    for amplitude, wavevector, phase in terms:
        wavevector = tuple(_integer(w, "wavevector component") for w in wavevector)
        if len(wavevector) != len(grid.sizes):
            raise ShapeError(
                f"wavevector {wavevector} must have {len(grid.sizes)} components"
            )
        arg = np.zeros(grid.shape)
        for a, w in enumerate(wavevector):
            if w:
                arg = arg + w * coords[a]
        values = values + float(amplitude) * np.cos(arg + float(phase))
    return ScalarField(grid, values)


def random_trig_terms(rng: np.random.Generator, naxes: int, *, amplitude: float,
                      kmax: int = 2) -> list[tuple[float, tuple[int, ...], float]]:
    """_RANDOM_TERMS random smooth-field seed terms with |k_a| <= kmax per axis.

    Amplitudes are scaled so the summed field has sup-norm of order
    `amplitude`.  Wavevectors avoid zero so every term is mean-free.
    """
    terms = []
    for _ in range(_RANDOM_TERMS):
        while True:
            k = tuple(int(v) for v in rng.integers(-kmax, kmax + 1, size=naxes))
            if any(k):
                break
        a = float(rng.normal()) * amplitude / _RANDOM_TERMS
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        terms.append((a, k, phase))
    return terms


def random_smooth_field(grid: PeriodicGrid, rng: np.random.Generator, *,
                        amplitude: float = 1.0, kmax: int = 2) -> ScalarField:
    """Deterministic (seeded) smooth random field: a sum of _RANDOM_TERMS
    trig terms."""
    terms = random_trig_terms(rng, len(grid.sizes), amplitude=amplitude,
                              kmax=kmax)
    return make_trig_field(grid, terms)
