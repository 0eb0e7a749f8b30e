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
zero.  Both call scipy's compiled pocketfft extension directly, the
module that `scipy.fft.rfftn`/`irfftn` call, loaded by its file path,
which scipy's import spec gives, so that no scipy module at all (no
`scipy.fft`, nor the `scipy.special` it imports) is loaded; where scipy
lays that file out elsewhere, the extension is imported through
`scipy.fft`.  The coefficients are those of `scipy.fft`, bit for bit.
`scipy_version` reads the run manifest's scipy version from scipy's
`version.py` in the same way, by file path, once per process.

Every spectral derivative, flat solve and Sobolev weight goes through
one half-spectrum kernel, `PeriodicGrid.derivatives`: one forward
transform of the input, then, for each multiplier of a stack in turn,
its product with the input's spectrum and an inverse transform of that
one product into a real field.  No multi-field spectrum is formed.
`PeriodicGrid.fields` streams the same fields from a spectrum one at a
time, and `hessian_fields` streams the Hessian fields with their pairing
weights already applied, for `hessian_trace_spectrum` and the operator
handles.  A complex derivative
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

The Hessian stack's layout is the one layout of Hermitian matrix fields
in the package: the n diagonal entries, then Re and Im of entry (j, k)
for each pair j < k, all real.  A form's components, the inverse metric,
the Ricci components and every coefficient field of an operator are kept
in it.  `hermitian_stack` puts a complex matrix (field) into the layout,
`hessian_weights` holds the pairing weight of each entry (2 on each
off-diagonal part), `hessian_pairing` turns a constant matrix's stack S
into the coefficients of Re tr(S H) against the Hessian stack (a field
stack is never copied so: the kernels put the exact weights on the
Hessian fields instead), and `hermitian_matrix` assembles
the complex (n, n) view that `hessian` and the reports read.

The half grid, where the seed ladder and the two-grid Newton step
solve, has one owner here: `PeriodicGrid.half` builds it once per grid,
`half_grid` picks by one rule the points of each axis that a field keeps
there (the parities), `restrict` samples a field at those points, and
`prolong` interpolates a half-grid field back spectrally onto them.  No
other module holds a half-grid rule.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError, ShapeError, SolvabilityError

# pocketfft's normalisation codes: "forward" divides the forward
# transform by the number of points and leaves the inverse unscaled
_FORWARD_NORM = 2
_INVERSE_NORM = 0
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


def _scipy_file(*parts: str) -> Path:
    """The path of a file in the installed scipy package (a layout
    private to scipy), found from scipy's import spec without importing
    scipy."""
    return Path(importlib.util.find_spec("scipy").submodule_search_locations[0], *parts)


def _load_file(name: str, path: Path):
    """The module in the file at path, loaded by its file path and
    unregistered in sys.modules."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pocketfft_path() -> Path:
    """Where scipy keeps its compiled pocketfft extension."""
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    return _scipy_file("fft", "_pocketfft", f"pypocketfft{suffix}")


def _load_pocketfft():
    """scipy's pocketfft module and where it came from: the extension
    loaded by file path, or the module imported through `scipy.fft`
    when the file is absent."""
    path = _pocketfft_path()
    if not path.is_file():
        from scipy.fft._pocketfft import pypocketfft
        return pypocketfft, "scipy.fft._pocketfft"
    # the extension's init symbol is PyInit_pypocketfft, so it loads
    # under this name only
    return _load_file("pypocketfft", path), str(path)


@functools.cache
def scipy_version() -> str:
    """`scipy.__version__`, read from scipy's `version.py` by file path
    so that no scipy module is imported, or through `import scipy` when
    the file is absent; read once per process."""
    path = _scipy_file("version.py")
    if not path.is_file():
        import scipy
        return scipy.__version__
    return _load_file("scipy_version", path).version


_POCKETFFT, POCKETFFT_SOURCE = _load_pocketfft()


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
        Complex dimension, 1 or 2, stored as an int; a bool is refused.
    sizes:
        Points per real axis, one entry per axis in the order
        (x_1, y_1, ..., x_n, y_n).  Each size must be an even integer
        >= 4; an integral float counts as its integer.
    """

    n: int
    sizes: tuple[int, ...]

    def __post_init__(self):
        if isinstance(self.n, (bool, np.bool_)) or self.n not in (1, 2):
            raise DomainError(f"complex dimension must be 1 or 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
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

    @functools.cached_property
    def half(self) -> PeriodicGrid:
        """The grid with half as many points on every axis, built once for
        every half-grid transfer from this grid; DomainError unless every
        axis is a multiple of 4 of at least 8 (even halves of >= 4 points)."""
        for size in self.sizes:
            if size % 4:
                raise DomainError(f"grid axis {size} not a multiple of 4")
            if size < 8:
                raise DomainError(f"grid axis {size} below 8")
        return PeriodicGrid(self.n, tuple(size // 2 for size in self.sizes))

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
        if np.iscomplexobj(values):
            raise DomainError(f"fft takes real fields, got dtype {values.dtype}")
        return _POCKETFFT.r2c(np.asarray(values, dtype=float), self._axes, True,
                              _FORWARD_NORM, None, _WORKERS)

    def ifft(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse of `fft`: real fields from half spectra, written into
        out (a float array of the result's shape) when it is given."""
        if coeffs.shape[coeffs.ndim - len(self.sizes):] != self.half_shape:
            raise ShapeError(
                f"half-spectrum shape {coeffs.shape} does not end in {self.half_shape}")
        return _POCKETFFT.c2r(np.asarray(coeffs, dtype=complex), self._axes, self.sizes[-1],
                              False, _INVERSE_NORM, out, _WORKERS)

    @functools.cached_property
    def _axes(self) -> tuple[int, ...]:
        return tuple(range(-len(self.sizes), 0))

    # -- half-spectrum derivative kernel -----------------------------------

    def derivatives(self, values: np.ndarray, mults: np.ndarray) -> np.ndarray:
        """The derivative kernel: the real field ifft(fft(values) * m) for
        every multiplier m of the half-spectrum stack mults (or for the
        single half-spectrum multiplier mults).  One forward transform;
        each product is then formed and inverse-transformed in turn, into
        its row of the output stack."""
        if values.shape != self.shape:
            raise ShapeError(f"field shape {values.shape} does not match grid {self.shape}")
        vhat = self.fft(values)
        if mults.ndim == len(self.sizes):
            return self.ifft(vhat * mults)
        out = np.empty((len(mults),) + self.shape)
        for mult, row in zip(mults, out):
            self.ifft(vhat * mult, row)
        return out

    # -- the two derivative stacks ----------------------------------------

    def _wavenumbers(self) -> list[np.ndarray]:
        """Full integer wavenumbers 0, 1, ..., N/2 - 1, -N/2, ..., -1 in
        float, one broadcastable array per real axis: fftfreq's order,
        exact at every size."""
        ndim = len(self.sizes)
        out = []
        for a, s in enumerate(self.sizes):
            k = np.arange(s, dtype=float)
            k[s // 2:] -= s
            out.append(k.reshape(_axis_shape(s, a, ndim)))
        return out

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

    @functools.cached_property
    def hessian_weights(self) -> tuple[float, ...]:
        """The pairing weight of each Hessian-stack entry, the one place
        it is written: 1 on the n diagonal entries and 2 on each
        off-diagonal part, since Re tr(S H) sums
        S_jk H_kj + S_kj H_jk = 2 (Re S_jk Re H_jk + Im S_jk Im H_jk)
        over every pair j < k."""
        return (1.0,) * self.n + (2.0,) * (self.n * self.n - self.n)

    def hessian_pairing(self, stack: np.ndarray) -> np.ndarray:
        """Real coefficients c with Re tr(S H) = sum_i c_i h_i, for S the
        Hermitian matrix with Hessian-stack layout `stack`, h the
        Hessian stack of a real field and H its complex Hessian: the
        stack times its `hessian_weights`."""
        weights = np.reshape(self.hessian_weights, (-1,) + (1,) * (stack.ndim - 1))
        return stack * weights

    def fields(self, vhat: np.ndarray, mults: np.ndarray,
               out: np.ndarray | None = None) -> Iterator[np.ndarray]:
        """The real field ifft(vhat * m) for each multiplier m of the stack
        mults, yielded in turn: written into its row of out when out is
        given, else into one buffer, which the next field overwrites."""
        rows = itertools.repeat(np.empty(self.shape)) if out is None else out
        for mult, row in zip(mults, rows):
            yield self.ifft(vhat * mult, row)

    def hessian_fields(self, vhat: np.ndarray) -> Iterator[np.ndarray]:
        """The Hessian fields of the field with half spectrum vhat, in
        stack order and streamed through one buffer (`fields`), each
        times its `hessian_weights` entry: the weight goes on the field
        instead of on a `hessian_pairing` copy of a coefficient stack,
        which is exact, since doubling is."""
        for weight, field in zip(self.hessian_weights, self.fields(vhat, self.hessian_stack)):
            if weight != 1.0:
                field *= weight
            yield field

    def hessian_trace(self, stack: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Re tr(S H) for S the Hermitian stack (field) `stack` and H the
        complex Hessian of values."""
        return self.hessian_trace_spectrum(stack, self.fft(values))

    def hessian_trace_spectrum(self, stack: np.ndarray, vhat: np.ndarray) -> np.ndarray:
        """`hessian_trace` of the field with half spectrum vhat: the
        weighted `hessian_fields`, each added into the sum as soon as it
        exists, in stack order."""
        out = np.zeros(self.shape)
        for coeff, field in zip(stack, self.hessian_fields(vhat)):
            out += coeff * field
        return out

    def hessian_symbol(self, S: np.ndarray) -> np.ndarray:
        """Real half-spectrum multiplier of the constant-coefficient
        operator v -> Re tr(S H) for a constant n x n matrix S, H the
        complex Hessian of v: the `hessian_pairing` of S's Hermitian
        part against the Hessian stack, which is real on every mode not
        touching a Nyquist wavenumber.  Keeping the real part keeps the
        self-adjoint part of the operator there."""
        pairing = self.hessian_pairing(hermitian_stack(S))
        return np.einsum("i,i...->...", pairing, self.hessian_stack).real


@dataclass(frozen=True)
class ScalarField:
    """Real scalar samples on a periodic grid."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.values):
            raise DomainError(f"scalar field samples must be real, got dtype "
                              f"{np.asarray(self.values).dtype}")
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.shape:
            raise ShapeError(
                f"field shape {values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise DomainError("field contains non-finite samples")
        object.__setattr__(self, "values", values)


def hermitian_stack(matrix: np.ndarray) -> np.ndarray:
    """Hessian-stack layout of the Hermitian part of an (n, n) matrix, or
    of an (n, n) + shape matrix field: the n diagonal entries, then Re
    and Im of entry (j, k) for each pair j < k.  Real, with leading
    length n * n."""
    n = matrix.shape[0]
    parts = [matrix[j, j].real for j in range(n)]
    for j, k in _pairs(n):
        parts.append(0.5 * (matrix[j, k].real + matrix[k, j].real))
        parts.append(0.5 * (matrix[j, k].imag - matrix[k, j].imag))
    return np.stack(parts)


def hermitian_matrix(stack: np.ndarray) -> np.ndarray:
    """The complex (n, n) + shape Hermitian matrix field whose Hessian-stack
    layout is stack; the inverse of `hermitian_stack` on Hermitian input.
    A view assembled on demand: nothing on the hot path calls it."""
    n = math.isqrt(len(stack))
    out = np.empty((n, n) + stack.shape[1:], dtype=complex)
    for j in range(n):
        out[j, j] = stack[j]
    for i, (j, k) in enumerate(_pairs(n)):
        re, im = stack[n + 2 * i], stack[n + 2 * i + 1]
        out[j, k] = re + 1j * im
        out[k, j] = re - 1j * im
    return out


def hessian(grid: PeriodicGrid, values: np.ndarray) -> np.ndarray:
    """Complex Hessian H[j, k] = d/dz_j d/dzbar_k applied to values.

    Output has shape (n, n) + grid.shape and is pointwise Hermitian for
    real input: the view `hermitian_matrix` of the Hessian stack.
    """
    return hermitian_matrix(grid.derivatives(values, grid.hessian_stack))


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


def _check_positive_definite(matrix: np.ndarray, what: str) -> np.ndarray:
    eigs = np.linalg.eigvalsh(matrix)
    if eigs.min() <= 0.0:
        raise DomainError(f"{what} must be positive definite, eigenvalues {eigs}")
    return matrix


def _check_hermitian_matrix(g0: np.ndarray, n: int, what: str) -> np.ndarray:
    return _check_positive_definite(_check_hermitian(g0, n, what), what)


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


def half_grid(grid: PeriodicGrid, values: np.ndarray) -> tuple[PeriodicGrid, tuple[int, ...]]:
    """The half grid `grid.half`, and per axis the parity of the points
    (0 even, 1 odd) that `restrict` keeps there.

    The kept points are those whose samples see more of the field's
    energy at the half grid's Nyquist wavenumber N/4, measured by the
    alternating sums over them.  Sampling the even points sees the
    cosine phase of that mode and the odd points its sine phase, so the
    choice follows a translation of the field by one grid step.  Where
    the two amplitudes agree to _PARITY_ROUND_OFF times the field's sup,
    as on an axis where a low-mode field has no energy at N/4, the axis
    keeps the parity of the field's peak (its first maximum), which a
    translation moves too.
    """
    tie = _PARITY_ROUND_OFF * float(np.abs(values).max())
    peak = np.unravel_index(np.argmax(values), values.shape)
    parities = []
    for axis, size in enumerate(values.shape):
        pairs = np.moveaxis(values, axis, 0).reshape(size // 2, 2, -1)
        seen = np.einsum("j,jpr->pr", (-1.0) ** np.arange(size // 2), pairs)
        amplitude = np.sqrt(np.mean(seen ** 2, axis=1)) / (size // 2)
        tied = abs(amplitude[1] - amplitude[0]) <= tie
        parities.append(int(peak[axis]) % 2 if tied else int(amplitude[1] > amplitude[0]))
    return grid.half, tuple(parities)


def restrict(values: np.ndarray, parities: tuple[int, ...]) -> np.ndarray:
    """The samples of a field at the points 2j + parity of every axis,
    the field on the half grid (see `half_grid`)."""
    return np.ascontiguousarray(values[tuple(slice(p, None, 2) for p in parities)])


def prolong(values: np.ndarray, fine: PeriodicGrid, parities: tuple[int, ...]) -> np.ndarray:
    """Trigonometric interpolant of a real field on the half grid
    `fine.half`, sampled on `fine`; the inverse of `restrict`, so half-grid
    sample j lands on fine point 2j + parity.

    The coarse half spectrum is zero-padded.  Each coarse Nyquist
    coefficient, whose one coarse mode stands for both wavenumbers
    +-N/2, is split evenly between them: on the last (real-to-complex)
    axis that halves the Nyquist slice, whose -N/2 partner is implied.
    The result is real; rolling it by the parities puts the coarse
    samples back where `restrict` took them.
    """
    coarse = fine.half
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
