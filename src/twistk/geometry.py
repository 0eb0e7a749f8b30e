"""Kahler structures on flat tori: forms, metrics, curvature and pairings.

Every closed real (1,1)-form on a flat torus is a constant Hermitian
class matrix plus the complex Hessian of a real potential, and
`HermitianFormField` stores it as that pair, with the pointwise
components derived once.  A Kahler metric is the positive case:
`KahlerStructure` is a form whose class matrix g0 and components

    g_{j kbar} = g0_{j kbar} + d/dz_j d/dzbar_k phi

are positive definite, with its pointwise algebra (det g, inverse and
Ricci curvature) held as attributes; the components themselves and
log det g, which no solve reads, and the scalar curvature, one trace of
the held fields, are computed on each read.  The volume form weights
the uniform quadrature by det g; `volume_average`, `volume_mean_zero`
and `volume_rms` are the volume products the solvers and operators use.
A form checks its class matrix Hermitian and a structure checks it
positive definite, once, at construction; `class_trace` evaluates the
twist constant c from two class matrices and checks them no further.

Layout: every Hermitian (1,1)-field is stored real, in the layout of
the grid's Hessian stack (`PeriodicGrid.hessian_stack`): the n diagonal
entries G[j, j], then Re G[j, k] and Im G[j, k] for each pair j < k,
so one real field at n = 1 and four at n = 2, [G11, G22, Re G12,
Im G12].  The form's `stack`, the structure's `inverse_stack` and
`ricci` are such stacks, and so are the coefficient fields operator
handles precompute.  Pointwise algebra on stacks (determinant, smallest
eigenvalue, inverse, the sandwich P A P, the product of a matrix field
with a vector field, traces) is written in closed form for n in {1, 2},
in real arithmetic.  The complex (n, n) + shape arrays `comps` and
`inverse` are views, assembled on demand by `grid.hermitian_matrix` and
never cached; only reports, oracles and tests read them.

Index conventions: for a Hermitian matrix field G the inverse tensor is
g^{j kbar} = (G^{-1})[k, j], so the Laplacian g^{jk} f_{jk} is the
pointwise trace tr(G^{-1} Hess f), the trace of a (1,1)-form alpha is
tr(G^{-1} A), and the form pairing (alpha, beta) is tr(P A P B) with
P = G^{-1}.  With these choices (omega, i d dbar phi) equals the
Laplacian of phi identically.  `inverse_stack` is the layout of
P = G^{-1} itself, so g^{1 2bar} = P[1, 0] is the conjugate of its
(Re, Im) pair.

Gradient pairings (d f, dbar h) take the real part of the Hermitian
contraction g^{jk} (d_j f)(d_kbar h); the operator identities consumed
downstream are exactly the real parts of their complex counterparts.
Gradients are carried as the (Re, Im) halves of d/dzbar, the grid's
first-order stack (`PeriodicGrid.dzbar_stack`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMetricError, DomainError, ShapeError
from .grid import (
    PeriodicGrid,
    ScalarField,
    _check_hermitian,
    _check_positive_definite,
    hermitian_matrix,
    hermitian_stack,
)


def stack_det(s: np.ndarray) -> np.ndarray:
    """Pointwise determinant of the Hermitian stack s."""
    if len(s) == 1:
        return s[0]
    return s[0] * s[1] - (s[2] * s[2] + s[3] * s[3])


def stack_min_eigenvalue(s: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Pointwise smallest eigenvalue of the Hermitian stack s, from its
    trace and its pointwise determinant det."""
    if len(s) == 1:
        return det
    tr = s[0] + s[1]
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return 0.5 * (tr - disc)


def stack_inverse(s: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Stack of the pointwise inverse of the Hermitian stack s with
    determinant det: the adjugate over det."""
    if len(s) == 1:
        return (1.0 / det)[None]
    return np.stack([s[1] / det, s[0] / det, -s[2] / det, -s[3] / det])


def stack_conj(s: np.ndarray) -> np.ndarray:
    """Stack of the conjugate (the transpose) of the Hermitian stack s."""
    if len(s) == 1:
        return s
    return np.concatenate([s[:3], -s[3:]])


def stack_sandwich(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Stack of the pointwise product P A P of two Hermitian stacks."""
    if len(p) == 1:
        return (p * a) * p
    p0, p1, qr, qi = p
    a0, a1, br, bi = a
    # with P = [[p0, q], [conj q, p1]] and A = [[a0, b], [conj b, a1]]:
    # (PAP)_jj = a0 |P_j0|^2 + 2 P_jj Re(b conj q) + a1 |P_j1|^2 and
    # (PAP)_01 = q (a0 p0 + a1 p1) + b p0 p1 + conj(b) q^2
    cross = 2.0 * (br * qr + bi * qi)
    qq = qr * qr + qi * qi
    q2r = qr * qr - qi * qi
    q2i = 2.0 * qr * qi
    u = a0 * p0 + a1 * p1
    pp = p0 * p1
    return np.stack([a0 * p0 * p0 + p0 * cross + a1 * qq,
                     a0 * qq + p1 * cross + a1 * p1 * p1,
                     qr * u + pp * br + br * q2r + bi * q2i,
                     qi * u + pp * bi + br * q2i - bi * q2r])


def stack_matvec(m: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Product M v of a Hermitian stack with a complex vector field, both
    as real parts: v is (Re v_1..Re v_n, Im v_1..Im v_n), the layout of
    the grid's first-order stack, and so is the result, written into out
    when it is given, one component at a time and in place."""
    if out is None:
        out = np.empty(v.shape)
    if len(m) == 1:
        return np.multiply(m, v, out=out)
    m0, m1, mr, mi = m
    v0r, v1r, v0i, v1i = v
    # each component is its first product, then the signed products
    # added to it left to right: out[0] = m0 v0r + mr v1r - mi v1i in
    # the order of that expression, formed in place through one scratch
    # field
    rows = (((m0, v0r), (np.add, mr, v1r), (np.subtract, mi, v1i)),
            ((mr, v0r), (np.add, mi, v0i), (np.add, m1, v1r)),
            ((m0, v0i), (np.add, mr, v1i), (np.add, mi, v1r)),
            ((mr, v0i), (np.subtract, mi, v0r), (np.add, m1, v1i)))
    scratch = np.empty(v.shape[1:])
    for row, ((a, x), *terms) in zip(out, rows):
        np.multiply(a, x, out=row)
        for op, b, y in terms:
            op(row, np.multiply(b, y, out=scratch), out=row)
    return out


def stack_trace(grid: PeriodicGrid, s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Pointwise Re tr(S H) of two Hermitian stacks (real for Hermitian
    S and H): the sum of s_i h_i in stack order, each h field times its
    `grid.hessian_weights` entry, which is exact."""
    out = np.zeros(grid.shape)
    for weight, si, hi in zip(grid.hessian_weights, s, h):
        out += si * (hi if weight == 1.0 else weight * hi)
    return out


@dataclass(frozen=True)
class HermitianFormField:
    """Closed real (1,1)-form: a class matrix plus i d dbar of a potential.

    On a flat torus every closed real (1,1)-form is a constant Hermitian
    matrix (its cohomology class) plus the complex Hessian of a real
    potential, so `base_matrix` and `potential` determine the form.  Its
    pointwise components are derived once, at construction, as the real
    `stack`: the class matrix in the Hessian-stack layout plus the
    Hessian stack of the potential.  `comps` is their complex view.
    """

    grid: PeriodicGrid
    base_matrix: np.ndarray
    potential: np.ndarray
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "stack", self._checked_stack())

    def _checked_stack(self) -> np.ndarray:
        """Check the class matrix Hermitian and the potential finite and
        on the grid, keep both as checked, and return the components'
        stack."""
        grid = self.grid
        matrix = _check_hermitian(self.base_matrix, grid.n, "class matrix of the form")
        pot = np.asarray(self.potential, dtype=float)
        if pot.shape != grid.shape:
            raise ShapeError(
                f"form potential shape {pot.shape} does not match grid {grid.shape}")
        if not np.isfinite(pot).all():
            raise DomainError("form potential contains non-finite samples")
        object.__setattr__(self, "base_matrix", matrix)
        object.__setattr__(self, "potential", pot)
        return self._component_stack()

    def _component_stack(self) -> np.ndarray:
        """The components' stack: the Hessian stack of the potential plus
        the class matrix's stack, added in place."""
        grid = self.grid
        stack = grid.derivatives(self.potential, grid.hessian_stack)
        stack += hermitian_stack(self.base_matrix).reshape((-1,) + (1,) * len(grid.sizes))
        return stack

    @classmethod
    def from_potential(cls, grid: PeriodicGrid, matrix: np.ndarray,
                       potential: np.ndarray | None = None) -> "HermitianFormField":
        """The form matrix + Hess(potential); None is the zero potential."""
        return cls(grid, matrix, np.zeros(grid.shape) if potential is None else potential)

    @property
    def comps(self) -> np.ndarray:
        """Complex components, shape (n, n) + grid.shape: a view of
        `stack` assembled on each call."""
        return hermitian_matrix(self.stack)

    def min_eigenvalue(self) -> float:
        stack = self.stack
        return float(stack_min_eigenvalue(stack, stack_det(stack)).min())


@dataclass(frozen=True)
class KahlerStructure(HermitianFormField):
    """Kahler metric: a closed (1,1)-form positive definite at every point.

    The class matrix, checked Hermitian once as the form's, must be positive
    definite, and construction fails with the offending grid point if the
    metric is not finite and positive definite everywhere.  A structure
    holds `potential`, the volume weight det g (`weight`) and the inverse
    (`inverse_stack`), fields set at construction, and `ricci`, a cached
    property computed on first use; every held field is real, a scalar
    field or a Hermitian stack.  The metric's own `stack` (so `comps` and
    `min_eigenvalue`), `log_det` and the scalar curvature `scalar` are
    computed on each read and not held: once the inverse is formed no
    solve reads the stack, only reports, oracles and tests do; only
    `ricci`, once, and `ricci_form` read `log_det`; and `scalar` is one
    pointwise trace of the held inverse and Ricci stacks, which a
    residual and a `shifted` handle build read once each.  A read of
    `stack` makes the kernel calls of construction, so it has their
    bits.
    """

    weight: np.ndarray = field(init=False, repr=False, compare=False)
    inverse_stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stack = self._checked_stack()
        _check_positive_definite(self.base_matrix, "class matrix g0")
        det = stack_det(stack)
        mineig = stack_min_eigenvalue(stack, det)
        # NaN fails every test; an infinite sample makes det infinite
        worst = float(mineig.min())
        if not (worst > 0.0 and det.max() < np.inf):
            at = int(mineig.argmin()) if not worst > 0.0 else int(det.argmax())
            value = float(mineig.flat[at])
            point = tuple(int(i) for i in np.unravel_index(at, self.grid.shape))
            raise DegenerateMetricError(
                f"metric is not {'positive definite' if value <= 0.0 else 'finite'}: "
                f"eigenvalue {value:.6e} at grid point {point}", point=point, eigenvalue=value)
        object.__setattr__(self, "weight", det)
        object.__setattr__(self, "inverse_stack", stack_inverse(stack, det))

    @property
    def stack(self) -> np.ndarray:
        """The metric's components as a Hermitian stack, computed on each
        read."""
        return self._component_stack()

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def inverse(self) -> np.ndarray:
        """Complex inverse matrix field, a view of `inverse_stack`
        assembled on each call."""
        return hermitian_matrix(self.inverse_stack)

    @property
    def log_det(self) -> np.ndarray:
        return np.log(self.weight)

    @functools.cached_property
    def ricci(self) -> np.ndarray:
        """Stack of the Ricci components -Hess(log det g)."""
        grid = self.grid
        stack = grid.derivatives(self.log_det, grid.hessian_stack)
        return np.negative(stack, out=stack)

    @property
    def scalar(self) -> np.ndarray:
        """Scalar curvature tr(P Ric), computed on each read from the
        cached Ricci stack."""
        return stack_trace(self.grid, self.inverse_stack, self.ricci)


def ricci_form(K: KahlerStructure) -> HermitianFormField:
    """Ricci form of the metric; i d dbar-exact on the torus.

    Zero class matrix and potential -log det g, so each component has
    exact grid mean zero.
    """
    return HermitianFormField(K.grid, np.zeros((K.n, K.n)), -K.log_det)


def scalar_curvature(K: KahlerStructure) -> ScalarField:
    return ScalarField(K.grid, K.scalar)


def trace_form(K: KahlerStructure, alpha: HermitianFormField) -> ScalarField:
    """Metric trace g^{jk} alpha_{jk} (real for Hermitian alpha)."""
    return ScalarField(K.grid, stack_trace(K.grid, K.inverse_stack, alpha.stack))


def laplacian(K: KahlerStructure, f: ScalarField) -> ScalarField:
    """Complex Laplacian g^{jk} d_j d_kbar f."""
    grid = K.grid
    return ScalarField(grid, grid.hessian_trace(K.inverse_stack, f.values))


def form_pairing(K: KahlerStructure, alpha: HermitianFormField,
                 beta: HermitianFormField) -> ScalarField:
    """Pointwise pairing (alpha, beta) = tr(P A P B), P the inverse metric.

    Real for Hermitian arguments; with alpha = omega it reduces to the
    metric trace of beta.
    """
    pap = stack_sandwich(K.inverse_stack, alpha.stack)
    return ScalarField(K.grid, stack_trace(K.grid, pap, beta.stack))


def gradient_pairing(K: KahlerStructure, f: ScalarField, h: ScalarField) -> ScalarField:
    """Real part of g^{jk} (d/dz_j f)(d/dzbar_k h).

    With U = d/dzbar f and V = d/dzbar h this is Re sum_k V_k conj((P^T U)_k),
    the real dot product of the (Re, Im) halves of P^T U and V.
    """
    grid = K.grid
    u = grid.derivatives(f.values, grid.dzbar_stack)
    v = grid.derivatives(h.values, grid.dzbar_stack)
    pu = stack_matvec(stack_conj(K.inverse_stack), u)
    return ScalarField(grid, np.einsum("i...,i...->...", pu, v))


def volume_average(K: KahlerStructure, f: ScalarField | np.ndarray) -> float:
    """Average of f against the volume form of K (uniform weights times det g)."""
    vals = f.values if isinstance(f, ScalarField) else np.asarray(f)
    w = K.weight
    return float(np.sum(vals * w) / np.sum(w))


def volume_mean_zero(K: KahlerStructure, f: ScalarField | np.ndarray) -> np.ndarray:
    """Project to mean zero with respect to the volume form of K."""
    vals = f.values if isinstance(f, ScalarField) else np.asarray(f)
    return vals - volume_average(K, vals)


def volume_rms(K: KahlerStructure, values: np.ndarray) -> float:
    """Root mean square of values against the volume form of K."""
    return math.sqrt(volume_average(K, values * values))


def class_trace(g0_omega: np.ndarray, g0_alpha: np.ndarray) -> float:
    """The twist constant c = tr(a0 g0^{-1}) of two class matrices.

    It is the trace of alpha's constant representative in omega's, so the
    volume mean of trace_K(alpha) for every K in the class of omega; the
    mean scalar curvature of a flat torus class is 0, so the equation's
    constant is 0 - R * c.  The matrices are taken as given: a form or a
    structure has checked its own.
    """
    return float(np.trace(g0_alpha @ np.linalg.inv(g0_omega)).real)
