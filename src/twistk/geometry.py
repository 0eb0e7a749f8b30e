"""Kahler structures on flat tori: forms, metrics, curvature and pairings.

Every closed real (1,1)-form on a flat torus is a constant Hermitian
class matrix plus the complex Hessian of a real potential, and
`HermitianFormField` stores it as that pair, with the pointwise
components derived once.  A Kahler metric is the positive case:
`KahlerStructure` is a form whose class matrix g0 and components

    g_{j kbar} = g0_{j kbar} + d/dz_j d/dzbar_k phi

are positive definite, with its pointwise algebra (det g, inverse,
Ricci and scalar curvature) cached.  The volume form weights the
uniform quadrature by det g; `volume_average`, `volume_mean_zero` and
`volume_rms` are the volume products the solvers and operators use.

Index conventions: for a Hermitian matrix field G the inverse tensor is
g^{j kbar} = (G^{-1})[k, j], so the Laplacian g^{jk} f_{jk} is the
pointwise trace tr(G^{-1} Hess f), the trace of a (1,1)-form alpha is
tr(G^{-1} A), and the form pairing (alpha, beta) is tr(P A P B) with
P = G^{-1}.  With these choices (omega, i d dbar phi) equals the
Laplacian of phi identically.

Gradient pairings (d f, dbar h) take the real part of the Hermitian
contraction g^{jk} (d_j f)(d_kbar h); the operator identities consumed
downstream are exactly the real parts of their complex counterparts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMetricError, ShapeError
from .grid import (
    PeriodicGrid,
    ScalarField,
    _check_hermitian,
    _check_hermitian_matrix,
    hessian,
    holo_gradient,
)


def _hermitian_min_eigenvalue(comps: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Pointwise smallest eigenvalue of a (n,n)+shape Hermitian field,
    from its trace and its pointwise determinant det."""
    if comps.shape[0] == 1:
        return det
    tr = (comps[0, 0] + comps[1, 1]).real
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return 0.5 * (tr - disc)


def _hermitian_det(comps: np.ndarray) -> np.ndarray:
    n = comps.shape[0]
    if n == 1:
        return comps[0, 0].real
    return (comps[0, 0] * comps[1, 1] - comps[0, 1] * comps[1, 0]).real


def _hermitian_inv(comps: np.ndarray, det: np.ndarray) -> np.ndarray:
    n = comps.shape[0]
    inv = np.empty_like(comps)
    if n == 1:
        inv[0, 0] = 1.0 / det
        return inv
    inv[0, 0] = comps[1, 1] / det
    inv[1, 1] = comps[0, 0] / det
    inv[0, 1] = -comps[0, 1] / det
    inv[1, 0] = -comps[1, 0] / det
    return inv


@dataclass(frozen=True)
class HermitianFormField:
    """Closed real (1,1)-form: a class matrix plus i d dbar of a potential.

    On a flat torus every closed real (1,1)-form is a constant Hermitian
    matrix (its cohomology class) plus the complex Hessian of a real
    potential, so `base_matrix` and `potential` determine the form.  Its
    pointwise components comps = base_matrix + Hess(potential) are
    derived once, at construction.
    """

    grid: PeriodicGrid
    base_matrix: np.ndarray
    potential: np.ndarray
    comps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.grid.n
        matrix = _check_hermitian(self.base_matrix, n, "class matrix of the form")
        pot = np.asarray(self.potential, dtype=float)
        if pot.shape != self.grid.shape:
            raise ShapeError(
                f"form potential shape {pot.shape} does not match grid {self.grid.shape}")
        comps = matrix.reshape((n, n) + (1,) * len(self.grid.sizes)) + hessian(self.grid, pot)
        object.__setattr__(self, "base_matrix", matrix)
        object.__setattr__(self, "potential", pot)
        object.__setattr__(self, "comps", comps)

    @classmethod
    def from_potential(cls, grid: PeriodicGrid, matrix: np.ndarray,
                       potential: np.ndarray | None = None) -> "HermitianFormField":
        """The form matrix + Hess(potential); None is the zero potential."""
        return cls(grid, matrix, np.zeros(grid.shape) if potential is None else potential)

    def min_eigenvalue(self) -> float:
        return float(_hermitian_min_eigenvalue(self.comps, _hermitian_det(self.comps)).min())


@dataclass(frozen=True)
class KahlerStructure(HermitianFormField):
    """Kahler metric: a closed (1,1)-form positive definite at every point.

    The class matrix must be positive definite, and construction fails
    with the offending grid point if comps is not positive definite
    everywhere.  The volume weight det g (`weight`) and the pointwise
    inverse are cached at construction, the Ricci and scalar curvature
    on first use.
    """

    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        _check_hermitian_matrix(self.base_matrix, self.grid.n, "class matrix g0")
        super().__post_init__()
        det = _hermitian_det(self.comps)
        mineig = _hermitian_min_eigenvalue(self.comps, det)
        worst = float(mineig.min())
        if worst <= 0.0:
            point = tuple(int(i) for i in np.unravel_index(int(mineig.argmin()), self.grid.shape))
            raise DegenerateMetricError(
                f"metric is not positive definite: eigenvalue {worst:.6e} at grid point {point}",
                point=point,
                eigenvalue=worst,
            )
        self._cache["weight"] = det
        self._cache["inv"] = _hermitian_inv(self.comps, det)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def inverse(self) -> np.ndarray:
        return self._cache["inv"]

    @property
    def weight(self) -> np.ndarray:
        """Volume weight per grid point (uniform quadrature times det g)."""
        return self._cache["weight"]

    def log_det(self) -> np.ndarray:
        if "logdet" not in self._cache:
            self._cache["logdet"] = np.log(self.weight)
        return self._cache["logdet"]

    def ricci(self) -> np.ndarray:
        """Ricci components -Hess(log det g), shape (n,n)+grid.shape."""
        if "ricci" not in self._cache:
            self._cache["ricci"] = -hessian(self.grid, self.log_det())
        return self._cache["ricci"]

    def scalar(self) -> np.ndarray:
        if "scalar" not in self._cache:
            self._cache["scalar"] = np.einsum(
                "kj...,jk...->...", self.inverse, self.ricci()
            ).real
        return self._cache["scalar"]


def ricci_form(K: KahlerStructure) -> HermitianFormField:
    """Ricci form of the metric; i d dbar-exact on the torus.

    Zero class matrix and potential -log det g, so each component has
    exact grid mean zero.
    """
    return HermitianFormField(K.grid, np.zeros((K.n, K.n)), -K.log_det())


def scalar_curvature(K: KahlerStructure) -> ScalarField:
    return ScalarField(K.grid, K.scalar())


def trace_form(K: KahlerStructure, alpha: HermitianFormField) -> ScalarField:
    """Metric trace g^{jk} alpha_{jk} (real for Hermitian alpha)."""
    vals = np.einsum("kj...,jk...->...", K.inverse, alpha.comps).real
    return ScalarField(K.grid, vals)


def laplacian(K: KahlerStructure, f: ScalarField) -> ScalarField:
    """Complex Laplacian g^{jk} d_j d_kbar f."""
    grid = K.grid
    return ScalarField(grid, grid.hessian_trace(grid.hessian_pairing(K.inverse), f.values))


def form_pairing(K: KahlerStructure, alpha: HermitianFormField,
                 beta: HermitianFormField) -> ScalarField:
    """Pointwise pairing (alpha, beta) = tr(P A P B), P the inverse metric.

    Real for Hermitian arguments; with alpha = omega it reduces to the
    metric trace of beta.
    """
    vals = np.einsum(
        "lj...,jk...,km...,ml...->...", K.inverse, alpha.comps, K.inverse, beta.comps
    ).real
    return ScalarField(K.grid, vals)


def gradient_pairing(K: KahlerStructure, f: ScalarField, h: ScalarField) -> ScalarField:
    """Real part of g^{jk} (d/dz_j f)(d/dzbar_k h)."""
    u = holo_gradient(K.grid, f.values)
    v = holo_gradient(K.grid, h.values)
    return ScalarField(K.grid, np.einsum("kj...,j...,k...->...", K.inverse, u, np.conj(v)).real)


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


@dataclass(frozen=True)
class CohomologyData:
    """Class-level invariants of the pair ([omega], [alpha]) on the torus.

    The mean scalar curvature is zero (flat torus classes) and the
    twist constant c is the trace of the constant representative of
    alpha against the constant representative of omega; the solved
    equation's right-hand side constant is sbar - R * c.
    """

    sbar: float
    c: float

    @classmethod
    def of_classes(cls, g0_omega: np.ndarray, g0_alpha: np.ndarray) -> "CohomologyData":
        n = np.asarray(g0_omega).shape[0]
        g0 = _check_hermitian_matrix(g0_omega, n, "class matrix g0_omega")
        a0 = _check_hermitian(g0_alpha, n, "class matrix g0_alpha")
        c = float(np.trace(a0 @ np.linalg.inv(g0)).real)
        return cls(sbar=0.0, c=c)
