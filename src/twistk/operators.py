"""Matrix-free linear operators attached to a Kahler structure.

Three kinds are provided, all acting on real potentials:

* ``twist``: phi -> (alpha, i d dbar phi) + Re(d tr(alpha), dbar phi),
  the second-order operator controlling twist corrections; self-adjoint
  with negative quadratic form and kernel exactly the constants.
* ``full_linearization``: the exact directional derivative of
  phi -> S(omega_phi) - R tr_{omega_phi}(alpha), namely
  -Lap^2 psi - (Ric, i d dbar psi) + R (alpha, i d dbar psi).
* ``shifted``: -lichnerowicz + R * twist, the self-adjoint model of the
  full linearization used for eigenvalue bounds and inner solves; the
  two agree up to gradient terms that vanish at exact solutions.  It is
  negative definite on mean-zero fields only for R >= 0, and its handle
  is the one place that checks this: it refuses R < 0 with
  PreconditionError.

The Lichnerowicz operator phi -> Lap^2 phi + (Ric, i d dbar phi) +
Re(d S, dbar phi), whose quadratic form is the squared norm of
dbar grad^{1,0} phi, is the negated ``shifted`` kind at R = 0 (the
twist form is then unused).

The twist kind is realised through its defining quadratic form

    sum_x psi * F(phi) * det(g) = -sum_x det(g) * alpha(xi_phi, conj xi_psi),

with xi_phi the (1,0)-gradient of phi, assembled so that discrete
summation by parts is exact: the grid's one first-order stack, d/dzbar
(`PeriodicGrid.dzbar_stack`), is zero on every mode that touches a
Nyquist wavenumber, and those modes (which sit below the resolution of
the discretisation) are closed with the frozen constant-coefficient
symbol instead (`_closure_multiplier`), built from the twist class: a
handle that carries the twist divergence (``twist``, and ``shifted`` at
R != 0) refuses a class that is not positive definite, as the paper
assumes alpha Kahler, with PreconditionError.  This makes the dense
matrix of F self-adjoint in the volume-weighted inner product to
round-off, keeps its kernel exactly the constants, and leaves the symbol
of the flat operator exact on every mode.  The fourth-order kinds use
the direct pointwise contractions; their departures from exact symmetry
live on the same unresolved modes and stay at the level of the
coefficient tails, which Krylov solves never see on resolved data.

Operators are realised as handles that hold, once, one real field per
term the kind has, in the Hessian stack's layout and real arithmetic,
and None for every term it lacks: the Hessian coefficients
`hessian_coeffs` (R P alpha P - P Ric P, or -P Ric P) and the
Laplacian's `lap`, which is the structure's own `inverse_stack` P (not a
copy), for the fourth-order kinds; the shifted kind's first-order
coefficients `gradient_coeffs`, of Re(d S, dbar phi); and the twist
divergence's flux `flux`, closure `closure` and weight `div_weight`.  No
handle holds a copy of the grid's derivative stacks.  An application
runs exactly the terms whose fields are set, in two rounds of the grid's
half-spectrum derivative kernel with real-arithmetic contractions in
between, and each round streams its fields: every product of a
spectrum with one multiplier is inverse-transformed on its own and added
into the round's sums as soon as it exists, in stack order, so no round
holds a multi-field spectrum or the real stack of its Hessian fields.
Both rounds take their Hessian fields from `PeriodicGrid.hessian_fields`,
which applies the pairing weights (doubling the off-diagonal entries) to
the fields, so the coefficient stacks are held unpaired; doubling is
exact in floating point.  The first round iterates the Hessian stack
(fourth-order kinds) and the d/dzbar stack (``twist`` and ``shifted``);
only the d/dzbar fields are kept, and only for the flux.  The second
round transforms the Laplacian sum and the flux forward, each on its
own, then streams the biLaplacian's Hessian fields
(`PeriodicGrid.hessian_trace_spectrum`) and transforms the twist
divergence back.  The twist divergence pairs with d/dz, which for real
fields is the d/dzbar stack with its imaginary part negated.  Handles
optionally project their output to volume mean zero so Krylov
iterations stay on the subspace where the operators are definite;
`quadratic_form` is the volume average of u * apply(v).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError, RefusalError, ShapeError
from .geometry import (
    HermitianFormField,
    KahlerStructure,
    stack_conj,
    stack_matvec,
    stack_sandwich,
    volume_average,
    volume_mean_zero,
)
from .grid import PeriodicGrid

DENSE_POINT_CAP = 4096

KINDS = ("twist", "full_linearization", "shifted")


def _closure_multiplier(grid: PeriodicGrid, g0: np.ndarray,
                        alpha: HermitianFormField) -> np.ndarray:
    """Half-spectrum frozen-coefficient twist symbol on Nyquist-touching
    modes, zero elsewhere.

    First-order multipliers vanish there by construction, so the weak
    form alone would put every such mode in the kernel; the constant
    coefficient symbol tr(P a0 P H), P = g0^{-1}, restores a strictly
    negative action on them.  It is a Hessian-stack pairing
    (`PeriodicGrid.hessian_symbol`).  The twist class a0 must be positive
    definite, as the paper assumes of alpha: PreconditionError otherwise.
    """
    a0 = 0.5 * (alpha.base_matrix + alpha.base_matrix.conj().T)
    eigs = np.linalg.eigvalsh(a0)
    if eigs[0] <= 1e-12 * float(np.max(np.abs(a0))):
        raise PreconditionError(
            f"the twist divergence needs a positive definite twist class, eigenvalues {eigs}")
    p0 = np.linalg.inv(np.asarray(g0, dtype=complex))
    return np.where(grid.nyquist_mask, grid.hessian_symbol(p0 @ a0 @ p0), 0.0)


@dataclass(frozen=True)
class LinearOperatorHandle:
    """Reusable matrix-free operator at a fixed (K, alpha, R).

    ``R`` is ignored by the twist kind and must be >= 0 for the shifted
    kind (PreconditionError).  With ``mean_zero`` set, outputs
    are projected to mean zero against the volume form of K (inputs are
    untouched: every kind annihilates constants exactly).  The other
    fields hold one term each, set once, at construction, and None (0.0
    for ``div_weight``) where the kind has no such term (see the module
    docstring): ``hessian_coeffs`` and ``lap``, which is
    ``K.inverse_stack`` itself, both unpaired stacks; ``gradient_coeffs``;
    and ``flux``, ``closure`` and ``div_weight``.
    """

    kind: str
    K: KahlerStructure
    alpha: HermitianFormField
    R: float = 0.0
    mean_zero: bool = False
    hessian_coeffs: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    lap: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    gradient_coeffs: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    flux: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    closure: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    div_weight: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown operator kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "shifted" and self.R < 0.0:
            raise PreconditionError(f"the shifted operator requires R >= 0, got {self.R}")
        K = self.K
        P = K.inverse_stack
        grid = K.grid
        put = functools.partial(object.__setattr__, self)
        if self.kind != "twist":
            # the fourth-order kinds: R P alpha P - P Ric P (full
            # linearization) or -P Ric P against the Hessian, and a
            # biLaplacian
            second = -stack_sandwich(P, K.ricci)
            if self.kind == "full_linearization":
                second += self.R * stack_sandwich(P, self.alpha.stack)
            put("hessian_coeffs", second)
            put("lap", P)
        if self.kind == "shifted":
            # Re sum_k g^{kj} d_j f * conj(d_k phi) with conj(d_k phi) =
            # d_{zbar_k} phi, phi's first-order stack as (Re, Im): the
            # coefficients are conj(P d f) = P^T d/dzbar f
            dzbar = grid.derivatives(-K.scalar, grid.dzbar_stack)
            put("gradient_coeffs", stack_matvec(stack_conj(P), dzbar))
        div_weight = 1.0 if self.kind == "twist" else self.R if self.kind == "shifted" else 0.0
        if div_weight:
            put("closure", _closure_multiplier(grid, K.base_matrix, self.alpha))
            # flux G_l = det(g) sum_m Q[l, m] d_{zbar_m} phi with
            # Q = (P alpha P)^T, kept as its stack
            put("flux", K.weight * stack_conj(stack_sandwich(P, self.alpha.stack)))
            put("div_weight", div_weight)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Operator action; see the module docstring for the kinds.

        The twist part comes from its quadratic form: with the flux
        G_l = det(g) * sum_k alpha(xi, .)_k conj(g^{l kbar}), the output
        is (1/det g) * Re sum_l d_{z_l} G_l plus the closure term, and
        summation by parts against the masked multipliers is exact, so
        the induced bilinear form is symmetric to round-off.
        """
        grid = self.K.grid
        if np.iscomplexobj(values):
            raise DomainError(f"operators act on real fields, got dtype "
                              f"{np.asarray(values).dtype}")
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ShapeError(f"field shape {values.shape} does not match grid {grid.shape}")
        # each del drops an array that nothing later reads, so that the
        # next stage does not hold it beside its own; a loop binding would
        # keep a field buffer, or the d/dzbar fields, alive
        vhat = grid.fft(values)
        out = 0.0
        if self.lap is not None:
            # the Hessian coefficients' term, and the Laplacian that the
            # biLaplacian transforms again
            out, lap_sum = np.zeros(grid.shape), np.zeros(grid.shape)
            for i, hess in enumerate(grid.hessian_fields(vhat)):
                out += self.hessian_coeffs[i] * hess
                lap_sum += self.lap[i] * hess
            del hess
        if self.gradient_coeffs is not None or self.flux is not None:
            # the d/dzbar fields: kept for the flux, else streamed
            grads = None if self.flux is None else np.empty((2 * grid.n,) + grid.shape)
            for i, grad in enumerate(grid.fields(vhat, grid.dzbar_stack, grads)):
                if self.gradient_coeffs is not None:
                    out += self.gradient_coeffs[i] * grad
            del grad
        # the closure acts on the input's spectrum, which nothing else
        # reads now
        div_hat = None if self.flux is None else self.closure * vhat
        del vhat
        if self.flux is not None:
            # the flux A + iB = Q (Re + i Im) of the dzbar fields, in real
            # arithmetic; d/dz_l is the dzbar stack with Im negated, so
            # sum_l Re d_{z_l} A_l - Im d_{z_l} B_l is one pairing of
            # (A, B) with the dzbar stack
            flux = stack_matvec(self.flux, grads)
            del grads
            div_hat += np.einsum("a...,a...->...", grid.dzbar_stack, grid.fft(flux))
        if self.lap is not None:
            lap_hat = grid.fft(lap_sum)
            del lap_sum
            out -= grid.hessian_trace_spectrum(self.lap, lap_hat)
        if self.flux is not None:
            out = out + self.div_weight * (grid.ifft(div_hat) / self.K.weight)
        if self.mean_zero:
            out = volume_mean_zero(self.K, out)
        return out

    def quadratic_form(self, u: np.ndarray, v: np.ndarray | None = None) -> float:
        """Volume-weighted bilinear form: the volume average of u * apply(v)."""
        return volume_average(self.K, u * self.apply(u if v is None else v))


def dense_assemble(handle: LinearOperatorHandle) -> np.ndarray:
    """Dense matrix of the handle in the point basis (small grids only)."""
    grid = handle.K.grid
    npts = grid.npoints
    if npts > DENSE_POINT_CAP:
        raise RefusalError(
            f"dense assembly refused: {npts} grid points exceeds cap {DENSE_POINT_CAP}"
        )
    mat = np.empty((npts, npts))
    basis = np.zeros(npts)
    for p in range(npts):
        basis[p] = 1.0
        mat[:, p] = handle.apply(basis.reshape(grid.shape)).ravel()
        basis[p] = 0.0
    return mat
