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
  two agree up to gradient terms that vanish at exact solutions.

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
symbol instead (`_closure_multiplier`).  This makes the dense matrix of F
self-adjoint in the volume-weighted inner product to round-off, keeps
its kernel exactly the constants, and leaves the symbol of the flat
operator exact on every mode.  The fourth-order kinds use the direct
pointwise contractions; their departures from exact symmetry live on
the same unresolved modes and stay at the level of the coefficient
tails, which Krylov solves never see on resolved data.

Operators are realised as handles that precompute, once, the real
coefficient fields of every Hermitian contraction from the structure's
Hermitian stacks, in real arithmetic (for instance P_11, P_22,
2 Re P_12 and 2 Im P_12 for the Laplacian g^{kj} H_jk against the
grid's Hessian stack, and the stacks of P Ric P, P alpha P and the twist
flux).  Each application is then one or two
rounds of the grid's half-spectrum derivative kernel with
real-arithmetic contractions in between.  The first round transforms
the input with the Hessian stack (fourth-order kinds) and the d/dzbar
stack (``twist`` and ``shifted``), and every first-order term reads the
d/dzbar fields: the twist flux, and the shifted kind's Re(d S, dbar phi).
The twist divergence pairs with d/dz, which for real fields is the
d/dzbar stack with its imaginary part negated.  Handles optionally project
their output to volume mean zero so Krylov iterations stay on the
subspace where the operators are definite; `quadratic_form` is the
volume average of u * apply(v).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RefusalError, ShapeError
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
    (`PeriodicGrid.hessian_symbol`).  A twist class that fails to be
    positive falls back to the metric class, which only changes the
    operator on these unresolved modes.
    """
    a0 = 0.5 * (alpha.base_matrix + alpha.base_matrix.conj().T)
    scale = float(np.max(np.abs(a0)))
    if scale == 0.0:
        return np.zeros(grid.half_shape)
    if float(np.linalg.eigvalsh(a0)[0]) <= 1e-12 * scale:
        a0 = np.asarray(g0, dtype=complex)
    p0 = np.linalg.inv(np.asarray(g0, dtype=complex))
    return np.where(grid.nyquist_mask, grid.hessian_symbol(p0 @ a0 @ p0), 0.0)


@dataclass(frozen=True)
class LinearOperatorHandle:
    """Reusable matrix-free operator at a fixed (K, alpha, R).

    ``R`` is ignored by the twist kind.  With ``mean_zero`` set, outputs
    are projected to mean zero against the volume form of K (inputs are
    untouched: every kind annihilates constants exactly).
    """

    kind: str
    K: KahlerStructure
    alpha: HermitianFormField
    R: float = 0.0
    mean_zero: bool = False
    _ctx: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown operator kind {self.kind!r}; expected one of {KINDS}")
        K = self.K
        P = K.inverse_stack
        grid = K.grid

        # first stage: one batched derivative of the input, contracted
        # pointwise with real coefficient fields; the fourth-order kinds
        # subtract a biLaplacian
        fourth = self.kind != "twist"
        weak = 1.0
        coeffs = []
        if fourth:
            pricp = stack_sandwich(P, K.ricci)
            if self.kind == "full_linearization":
                second = self.R * stack_sandwich(P, self.alpha.stack) - pricp
                weak = 0.0
            else:  # shifted
                second = -pricp
                weak = self.R
            coeffs.append(grid.hessian_pairing(second))
        if self.kind == "shifted":
            # Re sum_k g^{kj} d_j f * conj(d_k phi) with conj(d_k phi) =
            # d_{zbar_k} phi, phi's first-order stack as (Re, Im): the
            # coefficients are conj(P d f) = P^T d/dzbar f
            dzbar = grid.derivatives(-K.scalar, grid.dzbar_stack)
            coeffs.append(stack_matvec(stack_conj(P), dzbar))
        mults = [grid.hessian_stack] if fourth else []
        if self.kind != "full_linearization":
            mults.append(grid.dzbar_stack)
        self._ctx["mults"] = mults[0] if len(mults) == 1 else np.concatenate(mults)
        self._ctx["coeffs"] = np.concatenate(coeffs) if coeffs else None
        self._ctx["fourth"] = fourth
        self._ctx["weak"] = weak
        if fourth:
            self._ctx["lap"] = grid.hessian_pairing(P)
        if weak:
            # flux G_l = det(g) sum_m Q[l, m] d_{zbar_m} phi with
            # Q = (P alpha P)^T, kept as its stack
            self._ctx["flux"] = self.weight * stack_conj(stack_sandwich(P, self.alpha.stack))
            self._ctx["closure"] = _closure_multiplier(grid, K.base_matrix, self.alpha)

    @property
    def grid(self) -> PeriodicGrid:
        return self.K.grid

    @property
    def weight(self) -> np.ndarray:
        return self.K.weight

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Operator action; see the module docstring for the kinds.

        The twist part comes from its quadratic form: with the flux
        G_l = det(g) * sum_k alpha(xi, .)_k conj(g^{l kbar}), the output
        is (1/det g) * Re sum_l d_{z_l} G_l plus the closure term, and
        summation by parts against the masked multipliers is exact, so
        the induced bilinear form is symmetric to round-off.  The
        biLaplacian and the twist divergence share one second batched
        transform.
        """
        grid = self.grid
        ctx = self._ctx
        if np.iscomplexobj(values):
            raise DomainError(f"operators act on real fields, got dtype "
                              f"{np.asarray(values).dtype}")
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ShapeError(f"field shape {values.shape} does not match grid {grid.shape}")
        vhat = grid.fft(values)
        fields = grid.ifft(vhat * ctx["mults"])
        coeffs = ctx["coeffs"]
        out = 0.0 if coeffs is None else np.einsum("i...,i...->...", coeffs,
                                                     fields[:len(coeffs)])
        # every kind has a biLaplacian or a twist divergence, or both
        fourth = ctx["fourth"]
        weak = ctx["weak"]
        n = grid.n
        nh = len(ctx["lap"]) if fourth else 0
        staged = []
        if fourth:
            staged.append(np.einsum("i...,i...->...", ctx["lap"], fields[:nh])[None])
        if weak:
            # flux A + iB = Q (Re + i Im) of the dzbar stack, in real arithmetic;
            # d/dz_l is the dzbar stack with Im negated, so
            # sum_l Re d_{z_l} A_l - Im d_{z_l} B_l is one pairing of (A, B)
            # with the dzbar stack
            staged.append(stack_matvec(ctx["flux"], fields[-2 * n:]))
        del fields
        hats = grid.fft(np.concatenate(staged))
        spec = np.empty((nh + (1 if weak else 0),) + hats.shape[1:], dtype=complex)
        if fourth:
            np.multiply(hats[0], grid.hessian_stack, out=spec[:nh])
        if weak:
            spec[-1] = ctx["closure"] * vhat + np.einsum(
                "a...,a...->...", grid.dzbar_stack, hats[-2 * n:])
        back = grid.ifft(spec)
        if fourth:
            out = out - np.einsum("i...,i...->...", ctx["lap"], back[:nh])
        if weak:
            out = out + weak * (back[-1] / self.weight)
        if self.mean_zero:
            out = volume_mean_zero(self.K, out)
        return out

    def quadratic_form(self, u: np.ndarray, v: np.ndarray | None = None) -> float:
        """Volume-weighted bilinear form: the volume average of u * apply(v)."""
        return volume_average(self.K, u * self.apply(u if v is None else v))


def dense_assemble(handle: LinearOperatorHandle) -> np.ndarray:
    """Dense matrix of the handle in the point basis (small grids only)."""
    npts = handle.grid.npoints
    if npts > DENSE_POINT_CAP:
        raise RefusalError(
            f"dense assembly refused: {npts} grid points exceeds cap {DENSE_POINT_CAP}"
        )
    shape = handle.grid.shape
    mat = np.empty((npts, npts))
    basis = np.zeros(npts)
    for p in range(npts):
        basis[p] = 1.0
        mat[:, p] = handle.apply(basis.reshape(shape)).ravel()
        basis[p] = 0.0
    return mat
