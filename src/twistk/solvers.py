"""Matrix-free elliptic solves, eigenvalue and operator-norm estimates.

All variable-coefficient solves run on the subspace of fields with mean
zero against the volume form of the ambient Kahler structure, where the
relevant operators are definite; the projection and the norms are the
volume products of `geometry` (`volume_mean_zero`, `volume_rms`).
Symmetric solves use conjugate gradients in the volume-weighted inner
product with a flat spectral preconditioner, weighted by powers of
det g on both sides so that it stays self-adjoint in that inner product
and matches the operator's leading coefficients (`_spd_preconditioner`).
The non-symmetric Newton linearization is solved with right-preconditioned
restarted GMRES in the same inner product (`_gmres`): one operator and one
preconditioner application per iteration, and one more operator
application that certifies the true residual.  The extreme eigenvalue of the shifted
operator comes from a preconditioned Davidson iteration: one operator
application and one flat preconditioner application per step, with no
inner solves.

Preconditioner symbols come from freezing coefficients at the constant
class representatives, and the operator's order picks one: the flat
Laplacian for the second-order solves (`green_solve`, `solve_F`) and the
flat biLaplacian-shift L0^2 - R*L0 for every fourth-order operator at
weight R (`solve_shifted`, `newton_linear_solve`, `extreme_eigenvalue`).
The only settings are SolverConfig's two tolerances: the Newton
residual target, which `engine` reads, and the Krylov one.  Iteration
caps are module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IterationLimitError, PreconditionError, SolvabilityError
from .geometry import (
    HermitianFormField,
    KahlerStructure,
    trace_form,
    volume_average,
    volume_mean_zero,
    volume_rms,
)
from .grid import ScalarField, flat_laplacian_symbol, inverse_symbol, sobolev_weight
from .operators import LinearOperatorHandle


@dataclass(frozen=True)
class SolverConfig:
    """The tolerances of every solve: newton_tol, the residual sup that
    `engine.newton_solve` accepts, and krylov_tol, the relative residual
    target of one CG or GMRES solve in the volume-weighted RMS norm.
    Both lie in (0, 1); DomainError otherwise."""

    newton_tol: float = 1e-9
    krylov_tol: float = 1e-10

    def __post_init__(self):
        for name in ("newton_tol", "krylov_tol"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise DomainError(f"{name} must lie in (0, 1), got {value}")


@dataclass(frozen=True)
class EigenEstimate:
    """Eigenvalue estimate with its certified residual."""

    value: float
    residual: float
    iterations: int
    vector: ScalarField


# iteration cap of one CG or GMRES solve
_KRYLOV_MAXITER = 2000
# GMRES cycle length: it bounds the Krylov basis kept in memory
_GMRES_RESTART = 50
# Davidson basis cap, the Ritz vectors kept when it is reached, and the
# restarts allowed
_DAVIDSON_CAP = 24
_DAVIDSON_KEEP = 4
_DAVIDSON_RESTARTS = 100
# a correction this small against its own size after orthogonalisation
# is round-off, not a new direction
_STAGNATION = 1e-12
# certified eigenpair residual of `extreme_eigenvalue`, relative to
# max(1, |lambda|)
_EIGEN_RESIDUAL_TOL = 1e-8
# `inverse_norm_estimate`: the Sobolev order s of the target norm and
# the number of power iterations
_INVERSE_NORM_ORDER = 4.0
_INVERSE_NORM_ITERATIONS = 12


def _spd_preconditioner(K: KahlerStructure, R: float | None):
    """Approximate inverse of the negated operator, self-adjoint and
    positive in the volume-weighted inner product.

    R None gives the second-order symbol S = -L0; a weight R gives the
    fourth-order S = L0^2 - R*L0.  The map is r -> a S^-1(w a r) with
    w = det g, a = 1 for the second order and a = sqrt(w) for the
    fourth: in the coordinates y = sqrt(w) v it is D S^-1 D with
    D = w^(k/2) for an operator of order 2k.  Where the operator's
    coefficients are w^-k times the flat ones (Lap_omega = Lap_0 / det g
    at n = 1, up to the constant det g0), the second-order map is its
    exact inverse and the fourth-order one inverts its frozen principal
    symbol.
    """
    grid = K.grid
    L0 = flat_laplacian_symbol(grid, K.base_matrix)
    symbol = -L0 if R is None else L0 * L0 - R * L0
    inv_mult = inverse_symbol(symbol)
    w = K.weight
    outer = None if R is None else np.sqrt(w)
    inner = w if outer is None else w * outer

    def apply(r: np.ndarray) -> np.ndarray:
        z = grid.derivatives(inner * r, inv_mult)
        return volume_mean_zero(K, z if outer is None else outer * z)

    return apply


def _pcg(apply_A, b: np.ndarray, K: KahlerStructure, tol: float, apply_M,
         what: str):
    """Preconditioned CG in the volume-weighted inner product.

    apply_A must be self-adjoint positive definite on the volume-mean-zero
    subspace with respect to <u, v> = sum(u v det g); apply_M is the
    approximate inverse of `_spd_preconditioner`; tol is the relative
    residual target, and _KRYLOV_MAXITER caps the iterations.
    """
    w = K.weight

    def dot(u, v):
        return float(np.sum(u * v * w))

    b = volume_mean_zero(K, b)
    bnorm = volume_rms(K, b)

    def residual(x):
        return volume_mean_zero(K, b - apply_A(x))

    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, {"iterations": 0, "residual": 0.0, "history": []}
    r = b.copy()
    z = apply_M(r)
    p = z.copy()
    rz = dot(r, z)
    history: list[float] = []
    for i in range(1, _KRYLOV_MAXITER + 1):
        Ap = apply_A(p)
        pAp = dot(p, Ap)
        if pAp <= 0.0:
            raise IterationLimitError(
                f"{what}: conjugate gradients met a non-positive curvature direction "
                f"(operator not positive definite on the subspace)", history)
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        if i % 50 == 0:
            r = residual(x)
        res = volume_rms(K, r) / bnorm
        history.append(res)
        if res <= tol:
            true_res = volume_rms(K, residual(x)) / bnorm
            if true_res <= 10.0 * tol:
                return volume_mean_zero(K, x), {"iterations": i, "residual": true_res,
                                                "history": history}
            r = residual(x)
        z = apply_M(r)
        rz_new = dot(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise IterationLimitError(
        f"{what}: no convergence within {_KRYLOV_MAXITER} iterations "
        f"(last relative residual {history[-1]:.3e})", history)


def _gmres(apply_A, b: np.ndarray, K: KahlerStructure, tol: float, apply_M,
           what: str):
    """Restarted right-preconditioned GMRES in the volume-weighted inner
    product (Saad & Schultz 1986).

    apply_A maps the volume-mean-zero subspace to itself; apply_M is an
    approximate inverse.  The Arnoldi basis of A M is built by modified
    Gram-Schmidt in <u, v> = sum(u v det g), and Givens rotations keep
    the least-squares residual, which in exact arithmetic is the true
    residual's weighted norm, as a running estimate.  The start is
    x = 0, so r = b costs no application, and the preconditioned basis
    vectors are kept, so x = M V y costs none either.  A cycle ends when
    the estimate reaches tol / 10 relative to ||b||, when _KRYLOV_MAXITER
    iterations are spent, or after _GMRES_RESTART iterations; one true
    residual then certifies x at <= 10 * tol, or restarts the next cycle
    from it.  A solve of k iterations thus makes k + 1 operator and k
    preconditioner applications, plus one operator application per extra
    cycle.  IterationLimitError carries one residual estimate per
    iteration.
    """
    w = K.weight

    def dot(u, v):
        return float(np.sum(u * v * w))

    b = volume_mean_zero(K, b)
    bnorm = math.sqrt(dot(b, b))
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, {"iterations": 0, "residual": 0.0, "history": []}
    target = 0.1 * tol
    history: list[float] = []
    r, beta = b, bnorm
    while True:
        V = [r / beta]
        Z = []
        H = np.zeros((_GMRES_RESTART + 1, _GMRES_RESTART))
        cs = np.zeros(_GMRES_RESTART)
        sn = np.zeros(_GMRES_RESTART)
        g = np.zeros(_GMRES_RESTART + 1)
        g[0] = beta
        for j in range(_GMRES_RESTART):
            Z.append(apply_M(V[j]))
            t = apply_A(Z[j])
            for i in range(j + 1):
                H[i, j] = dot(t, V[i])
                t = t - H[i, j] * V[i]
            H[j + 1, j] = math.sqrt(dot(t, t))
            for i in range(j):
                H[i, j], H[i + 1, j] = (cs[i] * H[i, j] + sn[i] * H[i + 1, j],
                                        cs[i] * H[i + 1, j] - sn[i] * H[i, j])
            rho = math.hypot(H[j, j], H[j + 1, j])
            if rho == 0.0:
                raise IterationLimitError(
                    f"{what}: GMRES broke down (operator singular on the Krylov "
                    f"space) after {len(history)} iterations", history)
            cs[j], sn[j] = H[j, j] / rho, H[j + 1, j] / rho
            if H[j + 1, j] != 0.0:
                V.append(t / H[j + 1, j])
            H[j, j], H[j + 1, j] = rho, 0.0
            g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
            history.append(abs(g[j + 1]) / bnorm)
            if history[-1] <= target or len(history) == _KRYLOV_MAXITER:
                break
        k = len(Z)
        # H[:k, :k] is upper triangular after the rotations
        y = np.linalg.solve(H[:k, :k], g[:k])
        for i in range(k):
            x = x + y[i] * Z[i]
        r = volume_mean_zero(K, b - apply_A(x))
        beta = math.sqrt(dot(r, r))
        true_res = beta / bnorm
        # a cycle cut at _GMRES_RESTART stops only at the estimate's target
        stopped = history[-1] <= target or len(history) == _KRYLOV_MAXITER
        if true_res <= (10.0 * tol if stopped else target):
            return volume_mean_zero(K, x), {"iterations": len(history),
                                            "residual": true_res, "history": history}
        if len(history) == _KRYLOV_MAXITER:
            raise IterationLimitError(
                f"{what}: no convergence within {_KRYLOV_MAXITER} iterations "
                f"(relative residual {true_res:.3e})", history)


def _require_volume_mean_zero(K: KahlerStructure, f: ScalarField, what: str) -> None:
    mean = volume_average(K, f)
    sup = float(np.abs(f.values).max())
    if abs(mean) > 1e-9 * max(sup, 1e-300):
        raise SolvabilityError(
            f"{what}: right-hand side must have volume mean zero "
            f"(mean {mean:.3e} vs sup {sup:.3e})")


def _spd_solver(K: KahlerStructure, apply_A, R: float | None, cfg: SolverConfig,
                what: str):
    """The one PCG front end: solve(f) returns (phi, info) with
    apply_A(phi) = f for a volume-mean-zero f.

    apply_A is negative definite on the mean-zero subspace; `_pcg` runs
    on its negation with the `_spd_preconditioner` of R, built once.
    """
    apply_M = _spd_preconditioner(K, R)

    def negated(v):
        return -apply_A(v)

    def solve(f: ScalarField):
        _require_volume_mean_zero(K, f, what)
        x, info = _pcg(negated, -f.values, K, cfg.krylov_tol, apply_M, what)
        return ScalarField(K.grid, x), info

    return solve


def green_solve(K: KahlerStructure, f: ScalarField, cfg: SolverConfig = SolverConfig()):
    """Solve Lap_omega G = f for the volume-mean-zero potential G.

    Returns (G, info) with iteration count, final relative residual and
    residual history.
    """
    lap = K.grid.hessian_pairing(K.inverse_stack)
    return _spd_solver(K, lambda v: K.grid.hessian_trace(lap, v), None, cfg,
                       "green_solve")(f)


def trace_deviation(K: KahlerStructure, alpha: HermitianFormField) -> float | None:
    """Sup deviation of trace_K(alpha) from its volume mean when it
    exceeds 1e-8 * max(1, |mean|), else None: the hypothesis under which
    the twist operator F is the solvable model operator."""
    tr = trace_form(K, alpha)
    c = volume_average(K, tr)
    dev = float(np.abs(tr.values - c).max())
    return dev if dev > 1e-8 * max(1.0, abs(c)) else None


def solve_F(K: KahlerStructure, alpha: HermitianFormField, f: ScalarField,
            cfg: SolverConfig = SolverConfig()):
    """Solve the twist-operator equation F(phi) = f for mean-zero phi.

    Requires the trace of alpha to be constant on the grid (the
    hypothesis under which F is the solvable model operator) and f to
    have volume mean zero.
    """
    dev = trace_deviation(K, alpha)
    if dev is not None:
        raise PreconditionError(
            f"solve_F: trace of alpha deviates from constant by {dev:.3e}")
    return _twist_solver(K, alpha, cfg)(f)


def _twist_solver(K: KahlerStructure, alpha: HermitianFormField,
                  cfg: SolverConfig):
    """`solve_F` at fixed (K, alpha) as a function of f alone.

    The operator handle and its preconditioner are built once, so the
    rungs of a correction ladder share them; each solve still checks its
    own right-hand side.  The trace precondition is the caller's:
    `solve_F` and `build_approximate_solution` check it with
    `trace_deviation`.
    """
    handle = LinearOperatorHandle("twist", K, alpha, mean_zero=True)
    return _spd_solver(K, handle.apply, None, cfg, "solve_F")


def _shifted_solver(K: KahlerStructure, alpha: HermitianFormField, R: float,
                    cfg: SolverConfig):
    """`solve_shifted` at fixed (K, alpha, R) as a function of f alone.

    The operator handle and its preconditioner are built once, so
    repeated solves (`inverse_norm_estimate`) share them.
    """
    if R < 0.0:
        raise PreconditionError(f"solve_shifted requires R >= 0, got {R}")
    handle = LinearOperatorHandle("shifted", K, alpha, R, mean_zero=True)
    return _spd_solver(K, handle.apply, R, cfg, "solve_shifted")


def solve_shifted(K: KahlerStructure, alpha: HermitianFormField, R: float,
                  f: ScalarField, cfg: SolverConfig = SolverConfig()):
    """Solve (-lichnerowicz + R * twist)(phi) = f on mean-zero fields.

    The operator is negative definite there for R >= 0; the solve runs
    conjugate gradients on its negation with the flat biLaplacian-shift
    preconditioner.
    """
    return _shifted_solver(K, alpha, R, cfg)(f)


def newton_linear_solve(K: KahlerStructure, alpha: HermitianFormField, R: float,
                        rhs: np.ndarray, cfg: SolverConfig = SolverConfig()):
    """Solve full_linearization(delta) = rhs with restarted GMRES.

    The full linearization is not self-adjoint away from solutions, so
    the solve is `_gmres`, right-preconditioned by the negated
    biLaplacian-shift approximate inverse at weight R; input and output
    live on the volume-mean-zero subspace.  Returns (delta, info) with
    the iteration count, the certified relative residual and the
    per-iteration residual estimates.
    """
    handle = LinearOperatorHandle("full_linearization", K, alpha, R, mean_zero=True)
    apply_M = _spd_preconditioner(K, R)

    def negated_M(v):
        # the flat model of the linearization is the negated
        # biLaplacian-shift symbol, so the approximate inverse is negated
        return -apply_M(v)

    return _gmres(handle.apply, np.asarray(rhs, dtype=float), K, cfg.krylov_tol,
                  negated_M, "newton_linear_solve")


def extreme_eigenvalue(K: KahlerStructure, alpha: HermitianFormField, R: float,
                       *, seed: int = 0) -> EigenEstimate:
    """Eigenvalue of -lichnerowicz + R * twist closest to zero.

    All eigenvalues are negative on the mean-zero subspace; the returned
    one is the largest.  It comes from a symmetric generalized Davidson
    iteration (Davidson 1975; Morgan & Scott 1986) in the coordinates
    y = sqrt(det g / sum det g) * v, where the volume-weighted inner
    product is Euclidean.  Each step takes the largest Ritz pair
    (theta, x) of the symmetrized projected operator and extends the
    basis by the correction -M r of its residual r = A x - theta x, with
    M the flat approximate inverse of `_spd_preconditioner`; the
    correction is projected to volume mean zero, orthogonalised twice
    against the basis and projected again, so the constant mode never
    enters.  A step costs one operator application and one
    preconditioner application, with no inner solve.  At _DAVIDSON_CAP
    vectors the basis restarts from its top _DAVIDSON_KEEP Ritz vectors.
    The start vector is drawn from `default_rng(seed)`.

    The iteration stops at Ritz residual 1e-2 * _EIGEN_RESIDUAL_TOL *
    max(1, |theta|), or early when a restart cycle fails to halve the
    smallest Ritz residual (on coarse grids the discrete operator is
    not exactly self-adjoint, and the residual stalls).  Either way the
    pair is then certified by a fresh application, ||L v - lambda v|| <=
    _EIGEN_RESIDUAL_TOL * max(1, |lambda|) in the weighted-RMS norm.
    EigenEstimate.iterations counts operator applications, the
    certifying one included.  IterationLimitError is raised when the
    certificate fails, when _DAVIDSON_RESTARTS restarts are used up, and when
    orthogonalisation reduces a correction to round-off (stagnation: a
    new direction is never made from noise).
    """
    if R < 0.0:
        raise PreconditionError(f"extreme_eigenvalue requires R >= 0, got {R}")
    handle = LinearOperatorHandle("shifted", K, alpha, R, mean_zero=True)
    apply_M = _spd_preconditioner(K, R)
    grid = K.grid
    shape = grid.shape
    w = K.weight
    # the unit vector of the constant mode in y coordinates
    scale = np.sqrt(w / float(np.sum(w))).ravel()

    def mean_free(y: np.ndarray) -> np.ndarray:
        return y - float(scale @ y) * scale

    V = np.empty((_DAVIDSON_CAP, grid.npoints))
    AV = np.empty_like(V)
    H = np.zeros((_DAVIDSON_CAP, _DAVIDSON_CAP))
    m = 0
    restarts = 0
    best_at_restart = math.inf
    stalled = False
    # one entry per operator application
    history: list[float] = []
    t = mean_free(np.random.default_rng(seed).standard_normal(grid.npoints))
    while True:
        size = math.sqrt(float(t @ t))
        for _ in range(2):
            t = t - (V[:m] @ t) @ V[:m]
        t = mean_free(t)
        norm = math.sqrt(float(t @ t))
        if not norm > _STAGNATION * size:
            raise IterationLimitError(
                f"extreme_eigenvalue: Davidson correction vanished against the "
                f"basis after {len(history)} operator applications (stagnation, "
                f"last Ritz residual {history[-1]:.3e})", history)
        V[m] = t / norm
        AV[m] = scale * handle.apply((V[m] / scale).reshape(shape)).ravel()
        H[m, :m + 1] = H[:m + 1, m] = 0.5 * (V[:m + 1] @ AV[m] + AV[:m + 1] @ V[m])
        m += 1
        thetas, coeffs = np.linalg.eigh(H[:m, :m])
        theta = float(thetas[-1])
        x = coeffs[:, -1] @ V[:m]
        r = coeffs[:, -1] @ AV[:m] - theta * x
        history.append(math.sqrt(float(r @ r)))
        if history[-1] <= 1e-2 * _EIGEN_RESIDUAL_TOL * max(1.0, abs(theta)):
            break
        if m == _DAVIDSON_CAP:
            if restarts == _DAVIDSON_RESTARTS:
                raise IterationLimitError(
                    f"extreme_eigenvalue: Davidson did not converge within "
                    f"{_DAVIDSON_RESTARTS} restarts ({len(history)} operator applications, "
                    f"last Ritz residual {history[-1]:.3e})", history)
            if min(history) > 0.5 * best_at_restart:
                # a whole cycle without progress: the certificate judges
                # the pair as it stands
                stalled = True
                break
            best_at_restart = min(history)
            restarts += 1
            keep = coeffs[:, -_DAVIDSON_KEEP:]
            V[:_DAVIDSON_KEEP] = keep.T @ V[:m]
            AV[:_DAVIDSON_KEEP] = keep.T @ AV[:m]
            H[:_DAVIDSON_KEEP, :_DAVIDSON_KEEP] = np.diag(thetas[-_DAVIDSON_KEEP:])
            m = _DAVIDSON_KEEP
        t = mean_free(-scale * apply_M((r / scale).reshape(shape)).ravel())
    if theta >= 0.0:
        raise IterationLimitError(
            f"extreme_eigenvalue: non-negative Ritz value {theta:.3e} "
            f"(operator not negative definite?)", history)
    v = volume_mean_zero(K, x.reshape(shape) / scale.reshape(shape))
    v = v / volume_rms(K, v)
    Lv = handle.apply(v)
    value = float(np.sum(v * Lv * w) / np.sum(v * v * w))
    residual = volume_rms(K, Lv - value * v)
    if residual > _EIGEN_RESIDUAL_TOL * max(1.0, abs(value)):
        raise IterationLimitError(
            f"extreme_eigenvalue: eigenpair residual {residual:.3e} above "
            f"{_EIGEN_RESIDUAL_TOL:.1e} * max(1, |lambda|)"
            + (f" (Davidson stalled at Ritz residual {min(history):.3e} after "
               f"{len(history)} operator applications)" if stalled else ""),
            [residual])
    return EigenEstimate(value=value, residual=residual, iterations=len(history) + 1,
                         vector=ScalarField(grid, v))


def inverse_norm_estimate(K: KahlerStructure, alpha: HermitianFormField, R: float,
                          cfg: SolverConfig = SolverConfig(), *,
                          seed: int = 0) -> float:
    """Proxy operator norm of the inverse shifted operator, L2 -> H^s.

    _INVERSE_NORM_ITERATIONS power iterations for the composition
    f -> L^{-1} S_s L^{-1} f, where S_s multiplies coefficients by
    (1+|k|^2)^s with s = _INVERSE_NORM_ORDER; the square root of the
    Rayleigh quotient estimates sup ||L^{-1} f||_s / ||f||_0.
    """
    grid = K.grid
    weight_s = sobolev_weight(grid, _INVERSE_NORM_ORDER)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(grid.shape)
    shifted = _shifted_solver(K, alpha, R, cfg)

    def solve(v):
        out, _ = shifted(ScalarField(grid, volume_mean_zero(K, v)))
        return out.values

    sigma = 0.0
    u = volume_mean_zero(K, u)
    u /= math.sqrt(float(np.mean(u * u)))
    for _ in range(_INVERSE_NORM_ITERATIONS):
        mid = solve(u)
        smooth = grid.derivatives(mid, weight_s)
        cu = solve(smooth)
        rayleigh = float(np.mean(cu * u)) / float(np.mean(u * u))
        sigma = math.sqrt(max(rayleigh, 0.0))
        norm = math.sqrt(float(np.mean(cu * cu)))
        if norm == 0.0:
            break
        u = cu / norm
    return sigma
