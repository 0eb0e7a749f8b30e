"""Nonlinear layer: residuals, approximate-solution ladder, damped Newton,
continuation in the twist weight, and existence certificates.

The nonlinear problem solved throughout is

    S(omega_phi) - R * trace_{omega_phi}(alpha) = sbar - R * c

on a flat torus, with sbar and c the volume averages of the scalar
curvature and the trace (both cohomological, so the right-hand side is
known before solving).  The residual therefore always has volume mean
zero, which is what the linear solvers require.

The continuity-path parameter t in (0, 1] and the twist weight R are
related by R = (1 - t) / t; t = 1 is the untwisted equation.

Every scenario's Newton solve goes through `solve_step`, a two-grid
solve (nested iteration): the start and the twist are restricted to the
half grid, Newton solves that half-grid problem, its potential is
prolonged back spectrally, and Newton finishes on the configured grid at
the same tolerance.  The solutions are spectrally smooth, so the
prolonged start is already close and the fine solve takes few
iterations.  The half grid (one per grid), the points it keeps on each
axis (one rule), the restriction and the prolongation all belong to
`grid`; this module moves a problem there and back only through
`_restricted` and `_prolonged`, which the seed ladder shares.  A step
is given its start as a potential in a class on a grid, and builds the
configured-grid structure of that start only when it falls back to a
fine-grid solve from it: when the grid has no half grid, when
restricting or prolonging degenerates the metric, and when the
half-grid solve fails or needs no iteration.
StepRecord's coarse_* fields record the half-grid stage.

Every run starts from `seed_structure`'s seed and every sequence of
solves is one `WarmChain`, which owns the one SolverConfig of all its
steps and has one warm-start rule: a step starts at the last converged
metric or, while no step has converged, at the chain's seed, both
handed on as their potential.  `seed_chain` makes
the chain and is the only code that builds a seed ladder: on the half
grid, where the chain's first step solves, when the grid has one.  The
Newton drivers `continuity_sweep`, `estimate_R_threshold` and
`perturb_twist` continue the caller's chain, so a base solve and its
perturbation stages are one chain.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .config import MAX_LADDER_ORDER, SolverConfig
from .errors import (
    DegenerateMetricError,
    DomainError,
    IterationLimitError,
    PreconditionError,
    StagnationError,
    TwistkError,
    UnsupportedOrderError,
    describe,
)
from .geometry import (
    HermitianFormField,
    KahlerStructure,
    class_trace,
    scalar_curvature,
    trace_form,
    volume_average,
    volume_mean_zero,
)
from .grid import (
    PeriodicGrid,
    ScalarField,
    euclid_mean_zero,
    half_grid,
    prolong,
    random_smooth_field,
    restrict,
    rms_norm,
    sobolev_norm,
    sup_norm,
)
from .operators import LinearOperatorHandle
from .solvers import (
    extreme_eigenvalue,
    green_solve,
    inverse_norm_estimate,
    newton_linear_solve,
    _twist_solver,
)

# iteration cap of one `newton_solve`
_MAX_NEWTON = 40
# Newton line search: the step-scale floor, and the sufficient-decrease
# factor of the test sup_new <= (1 - _ARMIJO * scale) * sup
_MIN_STEP = 2.0 ** -20
_ARMIJO = 0.25
# `ift_certificate`: the starting H4 radius of the Lipschitz ball, the
# sampled directions and the cap on radius halvings
_IFT_RADIUS = 0.5
_IFT_SAMPLES = 6
_IFT_MAX_HALVINGS = 30
# `estimate_R_threshold`: the descent halves the weight while it stays
# above _THRESHOLD_FLOOR, and a failing interval is bisected this often
_THRESHOLD_FLOOR = 0.05
_THRESHOLD_BISECTIONS = 10


def t_to_R(t: float) -> float:
    """Continuity-path parameter to twist weight; t = 1 maps to R = 0."""
    if not 0.0 < t <= 1.0:
        raise PreconditionError(f"path parameter must lie in (0, 1], got {t}")
    return (1.0 - t) / t


def R_to_t(R: float) -> float:
    if R < 0.0:
        raise PreconditionError(f"twist weight must be >= 0, got {R}")
    return 1.0 / (1.0 + R)


def twisted_residual(K: KahlerStructure, alpha: HermitianFormField,
                     R: float) -> tuple[ScalarField, float]:
    """Residual field of the twisted equation and the constant used.

    Returns (S - R * trace(alpha) - const, const) with
    const = sbar - R * c fixed by volume averages; the field has volume
    mean zero up to quadrature exactness.
    """
    S = scalar_curvature(K)
    tr = trace_form(K, alpha)
    sbar = volume_average(K, S)
    c = volume_average(K, tr)
    const = sbar - R * c
    values = S.values - R * tr.values - const
    return ScalarField(K.grid, values), const


@dataclass(frozen=True)
class PositivityReport:
    """Minimum pointwise eigenvalue of a form and whether it stayed positive."""

    positive: bool
    min_eigenvalue: float


def trivial_twist(K: KahlerStructure, alpha: HermitianFormField, R: float,
                  cfg: SolverConfig = SolverConfig(),
                  ) -> tuple[HermitianFormField, PositivityReport]:
    """Cohomologous twist that the given metric solves exactly at weight R.

    Solves Lap G = (S - sbar) - R*(trace(alpha) - c) and returns
    alpha + Hess(G) / R, which keeps the class of alpha while absorbing
    the whole residual: S - R * trace(alpha') is then the constant
    sbar - R*c.  The correction scales like 1/R, so positivity of the
    result degrades as R decreases; losing it is reported, not raised,
    since the construction only promises positivity for large R.
    """
    if R <= 0.0:
        raise PreconditionError(f"trivial_twist requires R > 0, got {R}")
    S = scalar_curvature(K)
    tr = trace_form(K, alpha)
    sbar = volume_average(K, S)
    c = volume_average(K, tr)
    # mean zero against the volume form holds as an identity; project so
    # round-off in the near-cancelling differences cannot obscure it
    rhs = ScalarField(K.grid, volume_mean_zero(K, (S.values - sbar) - R * (tr.values - c)))
    G, _ = green_solve(K, rhs, cfg)
    twisted = HermitianFormField(K.grid, alpha.base_matrix,
                                 alpha.potential + G.values / R)
    worst = twisted.min_eigenvalue()
    return twisted, PositivityReport(positive=worst > 0.0, min_eigenvalue=worst)


@dataclass(frozen=True)
class ApproximateSolution:
    """Result of the order-by-order correction ladder.

    residual_sups, residual_rms and wall_ms hold one entry per rung,
    entry 0 being the seed: the sup and RMS norms of the residual after
    that rung, and the wall time in milliseconds from the start of the
    build to the end of that rung, so entry 0 includes building the
    twist solver, which comes before the seed residual.  Rung m of an
    order-`order` ladder is the last rung of the order-m ladder, so its
    entries are that ladder's.  linear_iterations holds the PCG
    iterations of the solves of rungs 1 to `order`, one entry each: the
    seed takes no solve.
    """

    structure: KahlerStructure
    residual_sups: tuple[float, ...]
    residual_rms: tuple[float, ...]
    wall_ms: tuple[float, ...]
    linear_iterations: tuple[int, ...]
    constant: float


def _check_order(order) -> None:
    """UnsupportedOrderError unless order is an integer in
    [0, MAX_LADDER_ORDER]; a bool is refused."""
    if (isinstance(order, bool) or not isinstance(order, int)
            or order < 0 or order > MAX_LADDER_ORDER):
        raise UnsupportedOrderError(
            f"ladder order must be an integer in [0, {MAX_LADDER_ORDER}], got {order}")


def build_approximate_solution(base: KahlerStructure, alpha: HermitianFormField,
                               R: float, order: int,
                               cfg: SolverConfig = SolverConfig()) -> ApproximateSolution:
    """Order-m approximate solution by repeated model-operator solves.

    Requires trace_{base}(alpha) constant: then the leading O(R) term of
    the residual vanishes at the seed and each solve of the frozen twist
    operator F against the current residual gains one power of 1/R.
    `solvers._twist_solver` checks it, and the solver is built before
    the seed residual, so a twist that breaks the rule costs no residual.
    The i-th potential increment is delta_i / R with delta_i = O(R^{1-i}),
    so after m rungs the residual is O(R^{-m}).  Every rung solves with
    the same frozen operator, built once.  The result records, for the
    seed and each rung, the residual's sup and RMS norms and the
    cumulative wall time, and each rung's PCG iterations (see
    ApproximateSolution).
    """
    started = time.perf_counter()
    _check_order(order)
    if R <= 0.0:
        raise PreconditionError(f"ladder requires R > 0, got {R}")
    solve = _twist_solver(base, alpha, cfg)

    grid = base.grid
    K = base
    psi = np.zeros(grid.shape)
    sups: list[float] = []
    rms: list[float] = []
    wall_ms: list[float] = []
    iterations: list[int] = []

    def record(residual: ScalarField) -> None:
        sups.append(sup_norm(residual.values))
        rms.append(rms_norm(residual.values))
        wall_ms.append((time.perf_counter() - started) * 1000.0)

    residual, const = twisted_residual(K, alpha, R)
    record(residual)
    for _ in range(order):
        # solvability at the frozen base: the equation's free constant
        # absorbs the residual mean taken against the base volume form
        rhs = volume_mean_zero(base, residual.values)
        delta, info = solve(ScalarField(grid, -rhs))
        iterations.append(info["iterations"])
        psi = euclid_mean_zero(psi + delta.values / R)
        K = KahlerStructure(grid, base.base_matrix, euclid_mean_zero(base.potential + psi))
        residual, const = twisted_residual(K, alpha, R)
        record(residual)
    return ApproximateSolution(structure=K, residual_sups=tuple(sups),
                               residual_rms=tuple(rms), wall_ms=tuple(wall_ms),
                               linear_iterations=tuple(iterations),
                               constant=const)


@dataclass(frozen=True)
class NewtonReport:
    """Outcome of a damped Newton run; start_residual_sup is the
    residual sup of the starting metric."""

    converged: bool
    iterations: int
    residual_sup: float
    residual_l2: float
    constant: float
    structure: KahlerStructure
    start_residual_sup: float
    history: tuple[dict, ...] = ()
    message: str = ""


def newton_solve(K0: KahlerStructure, alpha: HermitianFormField, R: float,
                 cfg: SolverConfig = SolverConfig()) -> NewtonReport:
    """Damped Newton iteration on the potential, warm-started at K0.

    Each step solves the full linearization with GMRES and backtracks on
    the sup-norm of the residual, halving the step until the decrease
    condition sup_new <= (1 - _ARMIJO * scale) * sup holds; steps that
    degenerate the metric are rejected the same way.  Failure is
    reported, not raised: a step scale below _MIN_STEP (StagnationError),
    _MAX_NEWTON iterations above cfg.newton_tol (IterationLimitError)
    and a DegenerateMetricError return converged=False with the error as
    "<class>: <message>" in the report's message.

    Each trial potential is phi + scale * delta made mean zero, with phi
    the current iterate's potential: at the first step a mean-zero copy
    of K0's, made after the linear solve, and after it the accepted
    iterate's own, which is already mean zero.  Neither phi nor the last
    step's delta is alive through the next linear solve.
    """
    K = K0
    residual, const = twisted_residual(K, alpha, R)
    rsup = start_sup = sup_norm(residual.values)
    history: list[dict] = []

    def report(converged: bool, message: str = "") -> NewtonReport:
        return NewtonReport(converged=converged, iterations=len(history),
                            residual_sup=rsup, residual_l2=rms_norm(residual.values),
                            constant=const, structure=K, history=tuple(history),
                            message=message, start_residual_sup=start_sup)

    try:
        for it in range(1, _MAX_NEWTON + 1):
            if rsup <= cfg.newton_tol:
                return report(True)
            # the step solves J delta = -residual; GMRES is exactly odd in
            # its right-hand side, so solving for the residual itself and
            # negating in place gives delta's bits without a negated copy
            # alive through the solve
            delta, lin_info = newton_linear_solve(K, alpha, R, residual.values, cfg)
            np.negative(delta, out=delta)
            # K0's mean-zero copy is made after the solve, so that it is
            # not alive through it
            phi = K.potential if it > 1 else euclid_mean_zero(K0.potential)
            scale = 1.0
            while True:
                if scale < _MIN_STEP:
                    raise StagnationError(
                        f"newton_solve: line search stalled below {_MIN_STEP:g} "
                        f"at residual {rsup:.3e}", [h["residual_sup"] for h in history])
                try:
                    K_new = KahlerStructure(K0.grid, K0.base_matrix,
                                            euclid_mean_zero(phi + scale * delta))
                except DegenerateMetricError:
                    scale *= 0.5
                    continue
                res_new, const_new = twisted_residual(K_new, alpha, R)
                sup_new = sup_norm(res_new.values)
                if sup_new <= (1.0 - _ARMIJO * scale) * rsup:
                    break
                scale *= 0.5
            # the next step's solve reads neither
            del phi, delta
            K = K_new
            residual, const = res_new, const_new
            rsup = sup_new
            history.append({"iteration": it, "residual_sup": rsup, "step": scale,
                            "linear_iterations": lin_info["iterations"],
                            "linear_residual": lin_info["residual"]})
        if rsup <= cfg.newton_tol:
            return report(True)
        raise IterationLimitError(
            f"newton_solve: residual {rsup:.3e} above {cfg.newton_tol:g} after "
            f"{_MAX_NEWTON} iterations", [h["residual_sup"] for h in history])
    except (StagnationError, IterationLimitError, DegenerateMetricError) as err:
        return report(False, message=describe(err))


@dataclass(frozen=True)
class StepRecord:
    """One Newton solve of a scenario, as its artifacts record it.

    t is the caller's path parameter (R_to_t(R) when none was given);
    wall_ms times the half-grid, Newton and eigenvalue stages;
    warm_source names the starting metric (see `seed_chain`, or
    "previous-step").  newton_error is the report's "<class>: <message>"
    and history its per-iteration record, both of the solve on the
    configured grid.  The coarse fields record the half-grid stage:
    coarse_iters its Newton iterations (0 when it did not run),
    coarse_residual_sup the configured-grid residual of its prolonged
    solution, the two-grid estimate (nan when the step fell back), and
    coarse_error why the step fell back ("" when it did not).  The eigen
    fields record the eigenvalue stage: lambda1, its operator
    applications and certified residual, or in eigen_error the
    "<class>: <message>" that left lambda1 nan; they keep their defaults
    when the stage did not run.
    """

    t: float
    R: float
    converged: bool
    residual_sup: float
    residual_l2: float
    constant: float
    newton_iters: int
    wall_ms: float
    warm_source: str
    newton_error: str = ""
    history: tuple[dict, ...] = ()
    coarse_iters: int = 0
    coarse_residual_sup: float = math.nan
    coarse_error: str = ""
    lambda1: float = math.nan
    eigen_iterations: int = 0
    eigen_residual: float = math.nan
    eigen_error: str = ""


def _restricted(grid: PeriodicGrid, g0: np.ndarray, potential: np.ndarray,
                alpha: HermitianFormField, parities: tuple[int, ...],
                ) -> tuple[KahlerStructure, HermitianFormField]:
    """The metric g0 + Hess(potential) and alpha sampled on grid's half
    grid at the points that `parities` picks (see `grid.half_grid`); a
    DegenerateMetricError when the sampled metric is not positive."""
    coarse = grid.half
    return (KahlerStructure(coarse, g0, restrict(potential, parities)),
            HermitianFormField(coarse, alpha.base_matrix,
                               restrict(alpha.potential, parities)))


def _prolonged(grid: PeriodicGrid, g0: np.ndarray, coarse_potential: np.ndarray,
               parities: tuple[int, ...]) -> KahlerStructure:
    """A half-grid potential prolonged back onto grid, in the class g0;
    a DegenerateMetricError when that metric is not positive."""
    return KahlerStructure(grid, g0, prolong(coarse_potential, grid, parities))


def _half_grid_start(grid: PeriodicGrid, g0: np.ndarray, potential: np.ndarray,
                     alpha: HermitianFormField, R: float, cfg: SolverConfig,
                     ) -> tuple[KahlerStructure | None, int, str]:
    """Newton on the half grid (`grid.half_grid`) from the start
    g0 + Hess(potential) and alpha restricted there, its potential
    prolonged back to grid.

    Returns (start, coarse iterations, fallback reason); start is None,
    with the reason, when grid has no half grid, when restricting or
    prolonging degenerates a metric, and when the half-grid solve fails
    or needs no iteration (the given start is then at least as good).
    """
    try:
        _, parities = half_grid(grid, potential)
    except DomainError as err:
        return None, 0, str(err)
    try:
        K_c, alpha_c = _restricted(grid, g0, potential, alpha, parities)
    except DegenerateMetricError as err:
        return None, 0, describe(err)
    report = newton_solve(K_c, alpha_c, R, cfg)
    if not report.converged:
        return None, report.iterations, report.message
    if report.iterations == 0:
        return None, 0, "half-grid start already converged"
    try:
        start = _prolonged(grid, g0, report.structure.potential, parities)
    except DegenerateMetricError as err:
        return None, report.iterations, describe(err)
    return start, report.iterations, ""


def solve_step(grid: PeriodicGrid, g0: np.ndarray, potential: np.ndarray,
               alpha: HermitianFormField, R: float, cfg: SolverConfig, source: str, *,
               t: float | None = None, eigen_seed: int | None = None,
               ) -> tuple[StepRecord, KahlerStructure]:
    """Two-grid Newton at weight R from the metric g0 + Hess(potential)
    on grid (see the module docstring), then, when eigen_seed is given
    and Newton converged, the extreme eigenvalue of the shifted operator
    on the configured grid.

    The start's configured-grid structure is built only when the step
    falls back to solving from it; a start that degenerates then raises
    DegenerateMetricError.  An eigenvalue stage that raises a TwistkError
    leaves lambda1 nan and its failure in the record.  Returns the record
    and the metric Newton ended on.
    """
    started = time.perf_counter()
    if t is None:
        t = R_to_t(R)
    start, coarse_iters, coarse_error = _half_grid_start(grid, g0, potential, alpha, R, cfg)
    two_grid = start is not None
    if not two_grid:
        start = KahlerStructure(grid, g0, potential)
    report = newton_solve(start, alpha, R, cfg)
    eigen, eigen_error = None, ""
    if report.converged and eigen_seed is not None:
        try:
            eigen = extreme_eigenvalue(report.structure, alpha, R, seed=eigen_seed)
        except TwistkError as err:
            eigen_error = describe(err)
    record = StepRecord(
        t=t, R=R, converged=report.converged,
        residual_sup=report.residual_sup, residual_l2=report.residual_l2,
        constant=report.constant, newton_iters=report.iterations,
        wall_ms=(time.perf_counter() - started) * 1000.0, warm_source=source,
        newton_error=report.message, history=report.history,
        coarse_iters=coarse_iters,
        coarse_residual_sup=report.start_residual_sup if two_grid else math.nan,
        coarse_error=coarse_error,
        lambda1=math.nan if eigen is None else eigen.value,
        eigen_iterations=0 if eigen is None else eigen.iterations,
        eigen_residual=math.nan if eigen is None else eigen.residual,
        eigen_error=eigen_error)
    return record, report.structure


class WarmChain:
    """A sequence of `solve_step` calls at one SolverConfig, cfg, under
    the one warm-start rule.

    A step starts at the last converged metric (warm_source
    "previous-step"), or at the seed (warm_source `source`) while no
    step has converged.  The chain holds either start as its `potential`
    on `grid` in the class `g0`, and solve_step builds a configured-grid
    structure from it only when it falls back to solving from it, so
    while a step solves, its own Newton iterates are the only
    configured-grid structures alive; the seed is let go at the first
    converged step.  records holds every step's record, converged or
    not; structure, alpha and R are the metric, twist and weight of the
    last converged step (None while there is none).  structure is the
    solved metric itself between steps, and None while a step runs; a
    step that does not converge leaves it rebuilt from `potential`, a
    structure byte-equal to the one it held.  source, ladder_error and
    ladder_sizes describe the seed (see `seed_chain`, which makes every
    scenario's chain).
    """

    def __init__(self, grid: PeriodicGrid, g0: np.ndarray, potential: np.ndarray,
                 source: str, cfg: SolverConfig, ladder_error: str = "",
                 ladder_sizes: tuple[int, ...] = ()):
        self.grid = grid
        self.g0 = g0
        self.potential = potential
        self.source = source
        self.cfg = cfg
        self.ladder_error = ladder_error
        self.ladder_sizes = ladder_sizes
        self.records: list[StepRecord] = []
        self.structure: KahlerStructure | None = None
        self.alpha: HermitianFormField | None = None
        self.R: float | None = None

    def step(self, alpha: HermitianFormField, R: float, *,
             t: float | None = None, eigen_seed: int | None = None) -> bool:
        """Solve at weight R from the rule's start; True when it converged."""
        source = self.source if self.alpha is None else "previous-step"
        # the step reads only the start's potential; the solved structure,
        # with its cached curvature, would be a second configured-grid
        # metric alive through it
        self.structure = None
        converged = False
        try:
            record, solved = solve_step(self.grid, self.g0, self.potential, alpha, R,
                                        self.cfg, source, t=t, eigen_seed=eigen_seed)
            self.records.append(record)
            converged = record.converged
        finally:
            if converged:
                self.structure, self.potential = solved, solved.potential
                self.alpha, self.R = alpha, R
            elif self.alpha is not None:
                self.structure = KahlerStructure(self.grid, self.g0, self.potential)
        return converged


@dataclass(frozen=True)
class IFTCertificate:
    """Quantitative existence certificate around an approximate solution.

    If the sampled Lipschitz quotient of the linearization remainder
    stays below 1 / (2 * inverse_norm) on the H4 ball of radius
    lipschitz_radius, and the defect (L2 proxy norm of the residual) is
    below ball_radius = lipschitz_radius / (2 * inverse_norm), the
    Newton-type fixed point map is a contraction and an exact solution
    exists within the ball.  The Lipschitz bound is sampled, not proved,
    and the verdict says so: "certified", "not_certified" (inequality
    checked and false), or "inconclusive" (sampling budget exhausted
    before a usable radius was found).
    """

    defect: float
    inverse_norm: float
    lipschitz_quotient: float
    lipschitz_radius: float
    ball_radius: float
    verdict: str
    samples: int
    seed: int

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


def ift_certificate(K: KahlerStructure, alpha: HermitianFormField, R: float,
                    cfg: SolverConfig = SolverConfig(), *,
                    seed: int = 0) -> IFTCertificate:
    """Check the quantitative inverse-function-theorem inequality at K.

    The Lipschitz quotient is sampled on _IFT_SAMPLES random directions
    scaled into the H4 ball of radius _IFT_RADIUS, which is halved (at
    most _IFT_MAX_HALVINGS times) until the quotient meets its target.
    """
    grid = K.grid
    residual, _ = twisted_residual(K, alpha, R)
    defect = sobolev_norm(residual, 0.0)
    inverse_norm = inverse_norm_estimate(K, alpha, R, cfg, seed=seed)
    handle = LinearOperatorHandle("full_linearization", K, alpha, R, mean_zero=True)
    base_values = residual.values

    def remainder(phi: np.ndarray) -> np.ndarray:
        K_phi = KahlerStructure(grid, K.base_matrix, euclid_mean_zero(K.potential + phi))
        res_phi, _ = twisted_residual(K_phi, alpha, R)
        return res_phi.values - base_values - handle.apply(phi)

    rng = np.random.default_rng(seed)
    raw = [random_smooth_field(grid, rng, amplitude=1.0).values
           for _ in range(_IFT_SAMPLES)]
    fractions = rng.uniform(0.3, 1.0, size=_IFT_SAMPLES)
    h4_norms = [sobolev_norm(ScalarField(grid, u), 4.0) for u in raw]
    target = 0.5 / inverse_norm

    r = _IFT_RADIUS
    lipschitz = math.inf
    for _ in range(_IFT_MAX_HALVINGS):
        fields = [u * (r * frac / h4) for u, frac, h4 in zip(raw, fractions, h4_norms)]
        try:
            values = [remainder(phi) for phi in fields]
            zero = np.zeros(grid.shape)
            pairs = [(phi, zero, q) for phi, q in zip(fields, values)]
            for i in range(len(fields) - 1):
                pairs.append((fields[i], fields[i + 1], values[i] - values[i + 1]))
            lipschitz = 0.0
            for phi_a, phi_b, diff in pairs:
                gap = sobolev_norm(ScalarField(grid, phi_a - phi_b), 4.0)
                if gap > 0.0:
                    lipschitz = max(lipschitz, rms_norm(diff) / gap)
        except DegenerateMetricError:
            r *= 0.5
            continue
        if lipschitz <= target:
            ball = r / (2.0 * inverse_norm)
            verdict = "certified" if defect < ball else "not_certified"
            return IFTCertificate(defect=defect, inverse_norm=inverse_norm,
                                  lipschitz_quotient=lipschitz,
                                  lipschitz_radius=r, ball_radius=ball,
                                  verdict=verdict, samples=_IFT_SAMPLES, seed=seed)
        r *= 0.5
    return IFTCertificate(defect=defect, inverse_norm=inverse_norm,
                          lipschitz_quotient=lipschitz, lipschitz_radius=r,
                          ball_radius=r / (2.0 * inverse_norm),
                          verdict="inconclusive", samples=_IFT_SAMPLES, seed=seed)


def perturb_twist(chain: WarmChain, alpha_new: HermitianFormField, *,
                  steps: int = 1) -> None:
    """Continue a chain's solved metric to a perturbed twist at its weight.

    Requires the chain's last step to have converged, so to the
    chain's newton_tol, at which every stage solves too.  The twist is
    moved from that step's twist along the convex combination in
    `steps` increments, each stage form interpolating the class
    matrices and the potentials, and each stage is one step of the
    chain; convexity keeps every intermediate form positive when the
    endpoints are.  Continuation stops at the first non-converged
    stage, so the chain's records show the progress.
    """
    last = chain.records[-1] if chain.records else None
    if last is None or not last.converged:
        found = "no step" if last is None else f"residual {last.residual_sup:.3e}"
        raise PreconditionError(
            f"perturb_twist: base {found}, not converged to {chain.cfg.newton_tol:g}; "
            "solve the base problem first")
    if steps < 1:
        raise PreconditionError(f"perturb_twist needs steps >= 1, got {steps}")
    alpha_old, R = chain.alpha, chain.R
    for j in range(1, steps + 1):
        s = j / steps
        alpha_s = HermitianFormField(
            alpha_old.grid, (1.0 - s) * alpha_old.base_matrix + s * alpha_new.base_matrix,
            (1.0 - s) * alpha_old.potential + s * alpha_new.potential)
        if not chain.step(alpha_s, R):
            break


def proportional_seed_potential(grid: PeriodicGrid, g0: np.ndarray,
                                alpha: HermitianFormField) -> np.ndarray | None:
    """Potential psi with alpha proportional to g0 + Hess(psi), if one exists.

    When alpha = s * (g0 + Hess(psi)) pointwise the trace of alpha in
    that metric is the constant s*n, which is exactly the ladder seed
    condition.  Returns None when alpha is not of this shape, and when
    its potential is zero (the seed would be flat).
    """
    if not np.any(alpha.potential):
        return None
    g0 = np.asarray(g0, dtype=complex)
    s = class_trace(g0, alpha.base_matrix) / grid.n
    if s <= 0.0:
        return None
    if not np.allclose(alpha.base_matrix, s * g0, rtol=0.0,
                       atol=1e-10 * max(1.0, float(np.abs(g0).max()))):
        return None
    return alpha.potential / s


def seed_structure(grid: PeriodicGrid, g0: np.ndarray,
                   alpha: HermitianFormField, *,
                   potential: np.ndarray | None = None,
                   ) -> tuple[KahlerStructure, str]:
    """Seed metric of a run in the class g0, and its source.

    The seed potential is `potential` when given and non-zero
    ("explicit-potential"), else `proportional_seed_potential`
    ("proportional-seed"), else zero ("flat").  `seed_chain` improves
    the seed by the correction ladder.
    """
    if potential is not None and np.any(potential):
        warm, source = potential, "explicit-potential"
    else:
        warm, source = proportional_seed_potential(grid, g0, alpha), "proportional-seed"
        if warm is None:
            warm, source = np.zeros(grid.shape), "flat"
    return KahlerStructure(grid, g0, euclid_mean_zero(warm)), source


def seed_chain(grid: PeriodicGrid, g0: np.ndarray, alpha: HermitianFormField,
               R: float, order: int, cfg: SolverConfig = SolverConfig(), *,
               potential: np.ndarray | None = None) -> WarmChain:
    """The WarmChain of a Newton scenario: `seed_structure`'s seed,
    improved by the order-`order` correction ladder ("ladder[order]")
    when order > 0 and R > 0, built where the chain's first step solves.

    When `half_grid` accepts the seed, the ladder runs on the half grid
    from the seed and alpha restricted there, and its potential is
    prolonged back: the first two-grid step samples its start at every
    other point anyway, so a configured-grid ladder would be mostly
    thrown away.  It keeps the points that `half_grid` picks for the
    seed, as every two-grid step does, so a translated seed gets the
    translated ladder and the same work.  Otherwise (DomainError) the
    ladder runs on the configured grid.  A ladder that raises a
    TwistkError, a degenerate restriction or prolongation included,
    leaves the chain at the seed with the failure as "<class>:
    <message>" in ladder_error.  An order outside [0, MAX_LADDER_ORDER]
    is the caller's error: UnsupportedOrderError, at any R, before the
    seed is built.  The chain's ladder_sizes are the sizes of the grid
    the ladder ran on, () when none ran.  The seed and the prolonged
    ladder are built as structures, so a degenerate one fails here, but
    the chain is handed only the potential and the checked class.
    """
    _check_order(order)
    K, source = seed_structure(grid, g0, alpha, potential=potential)
    g0 = K.base_matrix
    if order == 0 or R <= 0.0:
        return WarmChain(grid, g0, K.potential, source, cfg)
    try:
        coarse, parities = half_grid(grid, K.potential)
    except DomainError:
        coarse = None
    sizes = grid.sizes if coarse is None else coarse.sizes
    try:
        if coarse is None:
            start = build_approximate_solution(K, alpha, R, order, cfg).structure
        else:
            ladder = build_approximate_solution(
                *_restricted(grid, g0, K.potential, alpha, parities), R, order, cfg)
            start = _prolonged(grid, g0, ladder.structure.potential, parities)
    except TwistkError as err:
        return WarmChain(grid, g0, K.potential, source, cfg, describe(err), sizes)
    return WarmChain(grid, g0, start.potential, f"ladder[{order}]", cfg, "", sizes)


def continuity_sweep(chain: WarmChain, alpha: HermitianFormField, t_values, *,
                     eigen_seed: int | None = 0) -> None:
    """March a chain along the continuity path over increasing t.

    Every t is mapped to its weight before the first solve.  Each step
    starts from the chain's last converged metric, or from its seed
    while no step has converged (`WarmChain`).  Each record holds the
    residual norms, the extreme eigenvalue of the shifted operator from
    the start seed eigen_seed (no eigen stage when it is None) and
    Newton statistics.  Non-converged steps are recorded and the sweep
    keeps marching from the last good metric, so the records map the
    failure frontier, and the chain's R is the smallest converged
    weight.
    """
    t_list = [float(t) for t in t_values]
    if not t_list or any(b <= a for a, b in zip(t_list, t_list[1:])):
        raise PreconditionError("t_values must be strictly increasing and non-empty")
    weights = [t_to_R(t) for t in t_list]
    for t, R in zip(t_list, weights):
        chain.step(alpha, R, t=t, eigen_seed=eigen_seed)


@dataclass(frozen=True)
class ThresholdEstimate:
    """Smallest-weight solvability estimate with a failure bracket.

    bracket = (largest failing R seen, smallest verified R); when every
    attempted weight down to and including R = 0 solves, both entries
    and the threshold are 0.0.  When the first attempt at R_start fails
    no weight is verified: the threshold is inf and the bracket
    (R_start, inf).
    """

    threshold: float
    bracket: tuple[float, float]


def estimate_R_threshold(chain: WarmChain, alpha: HermitianFormField, *,
                         R_start: float) -> ThresholdEstimate:
    """Descend a chain's twist weight geometrically and bracket the first
    failure.

    R_start is the weight the chain was seeded at.  The weight halves
    from R_start while it stays above _THRESHOLD_FLOOR; each weight is
    one step of the chain, which adds one record per weight tried.  If
    every weight down to the floor and then R = 0 itself converge, the
    estimate is 0.0 with the degenerate bracket (0.0, 0.0); otherwise
    the failing interval is bisected geometrically for
    _THRESHOLD_BISECTIONS rounds (halved while its lower end is 0).  The
    threshold is always a verified weight; if R_start itself fails there
    is none, and the estimate is inf with the bracket (R_start, inf).
    """
    if R_start <= 0.0:
        raise PreconditionError("estimate_R_threshold: need R_start > 0")
    if not chain.step(alpha, R_start):
        return ThresholdEstimate(math.inf, (R_start, math.inf))
    schedule = []
    R = R_start * 0.5
    while R > _THRESHOLD_FLOOR:
        schedule.append(R)
        R *= 0.5
    R_ok = R_start
    for R in schedule + [0.0]:
        if not chain.step(alpha, R):
            break
        R_ok = R
    else:
        return ThresholdEstimate(0.0, (0.0, 0.0))
    lo, hi = R, R_ok
    for _ in range(_THRESHOLD_BISECTIONS):
        mid = math.sqrt(lo * hi) if lo > 0.0 else 0.5 * hi
        if chain.step(alpha, mid):
            hi = mid
        else:
            lo = mid
    return ThresholdEstimate(hi, (lo, hi))
