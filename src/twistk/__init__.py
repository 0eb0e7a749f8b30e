"""Spectral solver and verification harness for twisted
constant-scalar-curvature Kahler metrics on flat complex tori."""

__version__ = "0.1.0"

from .engine import (
    ApproximateSolution,
    IFTCertificate,
    NewtonReport,
    PositivityReport,
    StepRecord,
    ThresholdEstimate,
    WarmChain,
    R_to_t,
    build_approximate_solution,
    continuity_sweep,
    estimate_R_threshold,
    ift_certificate,
    newton_solve,
    perturb_twist,
    proportional_seed_potential,
    seed_chain,
    seed_structure,
    solve_step,
    t_to_R,
    trivial_twist,
    twisted_residual,
)
from .errors import (
    ConfigError,
    DegenerateMetricError,
    DomainError,
    IterationLimitError,
    PreconditionError,
    RefusalError,
    ShapeError,
    SolvabilityError,
    StagnationError,
    TwistkError,
    UnsupportedOrderError,
)
from .geometry import (
    HermitianFormField,
    KahlerStructure,
    class_trace,
    form_pairing,
    gradient_pairing,
    laplacian,
    ricci_form,
    scalar_curvature,
    trace_form,
    volume_average,
    volume_mean_zero,
    volume_rms,
)
from .grid import (
    PeriodicGrid,
    ScalarField,
    flat_poisson_solve,
    make_trig_field,
    random_smooth_field,
    set_fft_workers,
    sobolev_norm,
)
from .operators import (
    LinearOperatorHandle,
    dense_assemble,
)
from .solvers import (
    EigenEstimate,
    SolverConfig,
    extreme_eigenvalue,
    green_solve,
    inverse_norm_estimate,
    newton_linear_solve,
    solve_F,
    solve_shifted,
)

__all__ = [name for name in dir() if not name.startswith("_")]
