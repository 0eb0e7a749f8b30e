"""Spectral solver and verification harness for twisted
constant-scalar-curvature Kahler metrics on flat complex tori.

The package's exports resolve on first access (PEP 562), so importing
a layer loads only the layers it imports itself: `twistk.config`,
`twistk.grid` and `twistk.geometry` load no solver module.  `_EXPORTS`
is the one list of the exports, by the module that defines each; a
resolved name is kept in the package's namespace.  The layer modules
named in `_SUBMODULES` resolve on first access too.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "config": (
        "SolverConfig",
    ),
    "engine": (
        "ApproximateSolution",
        "IFTCertificate",
        "NewtonReport",
        "PositivityReport",
        "StepRecord",
        "ThresholdEstimate",
        "WarmChain",
        "R_to_t",
        "build_approximate_solution",
        "continuity_sweep",
        "estimate_R_threshold",
        "ift_certificate",
        "newton_solve",
        "perturb_twist",
        "proportional_seed_potential",
        "seed_chain",
        "seed_structure",
        "solve_step",
        "t_to_R",
        "trivial_twist",
        "twisted_residual",
    ),
    "errors": (
        "ConfigError",
        "DegenerateMetricError",
        "DomainError",
        "IterationLimitError",
        "PreconditionError",
        "RefusalError",
        "ShapeError",
        "SolvabilityError",
        "StagnationError",
        "TwistkError",
        "UnsupportedOrderError",
    ),
    "geometry": (
        "HermitianFormField",
        "KahlerStructure",
        "class_trace",
        "form_pairing",
        "gradient_pairing",
        "laplacian",
        "ricci_form",
        "scalar_curvature",
        "trace_form",
        "volume_average",
        "volume_mean_zero",
        "volume_rms",
    ),
    "grid": (
        "PeriodicGrid",
        "ScalarField",
        "flat_poisson_solve",
        "make_trig_field",
        "random_smooth_field",
        "set_fft_workers",
        "sobolev_norm",
    ),
    "operators": (
        "LinearOperatorHandle",
        "dense_assemble",
    ),
    "solvers": (
        "EigenEstimate",
        "extreme_eigenvalue",
        "green_solve",
        "inverse_norm_estimate",
        "newton_linear_solve",
        "solve_F",
        "solve_shifted",
    ),
}
_SUBMODULES = ("engine", "errors", "geometry", "grid", "operators", "solvers")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it in this namespace itself
        return _import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
