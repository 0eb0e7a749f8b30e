"""The package namespace: its exports, resolved on first access."""

from __future__ import annotations

import importlib
import types

import pytest

import twistk
from twistk.config import MAX_LADDER_ORDER, RunConfig, SolverConfig

# the package's public names: 61 re-exports and 6 layer modules
EXPORTED = [
    "ApproximateSolution", "ConfigError", "DegenerateMetricError", "DomainError",
    "EigenEstimate", "HermitianFormField", "IFTCertificate", "IterationLimitError",
    "KahlerStructure", "LinearOperatorHandle", "NewtonReport", "PeriodicGrid",
    "PositivityReport", "PreconditionError", "R_to_t", "RefusalError", "ScalarField",
    "ShapeError", "SolvabilityError", "SolverConfig", "StagnationError", "StepRecord",
    "ThresholdEstimate", "TwistkError", "UnsupportedOrderError", "WarmChain",
    "build_approximate_solution", "class_trace", "continuity_sweep", "dense_assemble",
    "engine", "errors", "estimate_R_threshold", "extreme_eigenvalue",
    "flat_poisson_solve", "form_pairing", "geometry", "gradient_pairing", "green_solve",
    "grid", "ift_certificate", "inverse_norm_estimate", "laplacian", "make_trig_field",
    "newton_linear_solve", "newton_solve", "operators", "perturb_twist",
    "proportional_seed_potential", "random_smooth_field", "ricci_form",
    "scalar_curvature", "seed_chain", "seed_structure", "set_fft_workers",
    "sobolev_norm", "solve_F", "solve_shifted", "solve_step", "solvers", "t_to_R",
    "trace_form", "trivial_twist", "twisted_residual", "volume_average",
    "volume_mean_zero", "volume_rms",
]


def test_the_exports_are_pinned():
    assert len(EXPORTED) == 67
    assert sorted(twistk.__all__) == EXPORTED


@pytest.mark.parametrize("name", EXPORTED)
def test_each_name_is_the_object_of_its_defining_module(name):
    value = getattr(twistk, name)
    if isinstance(value, types.ModuleType):
        assert value is importlib.import_module(f"twistk.{name}")
    else:
        assert getattr(importlib.import_module(value.__module__), name) is value
    # kept in the namespace, so the next access does not resolve it again
    assert vars(twistk)[name] is value


def test_the_moved_rules_are_single_definitions():
    assert twistk.SolverConfig is twistk.solvers.SolverConfig is SolverConfig
    assert twistk.engine.MAX_LADDER_ORDER is MAX_LADDER_ORDER


def test_dir_lists_every_name():
    assert set(EXPORTED) <= set(dir(twistk))


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_export'"):
        twistk.no_such_export


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from twistk import *", namespace)
    assert set(EXPORTED) <= set(namespace)
    assert namespace["solve_F"] is twistk.solvers.solve_F


def test_run_config_defaults_are_the_solver_tolerances():
    cfg, tols = RunConfig(scenario="single_solve"), SolverConfig()
    assert (cfg.newton_tol, cfg.krylov_tol) == (tols.newton_tol, tols.krylov_tol)
