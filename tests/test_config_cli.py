"""Run configs, binary field files, and the command-line front end."""

from __future__ import annotations

import ctypes
import dataclasses
import json
import math
import re
import struct
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import assume, given, strategies as st

import twistk.engine as engine
import twistk.runner as runner
import twistk.solvers as solvers
from twistk.cli import main
from twistk.config import (
    DEFAULT_T_SCHEDULE,
    SCENARIOS,
    RunConfig,
    canonical_form,
    default_config,
    parse_config,
    scenario_diagnostics,
)
from twistk.engine import (
    R_to_t,
    build_approximate_solution,
    t_to_R,
    twisted_residual,
)
from twistk.errors import ConfigError, DomainError
from twistk.fieldio import read_field, write_field
from twistk.geometry import HermitianFormField, KahlerStructure
from twistk.grid import (
    POCKETFFT_SOURCE,
    PeriodicGrid,
    euclid_mean_zero,
    fft_workers,
    make_trig_field,
    rms_norm,
    set_fft_workers,
)
from twistk.operators import LinearOperatorHandle
from twistk.runner import CSV_HEADER, run_scenario

from conftest import EYE1, trig_terms


class TestDefaults:
    def test_every_scenario_round_trips(self):
        for scenario in SCENARIOS:
            cfg = default_config(scenario)
            assert parse_config(canonical_form(cfg)) == cfg

    def test_canonical_form_is_reproducible(self):
        cfg = default_config("ladder_study")
        assert canonical_form(cfg) == canonical_form(cfg)

    def test_default_schedule_shape(self):
        sched = DEFAULT_T_SCHEDULE
        assert len(sched) == 20
        assert sched[0] == pytest.approx(0.05)
        assert sched[-1] == 1.0
        assert all(b > a for a, b in zip(sched, sched[1:]))
        assert default_config("continuity_sweep").t_schedule is sched

    def test_unknown_scenario_is_rejected(self):
        with pytest.raises(ConfigError):
            default_config("annul_the_torus")


class TestParseDiagnostics:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config('{"scenario": "single_solve"}')
        assert cfg.n == 1
        assert cfg.sizes == (32, 32)
        assert cfg.order == 2
        assert cfg.seed == 0

    def test_unknown_key_names_the_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"scenario": "single_solve", "newton_tolerance": 1e-9}')
        assert any("newton_tolerance" in d for d in err.value.diagnostics)

    @pytest.mark.parametrize("key", ["newton.tol", "x[0]", "a:b"])
    def test_unknown_key_keeps_its_line(self, key):
        with pytest.raises(ConfigError) as err:
            parse_config('{"scenario": "single_solve",\n' + json.dumps({key: 1})[1:])
        assert err.value.diagnostics == [f"{key}: unknown key (line 2)"]

    def test_bad_dimension(self):
        with pytest.raises(ConfigError):
            parse_config('{"scenario": "single_solve", "n": 3}')

    def test_odd_sizes(self):
        with pytest.raises(ConfigError):
            parse_config('{"scenario": "single_solve", "sizes": [7, 16]}')

    def test_non_hermitian_class_matrix(self):
        text = json.dumps({"scenario": "single_solve", "n": 2,
                           "sizes": [8, 8, 8, 8],
                           "g0_omega": [[1, [0, 1]], [[0, 1], 1]]})
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_non_positive_class_matrix(self):
        text = json.dumps({"scenario": "single_solve",
                           "g0_omega": [[-1.0]]})
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_term_wavevector_length(self):
        text = json.dumps({
            "scenario": "single_solve",
            "omega_potential": [
                {"amplitude": 0.1, "wavevector": [1], "phase": 0.0}
            ],
        })
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any("wavevector" in d for d in err.value.diagnostics)

    def test_decreasing_schedule(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"scenario": "continuity_sweep", '
                         '"t_schedule": [0.5, 0.3]}')
        assert any("t_schedule" in d for d in err.value.diagnostics)

    def test_both_schedules_conflict(self):
        with pytest.raises(ConfigError):
            parse_config('{"scenario": "single_solve", '
                         '"t_schedule": [0.5], "R_schedule": [1.0]}')

    def test_scalar_field_bounds(self):
        for fragment in ('"order": 9', '"newton_tol": 2.0', '"seed": -1',
                         '"out": ""'):
            with pytest.raises(ConfigError):
                parse_config('{"scenario": "single_solve", %s}' % fragment)

    def test_json_syntax_error_is_wrapped(self):
        with pytest.raises(ConfigError):
            parse_config('{"scenario": "single_solve",}')

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError):
            parse_config('["single_solve"]')

    def test_class_matrix_follows_the_geometry_tolerance(self):
        # 1e-11 off Hermitian at scale 100 is round-off for KahlerStructure
        cfg = parse_config(json.dumps({"scenario": "single_solve",
                                       "g0_omega": [[[100.0, 1e-11]]]}))
        assert cfg.g0_omega == ((100.0 + 1e-11j,),)
        for matrix, reason in (([[[100.0, 1e-9]]], "Hermitian"),
                               ([[0.0]], "positive definite")):
            with pytest.raises(ConfigError) as err:
                parse_config('{"scenario": "single_solve",\n'
                             f'"g0_omega": {json.dumps(matrix)}}}')
            (diag,) = err.value.diagnostics
            assert diag.startswith("g0_omega: matrix must be " + reason)
            assert diag.endswith("(line 2)")

    def test_repeated_weight_is_not_monotone(self):
        # ladder_study is the scenario that takes several weights; each
        # schedule holds two distinct ones, so only the monotone rule fails
        for schedule in ([50, 100, 100], [8, 4, 4]):
            with pytest.raises(ConfigError) as err:
                parse_config(json.dumps({"scenario": "ladder_study",
                                         "R_schedule": schedule}))
            assert err.value.diagnostics == [
                "R_schedule: must be strictly monotone (no weight repeats) (line 1)"]
        for schedule in ([8, 4], [50, 100]):
            cfg = parse_config(json.dumps({"scenario": "ladder_study",
                                           "R_schedule": schedule}))
            assert cfg.R_schedule == tuple(float(R) for R in schedule)

    @pytest.mark.parametrize("scenario, schedule", [
        ("ladder_study", []), ("threshold", [float("inf")]),
        ("ladder_study", [100.0, 100.0]), ("single_solve", [100.0, 100.0])])
    def test_bad_schedule_gets_no_scenario_rule_diagnostic(self, scenario, schedule):
        # the schedule's own diagnostic is the only one: the scenario's
        # weight-count rule would only restate it
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({"scenario": scenario, "R_schedule": schedule}))
        assert len(err.value.diagnostics) == 1
        assert err.value.diagnostics[0].startswith("R_schedule: ")
        assert scenario not in err.value.diagnostics[0]

    @pytest.mark.parametrize("term, diagnostic", [
        ({"amplitude": 0.2}, "perturbation.wavevector: must be 2 integers"),
        (3, "perturbation: term must be an object")],
        ids=["no-wavevector", "not-an-object"])
    def test_bad_perturbation_gets_no_scenario_rule_diagnostic(self, term, diagnostic):
        # the value is one term: its diagnostic names no list index, and
        # the scenario's perturbation rule would only restate it
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps({"scenario": "twist_perturbation",
                                     "perturbation": term}))
        assert err.value.diagnostics == [diagnostic + " (line 1)"]

    def test_missing_perturbation_is_a_scenario_rule(self):
        # parse_config fills the default term, so only a config built in
        # code can leave it out
        cfg = RunConfig(scenario="twist_perturbation", R_schedule=(100.0,),
                        perturbation=None)
        assert scenario_diagnostics(cfg) == [
            "perturbation: twist_perturbation needs a perturbation term"]

    @pytest.mark.parametrize("scenario, fields, key", [
        ("continuity_sweep", {"R_schedule": [1.0, 2.0]}, "R_schedule"),
        ("ladder_study", {"R_schedule": [100.0]}, "R_schedule"),
        ("ladder_study", {"order": 0}, "order"),
        ("threshold", {"t_schedule": [1.0]}, "t_schedule"),
        ("single_solve", {"R_schedule": [100.0, 50.0, 25.0]}, "R_schedule"),
        ("threshold", {"R_schedule": [8.0, 4.0]}, "R_schedule"),
        ("twist_perturbation", {"t_schedule": [0.5, 0.9]}, "t_schedule"),
        ("ladder_study", {"t_schedule": [0.1, 0.5]}, "t_schedule"),
    ])
    def test_scenario_rules_name_key_and_line(self, scenario, fields, key):
        text = json.dumps({"scenario": scenario, **fields}, indent=2)
        line = next(i for i, row in enumerate(text.splitlines(), start=1)
                    if f'"{key}"' in row)
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any(d.startswith(f"{key}: ") and d.endswith(f"(line {line})")
                   and scenario in d for d in err.value.diagnostics)

    def test_ladder_study_t_schedule_gets_one_diagnostic(self):
        # the ladder fits across an R_schedule: a t_schedule alone gets no
        # weight-count diagnostic for an R_schedule nobody gave, and one
        # beside an R_schedule (only a config built in code can hold
        # both) is not ignored
        rule = "t_schedule: ladder_study fits across an R_schedule; give R_schedule instead"
        with pytest.raises(ConfigError) as err:
            parse_config('{"scenario": "ladder_study",\n"t_schedule": [0.1, 0.5]}')
        assert err.value.diagnostics == [rule + " (line 2)"]
        for R_schedule in (None, (50.0, 100.0)):
            cfg = RunConfig(scenario="ladder_study", t_schedule=(0.1, 0.5),
                            R_schedule=R_schedule)
            assert scenario_diagnostics(cfg) == [rule]

    def test_repeated_keys_name_key_and_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"scenario": "single_solve", "order": 1, "order": 2,\n'
                         '"sizes": [8, 8], "sizes": [16, 16]}')
        assert err.value.diagnostics == ["order: repeated key (line 1)",
                                         "sizes: repeated key (line 2)"]
        terms = ('{"scenario": "single_solve", "alpha_potential": [\n'
                 '{"amplitude": 0.1, "wavevector": [1, 0]},\n'
                 '{"amplitude": 0.1, "wavevector": [0, 1],\n'
                 ' "amplitude": 0.2}]}')
        with pytest.raises(ConfigError) as err:
            parse_config(terms)
        assert err.value.diagnostics == [
            "alpha_potential[1].amplitude: repeated key (line 4)"]

    def test_diagnostics_accumulate(self):
        with pytest.raises(ConfigError) as err:
            parse_config('{"scenario": "single_solve", "n": 3, "order": 11}')
        assert len(err.value.diagnostics) >= 2


class TestFieldIO:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((8, 8))
        path = tmp_path / "field.bin"
        write_field(path, 1, values)
        n, back = read_field(path)
        assert n == 1
        assert np.array_equal(back, values)

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "field.bin"
        path.write_bytes(b"NOTAFLD0" + b"\x00" * 64)
        with pytest.raises(DomainError):
            read_field(path)

    def test_truncated_payload_is_rejected(self, tmp_path):
        path = tmp_path / "field.bin"
        write_field(path, 1, np.ones((8, 8)))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(DomainError):
            read_field(path)

    @pytest.mark.parametrize("header", [
        # rank 2 with no axis sizes
        b"TWKFLD01" + struct.pack("<II", 1, 2),
        # 65536^4 values, a count that wraps to 0 in int64, and no payload
        b"TWKFLD01" + struct.pack("<II4I", 2, 4, *(65536,) * 4),
    ], ids=["no-sizes", "wrapping-count"])
    def test_malformed_header_is_rejected(self, tmp_path, header):
        path = tmp_path / "field.bin"
        path.write_bytes(header)
        with pytest.raises(DomainError):
            read_field(path)

    def test_non_finite_values_are_rejected(self, tmp_path):
        values = np.ones((8, 8))
        values[0, 0] = np.nan
        with pytest.raises(DomainError):
            write_field(tmp_path / "field.bin", 1, values)

    def test_complex_values_are_rejected(self, tmp_path):
        # a cast to float64 would store only the real part
        path = tmp_path / "field.bin"
        with pytest.raises(DomainError, match="must be real"):
            write_field(path, 1, np.ones((8, 8)) + 1j)
        assert not path.exists()


class TestCommandLine:
    def test_solve_writes_artifacts_and_converges(self, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", "--grid", "16,16", "--out", str(out)])
        assert code == 0
        header, row = (out / "steps.csv").read_text().splitlines()
        assert header == "step,t,R,residual_sup,residual_l2,lambda1,newton_iters,wall_ms"
        assert float(row.split(",")[3]) <= 1e-9
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        # the run names the transform module it loaded and scipy's version
        versions = json.loads((out / "manifest.json").read_text())["versions"]
        assert versions["pocketfft"] == POCKETFFT_SOURCE
        assert versions["scipy"] == scipy.__version__
        assert (POCKETFFT_SOURCE == "scipy.fft._pocketfft"
                or Path(POCKETFFT_SOURCE).name.startswith("pypocketfft."))
        assert (out / "fields" / "potential.bin").exists()
        n, pot = read_field(out / "fields" / "potential.bin")
        assert n == 1
        assert pot.shape == (16, 16)

    def test_four_axis_grid_switches_dimension(self, tmp_path):
        cfg = tmp_path / "two.json"
        cfg.write_text(json.dumps({
            "scenario": "single_solve",
            "n": 2,
            "sizes": [6, 6, 6, 6],
            "R_schedule": [100.0],
            "alpha_potential": [
                {"amplitude": 0.1, "wavevector": [1, 0, 0, 0], "phase": 0.0}
            ],
        }))
        out = tmp_path / "run4"
        code = main(["solve", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n"] == 2

    def test_grid_override_must_stay_consistent(self, tmp_path, capsys):
        # with no config file, four sizes switch to n = 2 and its defaults
        out = tmp_path / "n2"
        assert main(["solve", "--grid", "6,6,6,6", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n"] == 2
        # an explicit two-axis term in the file cannot follow the switch
        path = tmp_path / "cfg.json"
        path.write_text('{"scenario": "single_solve",\n'
                        '"alpha_potential": [{"amplitude": 0.1, "wavevector": [1, 0]}]}')
        assert main(["solve", "--grid", "6,6,6,6", "--config", str(path),
                     "--out", str(tmp_path / "r")]) == 2
        assert ("twistk: config error: alpha_potential[0].wavevector: must be "
                "4 integers (line 2)" in capsys.readouterr().err)

    def test_threads_are_set_only_for_a_valid_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "single_solve", "alpha_potential": [
            {"amplitude": 0.1, "wavevector": [1, 0]}]}))
        before = fft_workers()
        try:
            assert main(["solve", "--config", str(path), "--grid", "6,6,6,6",
                         "--threads", "2", "--out", str(tmp_path / "r")]) == 2
            assert fft_workers() == before
        finally:
            set_fft_workers(before)

    def test_threads_diagnostic_comes_with_the_config_ones(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(["solve", "--grid", "16", "--threads", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["twistk: config error: sizes: must be 2 integers",
                                    "twistk: config error: --threads: must be >= 1"]
        assert not out.exists()

    def test_file_diagnostics_name_lines_and_flag_diagnostics_none(
            self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"scenario": "single_solve",\n"order": 99}')
        assert main(["solve", "--config", str(path), "--tol", "2.0",
                     "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [
            "twistk: config error: order: must be an integer in "
            f"[0, {engine.MAX_LADDER_ORDER}] (line 2)",
            "twistk: config error: newton_tol: must be a number in (0, 1)"]

    @pytest.mark.parametrize("n", ["true", "1.0", "2.0"])
    def test_dimension_must_be_a_json_integer(self, tmp_path, capsys, n):
        path = tmp_path / "cfg.json"
        path.write_text('{"scenario": "single_solve",\n'
                        f'"n": {n}, "sizes": [8, 8]}}')
        out = tmp_path / "run"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
        assert ("twistk: config error: n: must be 1 or 2 (line 2)"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_bad_grid_is_usage_error(self, tmp_path, capsys):
        assert main(["solve", "--grid", "7,16", "--out", str(tmp_path)]) == 2
        # a size count that is not 2 or 4 leaves n alone: the one
        # diagnostic is about sizes, the key the user gave
        for sizes in ("16", "16,16,16,16,16,16"):
            capsys.readouterr()
            assert main(["solve", "--grid", sizes, "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err.splitlines() == [
                "twistk: config error: sizes: must be 2 integers"]

    def test_missing_config_file_is_usage_error(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["solve", "--config", str(missing)]) == 2

    def test_non_utf8_config_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + '{"scenario": "single_solve"}'.encode("utf-16-le"))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("twistk: ") and str(path) in err

    @pytest.mark.parametrize("entry", ["Infinity", "[1.0, Infinity]"])
    def test_non_finite_matrix_entry_is_a_config_error(self, tmp_path, capsys,
                                                       entry):
        path = tmp_path / "cfg.json"
        path.write_text('{"scenario": "single_solve",\n'
                        f'"g0_omega": [[{entry}]]}}')
        out = tmp_path / "run"
        assert main(["solve", "--grid", "8,8", "--config", str(path),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "twistk: config error: g0_omega[0][0]: matrix entries must be " \
               "finite numbers" in err
        assert "(line 2)" in err
        assert not out.exists()

    @pytest.mark.parametrize("fragment, diagnostic", [
        ('"R_schedule": [1%s]', "R_schedule: must be a non-empty list of "
                                "finite numbers"),
        ('"newton_tol": 1%s', "newton_tol: must be a number in (0, 1)"),
        ('"alpha_potential": [{"amplitude": 1%s, "wavevector": [1, 0]}]',
         "alpha_potential[0].amplitude: must be a finite number"),
    ], ids=["schedule", "tolerance", "term"])
    def test_integer_beyond_float_range_is_a_config_error(
            self, tmp_path, capsys, fragment, diagnostic):
        path = tmp_path / "cfg.json"
        path.write_text('{"scenario": "single_solve",\n'
                        + fragment % ("0" * 400) + "}")
        out = tmp_path / "run"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
        assert (f"twistk: config error: {diagnostic} (line 2)"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_subcommand_scenario_is_applied_before_the_rules(self, tmp_path,
                                                             capsys):
        # an R_schedule breaks a continuity_sweep rule but suits a solve
        path = tmp_path / "cfg.json"
        path.write_text('{"scenario": "continuity_sweep",\n'
                        '"R_schedule": [100.0]}')
        out = tmp_path / "solve"
        assert main(["solve", "--grid", "16,16", "--config", str(path),
                     "--out", str(out)]) == 0
        assert _strict_load(out / "summary.json")["scenario"] == "single_solve"
        assert main(["sweep", "--grid", "16,16", "--config", str(path),
                     "--out", str(tmp_path / "sweep")]) == 2
        assert ("twistk: config error: R_schedule: continuity_sweep walks a "
                "t_schedule; give t_schedule instead (line 2)"
                in capsys.readouterr().err)

    def test_config_diagnostics_are_usage_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"scenario": "single_solve", "mystery": 1}')
        assert main(["solve", "--config", str(bad)]) == 2
        assert "mystery" in capsys.readouterr().err
        # weights that are not positive or not finite
        for command, key, schedule, message in (
                ("ladder", "R_schedule", "[0, 50]", "entries must be positive"),
                ("threshold", "R_schedule", "[-1]", "entries must be positive"),
                ("threshold", "R_schedule", "[Infinity]",
                 "must be a non-empty list of finite numbers"),
                # one weight per solve: more is not dropped
                ("solve", "R_schedule", "[100, 50, 25]",
                 "single_solve takes one weight, got 3"),
                ("perturb", "t_schedule", "[0.5, 0.9]",
                 "twist_perturbation takes one weight, got 2"),
                # t = 1 is the weight 0, where no descent starts
                ("threshold", "t_schedule", "[1.0]",
                 "threshold needs a positive first weight")):
            bad.write_text('{"%s": %s}' % (key, schedule))
            out = tmp_path / command
            assert main([command, "--grid", "16,16", "--config", str(bad),
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"twistk: config error: {key}: {message}" in err
            assert "(line 1)" in err
            # one diagnostic per bad schedule: no scenario rule repeats it
            assert err.count("twistk: config error:") == 1
            assert "Traceback" not in err
            assert not out.exists()

    def test_out_that_names_a_file_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep")
        assert main(["solve", "--grid", "8,8", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"twistk: cannot write {out}: ")
        assert len(err.splitlines()) == 1
        assert out.read_text() == "keep"
        with pytest.raises(OSError):
            run_scenario(RunConfig(scenario="single_solve", out=str(out)))

    @pytest.mark.parametrize("command, config", [
        ("sweep", {"t_schedule": [0.05, 0.525, 1.0]}),
        ("threshold", {"alpha_potential": [
            {"amplitude": 0.1, "wavevector": [1, 0], "phase": 0.0}]}),
        ("ladder", {"R_schedule": [50, 100], "order": 2}),
    ], ids=["sweep", "threshold", "ladder"])
    def test_a_study_runs_as_its_subcommand(self, tmp_path, command, config):
        # the studies of README "Studies": the sweep and the threshold
        # reach the untwisted end, and rung m of the ladder decays as R^-m
        path = tmp_path / "study.json"
        path.write_text(json.dumps(config))
        out = tmp_path / command
        assert main([command, "--grid", "16,16", "--config", str(path),
                     "--out", str(out)]) == 0
        summary = _strict_load(out / "summary.json")
        if command == "sweep":
            assert summary["smallest_converged_R"] == 0.0
            assert all(r["converged"] for r in summary["records"])
        elif command == "threshold":
            assert summary["threshold"] == 0.0
        else:
            assert summary["orders"] == [1, 2]
            for m in summary["orders"]:
                assert abs(summary[f"slope_m{m}"] + m) <= 0.2

    def test_option_validation(self, tmp_path):
        out = str(tmp_path / "x")
        assert main(["solve", "--tol", "2.0", "--out", out]) == 2
        assert main(["solve", "--seed", "-3", "--out", out]) == 2
        assert main(["solve", "--threads", "0", "--out", out]) == 2

    def test_verify_csv_is_identical_across_fft_thread_counts(self, tmp_path):
        outputs = []
        try:
            for threads in ("1", "2"):
                out = tmp_path / f"threads{threads}"
                assert main(["verify", "--threads", threads, "--out", str(out)]) == 0
                outputs.append((out / "verify.csv").read_bytes())
        finally:
            set_fft_workers(1)
        assert outputs[0] == outputs[1]

    def test_threshold_is_identical_across_fft_thread_counts(self, tmp_path):
        # every field but the wall times, with the half-grid stage active
        outputs = []
        try:
            for threads in ("1", "2"):
                out = tmp_path / f"threads{threads}"
                assert main(["threshold", "--threads", threads,
                             "--out", str(out)]) == 0
                rows = [row.rsplit(",", 1)[0] for row in
                        (out / "steps.csv").read_text().splitlines()]
                records = _strict_load(out / "summary.json")["records"]
                for record in records:
                    assert record["coarse_iters"] > 0
                    del record["wall_ms"]
                outputs.append((rows, records))
        finally:
            set_fft_workers(1)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command, config, key", [
        ("sweep", {"scenario": "continuity_sweep", "R_schedule": [1.0, 2.0]},
         "R_schedule"),
        # a solve config whose one weight the ladder subcommand cannot fit
        ("ladder", {"scenario": "single_solve", "R_schedule": [100.0]},
         "R_schedule"),
        ("ladder", {"scenario": "ladder_study", "order": 0}, "order"),
        ("ladder", {"scenario": "ladder_study", "R_schedule": [100.0, 100.0]},
         "R_schedule"),
    ])
    def test_scenario_rule_is_a_config_error(self, tmp_path, capsys, command,
                                             config, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert f"twistk: config error: {key}:" in capsys.readouterr().err
        assert not out.exists()


EYE2_ROWS = ((1.0, 0.0), (0.0, 1.0))


class TestEigenArtifacts:
    """The cause of a nan lambda1 can be read from summary.json alone."""

    def test_sweep_summary_names_a_restart_budget_failure(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(solvers, "_DAVIDSON_RESTARTS", 0)
        out = tmp_path / "sweep"
        # R = 4 on 16^2: the leading pair needs more than one basis fill
        cfg = RunConfig(scenario="continuity_sweep", sizes=(16, 16),
                        alpha_potential=((0.2, (1, 0), 0.0), (0.1, (0, 1), 0.3)),
                        t_schedule=(0.2,), out=str(out))
        assert run_scenario(cfg) == 0
        header, row = (out / "steps.csv").read_text().splitlines()
        assert header == CSV_HEADER
        assert row.split(",")[5] == "nan"
        summary = json.loads((out / "summary.json").read_text())
        (record,) = summary["records"]
        assert record["converged"] is True
        assert record["eigen_error"].startswith(
            "IterationLimitError: extreme_eigenvalue:")
        assert "within 0 restarts" in record["eigen_error"]

    def test_single_solve_records_why_lambda1_is_nan(self, tmp_path):
        # 6^4 is too coarse for the eigenpair certificate of this twist
        out = tmp_path / "solve"
        cfg = RunConfig(scenario="single_solve", n=2, sizes=(6, 6, 6, 6),
                        g0_omega=EYE2_ROWS, g0_alpha=EYE2_ROWS,
                        R_schedule=(100.0,),
                        alpha_potential=((0.2, (1, 0, 0, 0), 0.0),),
                        out=str(out))
        assert run_scenario(cfg) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["lambda1"] is None
        (record,) = summary["records"]
        assert record["eigen_error"].startswith(
            "IterationLimitError: extreme_eigenvalue: eigenpair residual")

    def test_n2_sweep_certifies_lambda1(self, tmp_path):
        out = tmp_path / "sweep2"
        cfg = RunConfig(scenario="continuity_sweep", n=2, sizes=(12, 12, 12, 12),
                        g0_omega=EYE2_ROWS, g0_alpha=EYE2_ROWS,
                        alpha_potential=((0.2, (1, 0, 0, 0), 0.0),),
                        t_schedule=(0.5, 1.0), out=str(out))
        assert run_scenario(cfg) == 0
        rows = (out / "steps.csv").read_text().splitlines()[1:]
        lambdas = [float(row.split(",")[5]) for row in rows]
        assert all(lam < 0.0 for lam in lambdas)
        assert abs(lambdas[-1] + 1.0 / 16.0) <= 1e-8
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["records"]) == 2
        for record in summary["records"]:
            assert record["eigen_error"] == ""
            assert record["eigen_iterations"] > 1
            assert record["eigen_residual"] <= 1e-8


def test_single_solve_meets_the_verify_tolerances(tmp_path):
    """The verify suite's single-solve problem (32^2, twist 0.2 cos x,
    R = 100, seed 0) through the single_solve scenario, which starts
    from `seed_chain`'s half-grid ladder and solves by `solve_step`."""
    out = tmp_path / "solve"
    cfg = parse_config(json.dumps({"scenario": "single_solve", "seed": 0, "out": str(out)}))
    assert (cfg.sizes, cfg.R_schedule, cfg.alpha_potential) == (
        (32, 32), (100.0,), ((0.2, (1, 0), 0.0),))
    assert run_scenario(cfg) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["residual_sup"] <= 1e-9
    assert abs(summary["mean_scalar"]) <= 1e-7
    assert abs(summary["mean_trace"] - summary["class_trace"]) <= 1e-7
    assert abs(summary["constant"] - summary["constant_from_classes"]) <= 1e-7
    assert summary["seed"]["ladder_sizes"] == [16, 16]
    assert summary["records"][0]["coarse_error"] == ""


def _steps(out):
    """steps.csv rows as floats, header checked."""
    header, *rows = (out / "steps.csv").read_text().splitlines()
    assert header == CSV_HEADER
    return [[float(v) for v in row.split(",")] for row in rows]


class TestTwistPerturbation:
    """The twist_perturbation scenario end to end through run_scenario."""

    # (residual_sup, residual_l2, newton_iters) per row; row 0 is the base
    # solve.  newton_iters counts the configured grid's iterations: each
    # stage's half-grid solve (3 iterations) leaves at most one for it
    PINNED = {
        1: [(0.0, 0.0, 0),
            (1.128057647292735e-10, 6.667552223523676e-11, 0),
            (2.842170943040401e-14, 1.5485919901226005e-14, 1),
            (2.842170943040401e-14, 1.7763568394002505e-14, 1)],
        2: [(0.0, 0.0, 0),
            (8.526512829121202e-14, 5.0242958677880804e-14, 1),
            (8.526512829121202e-14, 4.713207304057789e-14, 1)],
    }

    @staticmethod
    def config(n, out, **kwargs):
        if n == 1:
            return RunConfig(scenario="twist_perturbation", sizes=(16, 16),
                             R_schedule=(100.0,), perturbation=(0.2, (1, 0), 0.0),
                             perturbation_steps=3, out=str(out), **kwargs)
        return RunConfig(scenario="twist_perturbation", n=2, sizes=(8, 8, 8, 8),
                         g0_omega=EYE2_ROWS, g0_alpha=EYE2_ROWS,
                         R_schedule=(100.0,),
                         perturbation=(0.1, (1, 0, 0, 0), 0.0),
                         perturbation_steps=2, out=str(out), **kwargs)

    @pytest.mark.parametrize("n", [1, 2])
    def test_stages_are_pinned(self, tmp_path, n):
        out = tmp_path / f"perturb{n}"
        assert run_scenario(self.config(n, out)) == 0
        rows = _steps(out)
        assert [(r[3], r[4], int(r[6])) for r in rows] == self.PINNED[n]
        assert all(r[2] == 100.0 for r in rows)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["success"] is True
        assert summary["stages"] == len(rows) - 1
        assert summary["stages_converged"] == len(rows) - 1
        assert summary["final_residual_sup"] == rows[-1][3]

    def test_the_n2_default_perturbation_is_lifted(self, tmp_path):
        out = tmp_path / "perturb_default"
        cfg = parse_config(json.dumps({"scenario": "twist_perturbation", "n": 2,
                                       "sizes": [8, 8, 8, 8], "out": str(out)}))
        assert cfg.perturbation == (0.2, (1, 0, 0, 0), 0.0)
        assert run_scenario(cfg) == 0

    def test_base_is_checked_at_the_solve_tolerance(self, tmp_path):
        # the base converges to about 5e-8, inside newton_tol 1e-7
        out = tmp_path / "perturb_loose"
        cfg = dataclasses.replace(self.config(1, out), R_schedule=(10.0,),
                                  alpha_potential=((0.3, (1, 0), 0.0),),
                                  order=1, newton_tol=1e-7)
        assert run_scenario(cfg) == 0
        summary = _strict_load(out / "summary.json")
        assert summary["base_converged"] is True
        assert summary["seed"] == {"source": "ladder[1]", "ladder_error": "",
                                   "ladder_sizes": [8, 8]}
        assert summary["stages_converged"] == 3

    def test_failed_stage_is_not_counted_as_converged(self, tmp_path,
                                                      monkeypatch):
        original = engine.newton_solve
        calls = []

        def third_fails(K0, *args, **kwargs):
            # fine solve 1 is the base solve, 2 and 3 the first two
            # stages; the half-grid solves before them are not counted
            report = original(K0, *args, **kwargs)
            if K0.grid.sizes != (16, 16):
                return report
            calls.append(report)
            if len(calls) == 3:
                report = dataclasses.replace(report, converged=False,
                                             message="forced failure")
            return report

        monkeypatch.setattr(engine, "newton_solve", third_fails)
        out = tmp_path / "perturb_fail"
        assert run_scenario(self.config(1, out)) == 1
        rows = _steps(out)
        # base, the converged first stage and the failed second stage
        assert len(rows) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["success"] is False
        assert summary["stages_converged"] == 1


def _strict_load(path):
    """json.loads that refuses the non-JSON tokens NaN, Infinity, -Infinity."""
    def refuse(token):
        raise ValueError(f"non-JSON constant {token} in {path.name}")

    return json.loads(path.read_text(), parse_constant=refuse)


def _force_failure(monkeypatch, when):
    """Make engine.newton_solve report failure on calls where when(R) holds."""
    original = engine.newton_solve

    def failing(K0, alpha, R, *args, **kwargs):
        report = original(K0, alpha, R, *args, **kwargs)
        if when(R):
            report = dataclasses.replace(report, converged=False,
                                         message="forced failure")
        return report

    monkeypatch.setattr(engine, "newton_solve", failing)


class TestSummaryRecords:
    """summary.json is strict JSON and names the seed of every solve."""

    def test_every_scenario_writes_strict_json(self, tmp_path, monkeypatch):
        configs = {
            # 6^4 is too coarse for the eigenpair certificate: lambda1 is nan
            "single_solve": RunConfig(
                scenario="single_solve", n=2, sizes=(6, 6, 6, 6),
                g0_omega=EYE2_ROWS, g0_alpha=EYE2_ROWS, R_schedule=(100.0,),
                alpha_potential=((0.2, (1, 0, 0, 0), 0.0),)),
            "ladder_study": RunConfig(
                scenario="ladder_study", sizes=(16, 16), R_schedule=(50.0, 100.0),
                order=1, omega_potential=((0.15, (1, 1), 0.0),),
                alpha_potential=((0.15, (1, 1), 0.0),)),
            "continuity_sweep": RunConfig(
                scenario="continuity_sweep", sizes=(16, 16),
                alpha_potential=((0.2, (1, 0), 0.0),), t_schedule=(0.5, 1.0)),
            "twist_perturbation": TestTwistPerturbation.config(1, "unused"),
            "verify_suite": RunConfig(scenario="verify_suite"),
        }
        assert set(configs) | {"threshold"} == set(SCENARIOS)
        for scenario, cfg in configs.items():
            out = tmp_path / scenario
            run_scenario(dataclasses.replace(cfg, out=str(out)))
            summary = _strict_load(out / "summary.json")
            assert summary["scenario"] == scenario
        assert _strict_load(tmp_path / "single_solve" / "summary.json")["lambda1"] is None

        # the first weight fails, so no weight is verified: threshold inf
        _force_failure(monkeypatch, lambda R: True)
        out = tmp_path / "threshold"
        cfg = RunConfig(scenario="threshold", sizes=(16, 16), R_schedule=(8.0,),
                        alpha_potential=((0.2, (1, 0), 0.0),), out=str(out))
        assert run_scenario(cfg) == 1
        summary = _strict_load(out / "summary.json")
        assert summary["threshold"] is None
        assert summary["bracket_low"] == 8.0
        assert summary["bracket_high"] is None

    def test_ladder_failure_is_kept_beside_the_flat_seed(self, tmp_path):
        # g0_alpha not proportional to g0_omega: flat seed, and the
        # trace of alpha in the flat metric is not constant
        out = tmp_path / "solve"
        cfg = RunConfig(scenario="single_solve", n=2, sizes=(6, 6, 6, 6),
                        g0_omega=EYE2_ROWS, g0_alpha=((2.0, 0.0), (0.0, 3.0)),
                        R_schedule=(100.0,), order=2,
                        alpha_potential=((0.1, (1, 0, 0, 0), 0.0),),
                        out=str(out))
        run_scenario(cfg)
        seed = _strict_load(out / "summary.json")["seed"]
        assert seed["source"] == "flat"
        assert seed["ladder_error"].startswith("PreconditionError:")
        # a 6-point axis has no half grid: the ladder ran on the configured grid
        assert seed["ladder_sizes"] == [6, 6, 6, 6]

    def test_seed_records_of_the_other_scenarios(self, tmp_path):
        twist = ((0.2, (1, 0), 0.0),)
        runs = {
            "continuity_sweep": RunConfig(scenario="continuity_sweep",
                                          sizes=(16, 16), alpha_potential=twist,
                                          t_schedule=(0.5, 1.0)),
            "threshold": RunConfig(scenario="threshold", sizes=(16, 16),
                                   R_schedule=(8.0,), alpha_potential=twist),
            "twist_perturbation": TestTwistPerturbation.config(1, "unused"),
        }
        for scenario, cfg in runs.items():
            out = tmp_path / scenario
            assert run_scenario(dataclasses.replace(cfg, out=str(out))) == 0
            seed = _strict_load(out / "summary.json")["seed"]
            assert seed == {"source": "ladder[2]", "ladder_error": "",
                            "ladder_sizes": [8, 8]}, scenario

    def test_sweep_cohomology_is_taken_at_the_last_converged_weight(
            self, tmp_path, monkeypatch):
        _force_failure(monkeypatch, lambda R: R == 0.0)
        out = tmp_path / "sweep"
        cfg = RunConfig(scenario="continuity_sweep", sizes=(16, 16),
                        alpha_potential=((0.2, (1, 0), 0.0),),
                        t_schedule=(0.5, 1.0), out=str(out))
        assert run_scenario(cfg) == 1
        summary = _strict_load(out / "summary.json")
        assert summary["smallest_converged_R"] == 1.0
        # flat torus, twist class 1: sbar - R * c = -R at the solved R = 1
        assert summary["constant_from_classes"] == pytest.approx(-1.0, abs=1e-12)
        assert summary["constant"] == pytest.approx(-1.0, abs=1e-9)

    def test_sweep_to_the_untwisted_end_writes_a_positive_zero_constant(
            self, tmp_path):
        # at R = 0 the class constant 0.0 - R * c is 0.0, where -R * c
        # would be -0.0
        out = tmp_path / "sweep"
        cfg = RunConfig(scenario="continuity_sweep", sizes=(16, 16),
                        alpha_potential=((0.2, (1, 0), 0.0),),
                        t_schedule=(0.5, 1.0), out=str(out))
        assert run_scenario(cfg) == 0
        summary = _strict_load(out / "summary.json")
        assert summary["smallest_converged_R"] == 0.0
        value = summary["constant_from_classes"]
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert '"constant_from_classes": 0.0,' in (out / "summary.json").read_text()

    @pytest.mark.parametrize("scenario, fields", [
        ("continuity_sweep", {"t_schedule": [0.5, 1.0]}),
        ("threshold", {}),
    ], ids=["continuity_sweep", "threshold"])
    def test_omega_potential_seeds_the_sweep_and_the_threshold(
            self, scenario, fields, tmp_path):
        out = tmp_path / scenario
        text = json.dumps({
            "scenario": scenario, "sizes": [16, 16], "order": 0, "out": str(out),
            "omega_potential": [
                {"amplitude": 0.1, "wavevector": [1, 1], "phase": 0.0}
            ], **fields,
        })
        assert run_scenario(parse_config(text)) == 0
        summary = _strict_load(out / "summary.json")
        assert summary["seed"] == {"source": "explicit-potential",
                                   "ladder_error": "", "ladder_sizes": []}
        assert summary["records"][0]["warm_source"] == "explicit-potential"

    @pytest.mark.parametrize("cfg, key", [
        (RunConfig(scenario="continuity_sweep", sizes=(16, 16),
                   alpha_potential=((0.2, (1, 0), 0.0),)), "t_schedule"),
        (RunConfig(scenario="continuity_sweep", sizes=(16, 16),
                   alpha_potential=((0.2, (1, 0), 0.0),), R_schedule=(1.0,)),
         "R_schedule"),
        (RunConfig(scenario="twist_perturbation", sizes=(16, 16),
                   R_schedule=(100.0,)), "perturbation"),
        # the sweep is seeded at its first t, so no weight may stand beside it
        (RunConfig(scenario="continuity_sweep", sizes=(16, 16),
                   alpha_potential=((0.2, (1, 0), 0.0),), t_schedule=(0.5, 1.0),
                   R_schedule=(1.0,)), "R_schedule"),
        # t = 1 is the weight 0, where no descent starts
        (RunConfig(scenario="threshold", sizes=(16, 16), t_schedule=(1.0,)),
         "t_schedule"),
        # a solve takes one weight, and there is no fallback weight
        (RunConfig(scenario="single_solve", sizes=(16, 16),
                   R_schedule=(100.0, 50.0)), "R_schedule"),
        (RunConfig(scenario="threshold", sizes=(8, 8)), "R_schedule"),
        # the ladder fits across an R_schedule, and a t_schedule beside one
        # is not ignored
        (RunConfig(scenario="ladder_study", sizes=(16, 16), t_schedule=(0.1, 0.5)),
         "t_schedule"),
        (RunConfig(scenario="ladder_study", sizes=(16, 16), t_schedule=(0.1, 0.5),
                   R_schedule=(50.0, 100.0)), "t_schedule"),
    ])
    def test_code_built_scenario_rule_fails_before_any_solve(
            self, cfg, key, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solver work started")

        for name in ("seed_structure", "seed_chain", "newton_solve",
                     "continuity_sweep", "build_approximate_solution"):
            monkeypatch.setattr(runner, name, refuse)
        out = tmp_path / "run"
        assert run_scenario(dataclasses.replace(cfg, out=str(out))) == 1
        summary = _strict_load(out / "summary.json")
        assert summary["success"] is False
        assert summary["error"].startswith(f"ConfigError: {key}:")
        assert not (out / "steps.csv").exists()

    def test_code_built_unknown_scenario_is_a_config_error(self, tmp_path):
        out = tmp_path / "run"
        assert run_scenario(RunConfig(scenario="bogus", out=str(out))) == 1
        summary = _strict_load(out / "summary.json")
        assert summary == {"scenario": "bogus", "success": False,
                           "error": "ConfigError: scenario: must be one of "
                                    + ", ".join(SCENARIOS)}
        assert not (out / "steps.csv").exists()

    def test_code_built_negative_weight_fails_before_any_solve(
            self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("newton_solve called")

        monkeypatch.setattr(engine, "newton_solve", refuse)
        out = tmp_path / "run"
        cfg = RunConfig(scenario="single_solve", sizes=(16, 16), R_schedule=(-0.5,),
                        alpha_potential=((0.2, (1, 0), 0.0),), out=str(out))
        assert run_scenario(cfg) == 1
        assert _strict_load(out / "summary.json")["error"] == (
            "PreconditionError: twist weight must be >= 0, got -0.5")


class TestStepRecords:
    """Every Newton scenario writes one solve_step record per steps.csv
    row to summary.json, and a failed solve can be read from it alone."""

    TWIST = ((0.2, (1, 0), 0.0),)
    RUNS = {
        "single_solve": (RunConfig(scenario="single_solve", sizes=(16, 16),
                                   R_schedule=(100.0,), alpha_potential=TWIST),
                         lambda R: True),
        "continuity_sweep": (RunConfig(scenario="continuity_sweep", sizes=(16, 16),
                                       alpha_potential=TWIST,
                                       t_schedule=(0.5, 1.0)),
                             lambda R: R == 0.0),
        "threshold": (RunConfig(scenario="threshold", sizes=(16, 16),
                                R_schedule=(8.0,), alpha_potential=TWIST),
                      lambda R: R == 0.0),
        "twist_perturbation": (RunConfig(scenario="twist_perturbation",
                                         sizes=(16, 16), R_schedule=(100.0,),
                                         perturbation=(0.2, (1, 0), 0.0),
                                         perturbation_steps=2),
                               lambda R: True),
    }

    @pytest.mark.parametrize("scenario", sorted(RUNS))
    def test_forced_newton_failure_is_in_the_summary(self, scenario, tmp_path,
                                                      monkeypatch):
        cfg, when = self.RUNS[scenario]
        _force_failure(monkeypatch, when)
        out = tmp_path / scenario
        assert run_scenario(dataclasses.replace(cfg, out=str(out))) == 1
        summary = _strict_load(out / "summary.json")
        records = summary["records"]
        rows = _steps(out)
        assert [r["R"] for r in records] == [row[2] for row in rows]
        assert [r["residual_sup"] for r in records] == [row[3] for row in rows]
        failed = [r for r in records if not r["converged"]]
        assert failed
        for record in failed:
            assert record["newton_error"] == "forced failure"
            assert len(record["history"]) == record["newton_iters"]
            for entry in record["history"]:
                assert set(entry) == {"iteration", "residual_sup", "step",
                                      "linear_iterations", "linear_residual"}
        for record in records:
            if record["converged"]:
                assert record["newton_error"] == ""
        # fields come from the last converged metric; a threshold run
        # writes none
        assert (out / "fields" / "potential.bin").exists() == (
            scenario != "threshold" and any(r["converged"] for r in records))

    @pytest.mark.parametrize("scenario", sorted(RUNS))
    def test_the_runner_seeds_one_chain_per_scenario(self, scenario, tmp_path,
                                                     monkeypatch):
        # the engine's drivers continue the runner's chain and seed none
        cfg, _ = self.RUNS[scenario]
        weights = []
        original = runner.seed_chain

        def seeding(grid, g0, alpha, R, *args, **kwargs):
            weights.append(R)
            return original(grid, g0, alpha, R, *args, **kwargs)

        monkeypatch.setattr(runner, "seed_chain", seeding)
        out = tmp_path / scenario
        assert run_scenario(dataclasses.replace(cfg, out=str(out))) == 0
        records = _strict_load(out / "summary.json")["records"]
        assert weights == [records[0]["R"]]

    def test_records_name_every_warm_start(self, tmp_path):
        cfg, _ = self.RUNS["threshold"]
        out = tmp_path / "threshold"
        assert run_scenario(dataclasses.replace(cfg, out=str(out))) == 0
        records = _strict_load(out / "summary.json")["records"]
        assert [r["warm_source"] for r in records] == (
            ["ladder[2]"] + ["previous-step"] * (len(records) - 1))

    def test_sweep_record_t_is_the_schedule_entry(self, tmp_path):
        # R_to_t(t_to_R(t)) != t for these, so t cannot be rebuilt from R
        schedule = tuple(t for t in DEFAULT_T_SCHEDULE
                         if R_to_t(t_to_R(t)) != t)[:3]
        assert len(schedule) == 3
        out = tmp_path / "sweep"
        cfg = RunConfig(scenario="continuity_sweep", sizes=(16, 16),
                        alpha_potential=self.TWIST, t_schedule=schedule,
                        out=str(out))
        assert run_scenario(cfg) == 0
        records = _strict_load(out / "summary.json")["records"]
        assert tuple(r["t"] for r in records) == schedule
        assert tuple(row[1] for row in _steps(out)) == schedule

    def test_top_level_error_names_its_class(self, tmp_path):
        # a twist this large makes the proportional seed metric degenerate
        out = tmp_path / "solve"
        cfg = RunConfig(scenario="single_solve", sizes=(16, 16),
                        R_schedule=(100.0,),
                        alpha_potential=((6.0, (1, 0), 0.0),), out=str(out))
        assert run_scenario(cfg) == 1
        summary = _strict_load(out / "summary.json")
        assert summary["success"] is False
        assert summary["error"].startswith(
            "DegenerateMetricError: metric is not positive definite")


class TestNonPositiveTwist:
    """A twist that is not positive everywhere fails as a typed error."""

    @given(terms=trig_terms(2, 1.0), depth=st.floats(min_value=1.01, max_value=4.0))
    def test_single_solve_reports_a_typed_error(self, terms, depth):
        # on n = 1, alpha = 1 + h with h linear in the amplitudes, so
        # scaling them to min h = -depth puts alpha's minimum at 1 - depth
        grid16 = PeriodicGrid(1, (16, 16))
        shape = HermitianFormField.from_potential(
            grid16, EYE1, make_trig_field(grid16, terms).values)
        dip = shape.min_eigenvalue() - 1.0
        assume(dip < -1e-3)
        scaled = tuple((a * depth / -dip, k, phase) for a, k, phase in terms)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "solve"
            cfg = RunConfig(scenario="single_solve", sizes=(16, 16),
                            R_schedule=(100.0,), alpha_potential=scaled,
                            out=str(out))
            assert runner._build_problem(cfg)[3].min_eigenvalue() <= 0.0
            assert run_scenario(cfg) == 1
            text = (out / "summary.json").read_text()
            summary = _strict_load(out / "summary.json")
        assert summary["success"] is False
        assert re.fullmatch(r"[A-Za-z]+Error: \S.*", summary["error"])
        assert "nan" not in text.lower()


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


def _libc_without_mallopt(name):
    return types.SimpleNamespace()


def _no_libc(name):
    raise OSError("no C library")


class TestProcessUsage:
    """run_scenario fixes glibc's allocator thresholds once per process,
    and a returned scenario's summary holds its page faults and CPU time."""

    def test_summary_holds_the_scenario_usage(self, tmp_path):
        out = tmp_path / "solve"
        cfg = dataclasses.replace(default_config("single_solve"), sizes=(16, 16),
                                  out=str(out))
        assert run_scenario(cfg) == 0
        process = _strict_load(out / "summary.json")["process"]
        assert sorted(process) == ["max_rss_mb", "minor_faults", "system_s", "user_s"]
        assert isinstance(process["minor_faults"], int)
        assert all(math.isfinite(v) and v >= 0 for v in process.values())
        # the interpreter with numpy holds more than 10 MiB, and a 16^2
        # solve far less than 4 GiB: a unit off by 1024 fails either bound
        assert 10.0 < process["max_rss_mb"] < 4096.0

    @pytest.fixture
    def fresh_policy(self):
        # the test sets the policy anew, with its own C library, and the
        # next run_scenario sets it again with the real one
        runner._set_allocator_policy.cache_clear()
        yield
        runner._set_allocator_policy.cache_clear()

    def test_policy_is_set_once_per_process(self, tmp_path, monkeypatch,
                                            fresh_policy):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        for run in ("first", "second"):
            run_scenario(RunConfig(scenario="bogus", out=str(tmp_path / run)))
        # glibc's M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD is -1
        assert calls == [(-3, 4 * 2**20), (-1, 64 * 2**20)]

    @pytest.mark.parametrize("libc", [_libc_without_mallopt, _no_libc])
    def test_missing_mallopt_is_a_no_op(self, libc, monkeypatch, fresh_policy):
        monkeypatch.setattr(ctypes, "CDLL", libc)
        runner._set_allocator_policy()
        assert runner._set_allocator_policy.cache_info().currsize == 1

    @pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
    def test_warm_ladder_study_does_not_refault_the_heap(self, tmp_path):
        # the benchmark's 128^2 ladder study: with glibc's adaptive
        # thresholds every twist apply trims and re-faults ~1 MiB of heap,
        # some 60-90k minor faults a call
        cfg = dataclasses.replace(default_config("ladder_study"), sizes=(128, 128))
        for run in ("cold", "warm"):
            out = tmp_path / run
            assert run_scenario(dataclasses.replace(cfg, out=str(out))) == 0
        assert _strict_load(out / "summary.json")["process"]["minor_faults"] <= 2000


class TestLadderStudy:
    """ladder_study reads every order off one ladder per weight."""

    SEED = ((0.15, (1, 1), 0.0), (0.15, (1, -1), 0.0))

    def config(self, out):
        return RunConfig(scenario="ladder_study", sizes=(16, 16),
                         R_schedule=(50.0, 100.0), order=3,
                         omega_potential=self.SEED, alpha_potential=self.SEED,
                         out=str(out))

    def test_rows_match_independent_order_m_builds(self, tmp_path):
        cfg = self.config(tmp_path / "ladder")
        assert run_scenario(cfg) == 0
        assert _strict_load(tmp_path / "ladder" / "summary.json")["seed"] == {
            "source": "explicit-potential", "ladder_error": "", "ladder_sizes": []}
        rows = _steps(tmp_path / "ladder")
        grid, g0, omega_pot, alpha = runner._build_problem(cfg)
        base = KahlerStructure(grid, g0, euclid_mean_zero(omega_pot.values))
        expected = []
        for m in (1, 2, 3):
            for R in cfg.R_schedule:
                ladder = build_approximate_solution(base, alpha, R, m,
                                                    runner._solver_config(cfg))
                residual, _ = twisted_residual(ladder.structure, alpha, R)
                expected.append([len(expected), R, ladder.residual_sups[-1],
                                 rms_norm(residual.values)])
        assert [[r[0], r[2], r[3], r[4]] for r in rows] == expected

    def test_summary_records_the_pcg_iterations_of_every_rung(self, tmp_path):
        cfg = self.config(tmp_path / "ladder")
        assert run_scenario(cfg) == 0
        summary = _strict_load(tmp_path / "ladder" / "summary.json")
        grid, g0, omega_pot, alpha = runner._build_problem(cfg)
        base = KahlerStructure(grid, g0, euclid_mean_zero(omega_pot.values))
        expected = [list(build_approximate_solution(
            base, alpha, R, cfg.order, runner._solver_config(cfg)).linear_iterations)
            for R in cfg.R_schedule]
        assert summary["pcg_iterations"] == expected
        assert [len(row) for row in expected] == [len(summary["orders"])] * 2
        assert all(1 <= i <= 2 for row in expected for i in row)

    def test_a_proportional_twist_seeds_the_base(self, tmp_path):
        # no omega_potential: the base is the proportional seed, in which
        # the twist's trace is constant, as in every Newton scenario
        out = tmp_path / "ladder"
        cfg = RunConfig(scenario="ladder_study", sizes=(16, 16),
                        R_schedule=(50.0, 100.0, 200.0), order=2,
                        alpha_potential=((0.2, (1, 0), 0.0),), out=str(out))
        assert run_scenario(cfg) == 0
        summary = _strict_load(out / "summary.json")
        assert summary["seed"] == {"source": "proportional-seed", "ladder_error": "",
                                   "ladder_sizes": []}
        assert abs(summary["slope_m1"] + 1.0) <= 0.2

    def test_one_build_and_one_twist_handle_per_weight(self, tmp_path,
                                                       monkeypatch):
        builds = []
        handles = []
        build = runner.build_approximate_solution
        post_init = LinearOperatorHandle.__post_init__

        def counted_build(*args, **kwargs):
            builds.append(args[2])
            return build(*args, **kwargs)

        def counted_post_init(handle):
            handles.append(handle.kind)
            post_init(handle)

        monkeypatch.setattr(runner, "build_approximate_solution", counted_build)
        monkeypatch.setattr(LinearOperatorHandle, "__post_init__",
                            counted_post_init)
        assert run_scenario(self.config(tmp_path / "ladder")) == 0
        assert builds == [50.0, 100.0]
        assert handles == ["twist", "twist"]

    def _summary_of_rejected(self, tmp_path, monkeypatch, **fields):
        """Summary of a ladder_study built in code that must fail before
        any build, and the diagnostics that reject it as a config file."""
        out = tmp_path / "ladder"
        cfg = dataclasses.replace(self.config(out), **fields)
        with pytest.raises(ConfigError) as err:
            parse_config(canonical_form(cfg))

        def refuse(*args, **kwargs):
            raise AssertionError("a ladder was built")

        monkeypatch.setattr(runner, "build_approximate_solution", refuse)
        assert run_scenario(cfg) == 1
        assert not (out / "steps.csv").exists()
        summary = _strict_load(out / "summary.json")
        assert summary["success"] is False
        return summary, err.value.diagnostics

    def test_one_weight_is_rejected_before_any_build(self, tmp_path, monkeypatch):
        summary, diagnostics = self._summary_of_rejected(
            tmp_path, monkeypatch, R_schedule=(100.0,))
        assert summary["error"].startswith("ConfigError: R_schedule:")
        assert [d.split(":")[0] for d in diagnostics] == ["R_schedule"]

    def test_order_zero_is_rejected_before_any_build(self, tmp_path, monkeypatch):
        # order 0 is a valid ladder order; an empty order study is no success
        summary, diagnostics = self._summary_of_rejected(
            tmp_path, monkeypatch, order=0)
        assert summary["error"].startswith("ConfigError: order:")
        assert [d.split(":")[0] for d in diagnostics] == ["order"]


def _lifted_to_n2(scenario, out):
    """The n = 1 default config of `scenario` on the 8^4 torus: identity
    classes, each trig term's wavevector padded with zeros."""
    cfg = default_config(scenario)

    def lift(terms):
        return tuple((a, tuple(k) + (0, 0), p) for a, k, p in terms)

    return dataclasses.replace(cfg, n=2, sizes=(8, 8, 8, 8), g0_omega=EYE2_ROWS,
                               g0_alpha=EYE2_ROWS,
                               omega_potential=lift(cfg.omega_potential),
                               alpha_potential=lift(cfg.alpha_potential),
                               out=str(out))


class TestN2Scenarios:
    """ladder_study and threshold at n = 2 with their default schedules."""

    def test_ladder_study_order_law(self, tmp_path):
        out = tmp_path / "ladder"
        assert run_scenario(_lifted_to_n2("ladder_study", out)) == 0
        summary = _strict_load(out / "summary.json")
        assert summary["orders"] == [1, 2, 3]
        for m in (1, 2, 3):
            assert abs(summary[f"slope_m{m}"] + m) <= 0.2
        assert len(_steps(out)) == 3 * len(summary["R_schedule"])

    def test_threshold_of_the_product_case_from_omega(self, tmp_path):
        # omega = omega_1 + omega_2 and alpha = omega_1 + 3 omega_2, with
        # potentials in (x_1, y_1) and (x_2, y_2): the trace of alpha in
        # omega is the constant 4, which the seed ladder needs of its base;
        # from alpha alone the seed would be flat
        out = tmp_path / "product"
        cfg = parse_config(json.dumps({
            "scenario": "threshold", "n": 2, "sizes": [8, 8, 8, 8],
            "g0_alpha": [[1, 0], [0, 3]], "out": str(out),
            "omega_potential": [
                {"amplitude": 0.15, "wavevector": [1, 0, 0, 0], "phase": 0.0},
                {"amplitude": 0.1, "wavevector": [0, 0, 1, 1], "phase": 0.0}],
            "alpha_potential": [
                {"amplitude": 0.15, "wavevector": [1, 0, 0, 0], "phase": 0.0},
                {"amplitude": 0.3, "wavevector": [0, 0, 1, 1], "phase": 0.0}]}))
        assert run_scenario(cfg) == 0
        summary = _strict_load(out / "summary.json")
        assert summary["seed"] == {"source": "ladder[2]", "ladder_error": "",
                                   "ladder_sizes": [4, 4, 4, 4]}
        assert summary["threshold"] == 0.0

    def test_threshold_reaches_zero(self, tmp_path):
        out = tmp_path / "threshold"
        cfg = _lifted_to_n2("threshold", out)
        assert run_scenario(cfg) == 0
        summary = _strict_load(out / "summary.json")
        assert summary["threshold"] == 0.0
        assert (summary["bracket_low"], summary["bracket_high"]) == (0.0, 0.0)
        assert summary["seed"] == {"source": "ladder[2]", "ladder_error": "",
                                   "ladder_sizes": [4, 4, 4, 4]}
        rows = _steps(out)
        assert len(rows) == summary["attempts"]
        assert rows[-1][2] == 0.0
        assert all(row[3] <= cfg.newton_tol for row in rows)
