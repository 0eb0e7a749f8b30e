"""Run configuration: JSON schema, validation diagnostics, canonical form.

A config is a single JSON object whose keys are the fields of RunConfig.
Matrices are nested lists whose entries are numbers or [re, im] pairs;
the class matrices g0_omega and g0_alpha must be Hermitian and positive
definite.  Potential seeds are lists of
{"amplitude": a, "wavevector": [k1, ...], "phase": p} terms evaluated
as a * cos(k . x + p) on any grid resolution.  Exactly one of
"t_schedule" (strictly increasing, in (0, 1]) and "R_schedule"
(positive, strictly monotone: no weight repeats) may be given;
scenarios fill a default otherwise.

Scenario rules (`scenario_diagnostics`) tie fields to the scenario:

- the scenario itself must be one of SCENARIOS;
- continuity_sweep walks a t_schedule and is seeded at its first weight,
  so an R_schedule, in its place or beside it, is rejected;
- ladder_study fits its order law across weights and needs at least two
  distinct weights and order >= 1;
- threshold descends from its first weight, which must be positive, so
  a t_schedule may not start at t = 1;
- twist_perturbation needs a "perturbation" term.

parse_config is the one validation path for run input.  Its optional
`overrides` (the command line's flags, as config keys) replace the
text's own entries before anything is checked, so a key nobody gave
takes its scenario default for the dimension that was given.  It never
repairs input: every problem becomes a diagnostic that starts with the
key path and ends with a best-effort line number of that key in the
text (none for a key an override set), and all diagnostics are reported
together.  A key that repeats within one object of the text, at any
depth, is such a problem: its diagnostics, one per repeat with the line
of the repeat, are reported before any value is checked.
`runner.run_scenario` applies the scenario rules to configs built in
code.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, fields, replace
from json.decoder import scanstring

import numpy as np

from .engine import MAX_LADDER_ORDER
from .errors import ConfigError, DomainError
from .grid import _check_hermitian_matrix
from .solvers import SolverConfig

SCENARIOS = (
    "single_solve",
    "ladder_study",
    "continuity_sweep",
    "threshold",
    "twist_perturbation",
    "verify_suite",
)
_UNKNOWN_SCENARIO = f"scenario: must be one of {', '.join(SCENARIOS)}"

Term = tuple[float, tuple[int, ...], float]


@dataclass(frozen=True)
class RunConfig:
    scenario: str
    n: int = 1
    sizes: tuple[int, ...] = (32, 32)
    g0_omega: tuple[tuple[complex, ...], ...] = ((1.0 + 0.0j,),)
    g0_alpha: tuple[tuple[complex, ...], ...] = ((1.0 + 0.0j,),)
    omega_potential: tuple[Term, ...] = ()
    alpha_potential: tuple[Term, ...] = ()
    t_schedule: tuple[float, ...] | None = None
    R_schedule: tuple[float, ...] | None = None
    order: int = 2
    newton_tol: float = SolverConfig.newton_tol
    krylov_tol: float = SolverConfig.krylov_tol
    perturbation: Term | None = None
    perturbation_steps: int = 10
    seed: int = 0
    out: str = "runs/out"


_KNOWN_KEYS = tuple(f.name for f in fields(RunConfig))


# the continuity_sweep default: 20 evenly spaced path parameters from
# t = 0.05, ending exactly at t = 1
DEFAULT_T_SCHEDULE = tuple(0.05 + i * ((1.0 - 0.05) / 19) for i in range(19)) + (1.0,)


def default_config(scenario: str) -> RunConfig:
    """Filled-in defaults per scenario on the flat n=1 torus."""
    base = RunConfig(scenario=scenario, out=f"runs/{scenario}")
    if scenario == "single_solve":
        return replace(base, R_schedule=(100.0,),
                       alpha_potential=((0.2, (1, 0), 0.0),))
    if scenario == "ladder_study":
        # 0.3 cos(x) cos(y) as mean-free trig terms, with alpha the metric
        # form of the seed itself so the ladder hypothesis holds exactly
        product_seed = ((0.15, (1, 1), 0.0), (0.15, (1, -1), 0.0))
        return replace(base, R_schedule=(50.0, 100.0, 200.0, 400.0, 800.0),
                       order=3, omega_potential=product_seed,
                       alpha_potential=product_seed)
    if scenario == "continuity_sweep":
        return replace(base, t_schedule=DEFAULT_T_SCHEDULE,
                       alpha_potential=((0.2, (1, 0), 0.0),))
    if scenario == "threshold":
        return replace(base, R_schedule=(8.0,),
                       alpha_potential=((0.2, (1, 0), 0.0),))
    if scenario == "twist_perturbation":
        return replace(base, R_schedule=(100.0,),
                       perturbation=(0.2, (1, 0), 0.0))
    if scenario == "verify_suite":
        return base
    raise ConfigError([f"scenario: unknown scenario {scenario!r}"])


def scenario_diagnostics(cfg: RunConfig) -> list[str]:
    """Diagnostics for fields that do not fit cfg.scenario, each
    starting with its key; empty when the scenario can run."""
    if cfg.scenario not in SCENARIOS:
        return [_UNKNOWN_SCENARIO]
    diags = []
    if cfg.scenario == "continuity_sweep" and (cfg.R_schedule or not cfg.t_schedule):
        diags.append("R_schedule: continuity_sweep walks a t_schedule; give "
                     "t_schedule instead" if cfg.R_schedule else
                     "t_schedule: continuity_sweep needs a t_schedule")
    if cfg.scenario == "ladder_study":
        weights = len(set(cfg.R_schedule or ()))
        if weights < 2:
            # the order law is fitted across weights
            diags.append("R_schedule: ladder_study needs at least two distinct "
                         f"weights, got {weights}")
        if cfg.order < 1:
            diags.append(f"order: ladder_study needs order >= 1, got {cfg.order}")
    if (cfg.scenario == "threshold" and not cfg.R_schedule and cfg.t_schedule
            and cfg.t_schedule[0] >= 1.0):
        diags.append("t_schedule: threshold needs a positive first weight, so a "
                     f"first t below 1, got {cfg.t_schedule[0]}")
    if cfg.scenario == "twist_perturbation" and cfg.perturbation is None:
        diags.append("perturbation: twist_perturbation needs a perturbation term")
    return diags


def _line_of(text: str, key: str) -> str:
    for lineno, line in enumerate(text.splitlines(), start=1):
        if f'"{key}"' in line:
            return f" (line {lineno})"
    return ""


def _repeated_keys(text: str) -> list[str]:
    """A diagnostic for every key of the JSON text that repeats a key of
    its object, naming the key's path and the line of the repeat."""
    diags: list[str] = []
    # per open container: [path, keys seen (None in an array), last key or index]
    stack: list[list] = []

    def child(top: list) -> str:
        path, keys, last = top
        if keys is None:
            return f"{path}[{last}]"
        return f"{path}.{last}" if path else last

    i = 0
    while i < len(text):
        c = text[i]
        if c == '"':
            value, end = scanstring(text, i + 1)
            top = stack[-1] if stack else None
            if top and top[1] is not None and text[end:].lstrip().startswith(":"):
                top[2] = value
                if value in top[1]:
                    line = text.count("\n", 0, i) + 1
                    diags.append(f"{child(top)}: repeated key (line {line})")
                top[1].add(value)
            i = end
            continue
        if c in "{[":
            path = child(stack[-1]) if stack else ""
            stack.append([path, set(), None] if c == "{" else [path, None, 0])
        elif c in "}]":
            stack.pop()
        elif c == "," and stack[-1][1] is None:
            stack[-1][2] += 1
        i += 1
    return diags


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_number(value) -> bool:
    """A JSON number that converts to a finite float: the bound also
    rejects nan, and integers too large for a float without converting."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _as_complex(entry, where: str, diags: list[str]) -> complex:
    parts = entry if isinstance(entry, list) and len(entry) == 2 else [entry, 0.0]
    if all(_finite_number(v) for v in parts):
        return complex(float(parts[0]), float(parts[1]))
    diags.append(f"{where}: matrix entries must be finite numbers or [re, im] pairs")
    return complex(math.nan)


def _parse_matrix(data, key: str, n: int,
                  diags: list[str]) -> tuple[tuple[complex, ...], ...]:
    if (not isinstance(data, list) or len(data) != n
            or any(not isinstance(row, list) or len(row) != n for row in data)):
        diags.append(f"{key}: must be a {n}x{n} matrix")
        return tuple((complex(1.0),) * n for _ in range(n))
    entry_diags = len(diags)
    rows = tuple(
        tuple(_as_complex(entry, f"{key}[{i}][{j}]", diags)
              for j, entry in enumerate(row))
        for i, row in enumerate(data)
    )
    if len(diags) == entry_diags:
        try:
            _check_hermitian_matrix(np.array(rows), n, "matrix")
        except DomainError as err:
            diags.append(f"{key}: {err}")
    return rows


def _parse_terms(data, key: str, naxes: int, diags: list[str]) -> tuple[Term, ...]:
    if not isinstance(data, list):
        diags.append(f"{key}: must be a list of terms")
        return ()
    terms: list[Term] = []
    for idx, item in enumerate(data):
        where = f"{key}[{idx}]"
        if not isinstance(item, dict):
            diags.append(f"{where}: term must be an object")
            continue
        unknown = set(item) - {"amplitude", "wavevector", "phase"}
        if unknown:
            diags.append(f"{where}: unknown term keys {sorted(unknown)}")
        amp = item.get("amplitude")
        wav = item.get("wavevector")
        phase = item.get("phase", 0.0)
        ok = True
        if not _finite_number(amp):
            diags.append(f"{where}.amplitude: must be a finite number")
            ok = False
        if (not isinstance(wav, list) or len(wav) != naxes
                or not all(_is_int(w) for w in wav)):
            diags.append(f"{where}.wavevector: must be {naxes} integers")
            ok = False
        if not _finite_number(phase):
            diags.append(f"{where}.phase: must be a finite number")
            ok = False
        if ok:
            terms.append((float(amp), tuple(int(w) for w in wav), float(phase)))
    return tuple(terms)


def _parse_schedule(data, key: str, diags: list[str],
                    *, increasing_unit: bool) -> tuple[float, ...] | None:
    if not isinstance(data, list) or not data \
            or not all(_finite_number(v) for v in data):
        diags.append(f"{key}: must be a non-empty list of finite numbers")
        return None
    values = tuple(float(v) for v in data)
    if increasing_unit:
        if any(not 0.0 < v <= 1.0 for v in values):
            diags.append(f"{key}: entries must lie in (0, 1]")
        if any(b <= a for a, b in zip(values, values[1:])):
            diags.append(f"{key}: must be strictly increasing")
    else:
        if any(v <= 0.0 for v in values):
            diags.append(f"{key}: entries must be positive")
        pairs = list(zip(values, values[1:]))
        if not (all(b > a for a, b in pairs) or all(b < a for a, b in pairs)):
            diags.append(f"{key}: must be strictly monotone (no weight repeats)")
    return values


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a JSON config; raises ConfigError with all
    field-level diagnostics at once.  `overrides` maps config keys to
    values that replace the text's own before anything is checked (the
    CLI's flags).  Each diagnostic ends with the line of its leading key
    in `text`, unless an override set that key.  Repeated keys are
    reported alone (see `_repeated_keys`)."""
    repeated = []

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            repeated.append(True)
        return obj

    try:
        data = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as err:
        raise ConfigError([f"json: {err.msg} (line {err.lineno})"]) from err
    if repeated:
        raise ConfigError(_repeated_keys(text))
    if not isinstance(data, dict):
        raise ConfigError(["json: top level must be an object"])
    overrides = overrides or {}
    diags: list[str] = []
    cfg = _parse_fields({**data, **overrides}, diags)
    if diags:
        lines = []
        for diag in diags:
            # the leading key: a whole key of the text (an unknown one may
            # hold "[" or "."), else the path up to its first index or field
            path = diag.split(": ", 1)[0]
            key = path if path in data else re.split(r"[\[.]", path, maxsplit=1)[0]
            lines.append(diag if key in overrides else diag + _line_of(text, key))
        raise ConfigError(lines)
    return cfg


def _parse_fields(data: dict, diags: list[str]) -> RunConfig | None:
    """The RunConfig that `data` describes, appending a diagnostic for
    every problem to `diags`; None when the scenario is unknown."""
    for key in sorted(set(data).difference(_KNOWN_KEYS)):
        diags.append(f"{key}: unknown key")

    scenario = data.get("scenario")
    if scenario not in SCENARIOS:
        diags.append(_UNKNOWN_SCENARIO)
        return None
    cfg = default_config(scenario)

    def field(key: str, valid, rule: str):
        # the value of `key`, or the scenario default after a diagnostic
        value = data.get(key, getattr(cfg, key))
        if valid(value):
            return value
        diags.append(f"{key}: {rule}")
        return getattr(cfg, key)

    n = field("n", lambda v: _is_int(v) and v in (1, 2), "must be 1 or 2")
    naxes = 2 * n

    default_sizes = (32 if n == 1 else 12,) * naxes
    sizes = data.get("sizes")
    if sizes is None:
        sizes = default_sizes
    elif (not isinstance(sizes, list) or len(sizes) != naxes
            or not all(_is_int(s) for s in sizes)):
        diags.append(f"sizes: must be {naxes} integers")
        sizes = default_sizes
    else:
        sizes = tuple(sizes)
        if any(s < 4 or s % 2 for s in sizes):
            diags.append("sizes: each size must be even and >= 4")

    g0_omega = (_parse_matrix(data["g0_omega"], "g0_omega", n, diags)
                if "g0_omega" in data else tuple(
                    tuple(1.0 + 0.0j if i == j else 0.0j for j in range(n))
                    for i in range(n)))
    g0_alpha = (_parse_matrix(data["g0_alpha"], "g0_alpha", n, diags)
                if "g0_alpha" in data else g0_omega)

    def lift(term: Term) -> Term:
        # a default term on the first axes of the dimension's 2n
        a, k, p = term
        return a, k[:naxes] + (0,) * (naxes - len(k)), p

    potentials = {key: (_parse_terms(data[key], key, naxes, diags) if key in data
                        else tuple(map(lift, getattr(cfg, key))))
                  for key in ("omega_potential", "alpha_potential")}

    t_schedule = cfg.t_schedule
    R_schedule = cfg.R_schedule
    if "t_schedule" in data and "R_schedule" in data:
        diags.append("t_schedule: give either t_schedule or R_schedule, not both")
    elif "t_schedule" in data:
        t_schedule = _parse_schedule(data["t_schedule"], "t_schedule", diags,
                                     increasing_unit=True)
        R_schedule = None
    elif "R_schedule" in data:
        R_schedule = _parse_schedule(data["R_schedule"], "R_schedule", diags,
                                     increasing_unit=False)
        t_schedule = None

    order = field("order", lambda v: _is_int(v) and 0 <= v <= MAX_LADDER_ORDER,
                  f"must be an integer in [0, {MAX_LADDER_ORDER}]")
    tols = {key: float(field(key, lambda v: _finite_number(v) and 0.0 < v < 1.0,
                             "must be a number in (0, 1)"))
            for key in ("newton_tol", "krylov_tol")}

    perturbation = None if cfg.perturbation is None else lift(cfg.perturbation)
    if "perturbation" in data:
        parsed = _parse_terms([data["perturbation"]], "perturbation", naxes, diags)
        perturbation = parsed[0] if parsed else None

    steps = field("perturbation_steps", lambda v: _is_int(v) and v >= 1,
                  "must be a positive integer")
    seed = field("seed", lambda v: _is_int(v) and v >= 0,
                 "must be a non-negative integer")
    out = field("out", lambda v: isinstance(v, str) and v,
                "must be a non-empty path string")

    parsed = RunConfig(scenario=scenario, n=n, sizes=sizes,
                       g0_omega=g0_omega, g0_alpha=g0_alpha, **potentials,
                       t_schedule=t_schedule, R_schedule=R_schedule,
                       order=order, **tols,
                       perturbation=perturbation, perturbation_steps=steps,
                       seed=seed, out=out)
    diags.extend(scenario_diagnostics(parsed))
    return parsed


def _terms_to_json(terms) -> list:
    return [{"amplitude": a, "wavevector": list(k), "phase": p}
            for a, k, p in terms]


def config_to_dict(cfg: RunConfig) -> dict:
    """JSON-ready dict in canonical entry forms (matrices as [re, im]),
    one entry per RunConfig field in field order; an unset schedule or
    perturbation (None) is left out."""
    out: dict = {}
    for key in _KNOWN_KEYS:
        value = getattr(cfg, key)
        if value is None:
            continue
        if key in ("g0_omega", "g0_alpha"):
            value = [[[entry.real, entry.imag] for entry in row] for row in value]
        elif key in ("omega_potential", "alpha_potential"):
            value = _terms_to_json(value)
        elif key == "perturbation":
            value = _terms_to_json([value])[0]
        elif isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


def canonical_form(cfg: RunConfig) -> str:
    """Stable text form: parse(canonical_form(cfg)) == cfg."""
    return json.dumps(config_to_dict(cfg), sort_keys=True, indent=2) + "\n"
