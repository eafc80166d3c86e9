"""Command-line interface.

Subcommands: profile (generate variance profiles), density (deterministic
density curves), outliers (determinant-based outlier location), sample
(Monte Carlo draws), validate (resolvent identity / concentration checks).

Configuration comes from an optional JSON file (--config) merged with
command-line flags; flags win.  Identical resolved configurations produce
byte-identical output files: floats are formatted with 17 significant
digits and every JSON artifact embeds the hash of the resolved
configuration.  Exit status is 1 for configuration errors, 2 when the
fixed-point solver fails to converge (diagnostics are then written next to
the requested output), and 3 when ``validate`` finishes but its check
fails (the report is still written).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from .density import density_curve, sv_density_correction, write_density_csv
from .dilation import RectangularModel, RectangularSpikes, dilate_model
from .dyson import (DysonDivergenceError, SolverConfig, SpectralParameter,
                    _classify_deformation)
from .outliers import (HermitianModel, SpikeSet, det_beta_curve, locate_outliers)
from .profiles import (VarianceProfile, bernoulli_profile, constant_profile,
                       doubly_stochastic_profile, normalize_profile,
                       piecewise_profile, read_profile_csv, write_profile_csv)
from .sampling import (SampleBatch, check_master_equality, sample_gue_profile,
                       sample_rect_gaussian, validate_concentration)

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit status 1 instead of argparse's 2
        raise ConfigError(message)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _config_hash(resolved: dict) -> str:
    canon = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_record(path, command: str, cfg: dict, **fields) -> None:
    """Write a command's JSON record: the resolved config and its hash, then ``fields``."""
    _write_json(path, {"command": command, "config": cfg, "config_hash": _config_hash(cfg),
                       **fields})


def _diagnose(out: str, cfg: dict, command: str, what: str, **fields) -> int:
    """Write a failed solve's diagnostics next to ``out``, say where, and return 2."""
    path = out + ".diagnostics.json"
    _write_json(path, {"command": command, "config_hash": _config_hash(cfg), **fields})
    print(f"{what}; diagnostics in {path}", file=sys.stderr)
    return 2


# field -> (test, message) for each numeric field with a range.  Every value
# a user gives meets it, whether a flag, a --config value or a profile-spec
# option; tolerance and max_iterations are checked once, by SolverConfig.
_RANGES = {
    **dict.fromkeys(("n", "m", "k", "count", "samples"), (lambda v: v >= 1, "must be >= 1")),
    "seed": (lambda v: v >= 0, "must be >= 0"),  # numpy takes only seeds >= 0
    "scan_points": (lambda v: v >= 3, "must be >= 3"),
    **dict.fromkeys(("eta", "eta_eval", "d", "lambda_im", "bound_factor"),
                    (lambda v: math.isfinite(v) and v > 0.0, "must be finite and > 0")),
    "threshold": (lambda v: math.isfinite(v) and v >= 0.0, "must be finite and >= 0"),
    "lambda_re": (math.isfinite, "must be finite"),
    "delta": (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "min_pass_rate": (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),
}


def _check_range(field: str, value) -> None:
    if field in _RANGES and not _RANGES[field][0](value):
        raise ConfigError(f"{field}: {_RANGES[field][1]}")


def _check_file_value(key: str, kind: type, value) -> None:
    """A config-file value must have the type its flag takes; null leaves it unset."""
    if value is None:
        return
    if kind in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config: field '{key}' needs a number, got {value!r}")
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"config: field '{key}' needs an integer, got {value!r}")
    elif kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"config: field '{key}' needs true or false, got {value!r}")
    elif not isinstance(value, str):
        raise ConfigError(f"config: field '{key}' needs a string, got {value!r}")


def _merge_config(args: argparse.Namespace) -> dict:
    """File values fill in unset flags; explicit flags win.

    The command's fields are its flags (``args.fields``).  A file value must
    fit its flag: a numeric field takes a JSON number (not a bool), an
    integer field an integral one, so 3000.0 is accepted and 2.7 is not,
    and a string field a string.  Every value given meets its range.
    """
    fields = args.fields
    file_cfg = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config: cannot read {args.config}: {exc}")
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config: {args.config} must hold a JSON object")
        for key, value in file_cfg.items():
            name = key.replace("-", "_")
            if name not in fields:
                raise ConfigError(f"config: unknown field '{key}'")
            _check_file_value(key, fields[name], value)
    resolved = {}
    for name in fields:
        value = getattr(args, name)
        if value is None:
            value = file_cfg.get(name, file_cfg.get(name.replace("_", "-")))
        if value is not None:
            _check_range(name, value)
        resolved[name] = value
    return resolved


def _require(cfg: dict, field: str):
    if cfg.get(field) is None:
        raise ConfigError(f"{field}: required field is missing")
    return cfg[field]


def _get(cfg: dict, field: str, default):
    """The resolved value, or ``default`` only when the field is unset.

    A given 0 stays 0 and has met the same range check as any other value.
    """
    value = cfg.get(field)
    return default if value is None else value


def _parse_profile_spec(spec: str) -> VarianceProfile:
    """Either a profile CSV path or 'kind:key=value,...'."""
    if os.path.exists(spec) or spec.endswith(".csv"):
        try:
            return read_profile_csv(spec)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"profile: {exc}")
    if ":" in spec:
        kind, _, rest = spec.partition(":")
        pairs = [p for p in rest.split(",") if p]
    else:
        kind, pairs = spec, []
    opts = {}
    for pair in pairs:
        key, eq, value = pair.partition("=")
        if not eq:
            raise ConfigError(f"profile: malformed option '{pair}'")
        opts[key.strip()] = value.strip()
    try:
        return _build_profile(kind.strip(), opts)
    except ValueError as exc:
        raise ConfigError(f"profile: {exc}")


def _build_profile(kind: str, opts: dict) -> VarianceProfile:
    """Profile from spec options (strings or typed values); ``opts`` is consumed.

    An option the kind does not use is an error, not silently ignored.
    """
    def take(key, cast, default=None):
        value = opts.pop(key, default)
        if value is None:
            raise ConfigError(f"{key}: required field is missing")
        try:
            value = cast(value)
        except ValueError:
            raise ConfigError(f"{key}: needs {needs[cast]}") from None
        _check_range(key, value)
        return value

    def switch(value) -> bool:
        text = str(value).lower()
        if text not in ("1", "true", "yes", "0", "false", "no"):
            raise ValueError
        return text in ("1", "true", "yes")

    needs = {int: "an integer", float: "a number", switch: "true or false"}

    kind = kind.replace("_", "-")
    if kind == "constant":
        n, m = take("n", int), take("m", int)
        prof = constant_profile(n, m, take("value", float, 1.0),
                                hermitian=take("hermitian", switch, False))
    elif kind == "piecewise":
        n, m = take("n", int), take("m", int)
        prof = normalize_profile(piecewise_profile(n, m, 1.0, take("ratio", float, 200.0),
                                                   hermitian=take("hermitian", switch, False)))
    elif kind == "bernoulli":
        n, m = take("n", int), take("m", int)
        prof = bernoulli_profile(n, m, take("p", float), take("seed", int))
    elif kind == "doubly-stochastic":
        prof = doubly_stochastic_profile(take("n", int), take("k", int, 1), take("seed", int))
    else:
        raise ConfigError(f"unknown profile kind '{kind}'")
    if opts:
        raise ConfigError(f"{next(iter(opts))}: does not apply to profile kind '{kind}'")
    return prof


def _parse_y_spec(spec: str | None, rows: int, cols: int | None = None):
    """'zero', 'diag:v1,v2,...' (a single value broadcasts) or 'csv:path'.

    ``cols`` marks a rectangular model, whose Y must be 'zero' or a csv
    matrix.  A Hermitian model's Y is checked as the solver reads it.
    """
    if spec is None or spec == "zero":
        return None
    if spec.startswith("diag:"):
        if cols is not None:
            raise ConfigError("y: rectangular models need 'zero' or a csv matrix")
        try:
            y = np.asarray([float(v) for v in spec[5:].split(",") if v])
        except ValueError as exc:
            raise ConfigError(f"y: {exc}")
        if y.size == 1:
            y = np.full(rows, y[0])
        if y.size != rows:
            raise ConfigError(f"y: diagonal needs 1 or {rows} values, got {y.size}")
    elif spec.startswith("csv:"):
        path = spec[4:]
        try:
            y = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"y: cannot read {path}: {exc}")
        expect = (rows, rows if cols is None else cols)
        if y.shape != expect:
            raise ConfigError(f"y: matrix has shape {y.shape}, expected {expect}")
    else:
        raise ConfigError(f"y: unknown specification '{spec}'")
    if cols is None:
        try:
            _classify_deformation(y, rows)
        except ValueError as exc:
            raise ConfigError(f"y: {exc}")
    elif not np.all(np.isfinite(y)):
        raise ConfigError("y: deformation must be finite")
    return y


_MAX_GRID_POINTS = 10_000_000


def _parse_grid(spec: str, eta: float) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError("grid: expected 'min:max' or 'min:max:step'")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else eta / 2.0
    except ValueError:
        raise ConfigError(f"grid: malformed specification '{spec}'")
    if not (np.isfinite([lo, hi, step]).all() and hi > lo and step > 0.0):
        raise ConfigError("grid: needs finite values, max > min and step > 0")
    # no point beyond max, up to rounding: 0:0.3:0.1 has 4 points
    count = np.floor((hi - lo) / step * (1.0 + 1e-12)) + 1.0
    if not count <= _MAX_GRID_POINTS:  # an infinite count included
        raise ConfigError(f"grid: needs at most {_MAX_GRID_POINTS} points")
    return lo + step * np.arange(int(count))


def _parse_window(spec: str | None):
    if spec is None:
        return None
    parts = spec.split(":")
    if len(parts) != 2:
        raise ConfigError("window: expected 'lo:hi'")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"window: malformed specification '{spec}'")
    if not (np.isfinite([lo, hi]).all() and hi > lo):
        raise ConfigError("window: needs finite values and hi > lo")
    return lo, hi


def _solver_config(cfg: dict) -> SolverConfig:
    try:
        return SolverConfig(tolerance=float(_get(cfg, "tolerance", 1e-12)),
                            max_iterations=int(_get(cfg, "max_iterations", 10000)))
    except ValueError as exc:  # the message starts with the field's name
        raise ConfigError(str(exc))


def _spike_vector(kind: str, n: int) -> np.ndarray:
    if kind == "constant":
        return np.full((n, 1), 1.0 / np.sqrt(n))
    if kind == "e1":
        vec = np.zeros((n, 1))
        vec[0, 0] = 1.0
        return vec
    raise ConfigError(f"vectors: unknown kind '{kind}'")


def _load_vector_csv(path: str, n: int, m: int | None):
    try:
        data = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=1)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"vectors: cannot read {path}: {exc}")
    expect = n if m is None else n + m
    if data.shape != (expect,):
        raise ConfigError(f"vectors: expected {expect} values, got {data.shape}")
    if m is None:
        return data.reshape(-1, 1), None
    return data[:n].reshape(-1, 1), data[n:].reshape(-1, 1)


# ---------------------------------------------------------------- commands

# profile command field -> option of a 'kind:key=value,...' profile spec
_PROFILE_OPTIONS = {"n": "n", "m": "m", "p": "p", "k": "k", "seed": "seed",
                    "value": "value", "gamma_ratio": "ratio",
                    "hermitian": "hermitian"}


def _cmd_profile(cfg: dict) -> int:
    kind = str(_require(cfg, "kind"))
    out = _require(cfg, "out")
    opts = {key: cfg[field] for field, key in _PROFILE_OPTIONS.items()
            if cfg[field] is not None}
    profile = _build_profile(kind, opts)
    if cfg["normalize"] is not None:
        profile = normalize_profile(profile, float(cfg["normalize"]))

    write_profile_csv(profile, out)
    _write_record(out + ".meta.json", "profile", cfg, rows=profile.rows, cols=profile.cols,
                  mode=profile.mode, gamma_max_sq=profile.gamma_max_sq,
                  mean_variance=profile.mean_variance())
    print(f"wrote {out} ({profile.rows}x{profile.cols}, {profile.mode})")
    return 0


def _cmd_density(cfg: dict) -> int:
    profile = _parse_profile_spec(str(_require(cfg, "profile")))
    out = _require(cfg, "out")
    eta = float(_get(cfg, "eta", 0.01))
    grid = _parse_grid(str(_require(cfg, "grid")), eta)
    solver = _solver_config(cfg)

    dilated = profile.mode == "rectangular"
    if dilated:
        if profile.rows > profile.cols:
            raise ConfigError("profile: singular-value densities need rows <= cols")
        if np.any(grid < 0.0):
            raise ConfigError("grid: singular-value grids need min >= 0")
        y_rect = _parse_y_spec(cfg["y"], profile.rows, profile.cols)
        model = dilate_model(RectangularModel(profile=profile, y=y_rect))
        solved, y = model.profile, model.y
    else:
        solved, y = profile, _parse_y_spec(cfg["y"], profile.rows)
    try:
        curve = density_curve(solved, y, grid, eta=eta, config=solver)
    except DysonDivergenceError as exc:
        return _diagnose(out, cfg, "density", f"solver error: {exc}", error=str(exc))
    if dilated:
        curve = sv_density_correction(curve, profile.rows, profile.cols)

    write_density_csv(curve, out)
    _write_record(out + ".meta.json", "density", cfg, dilated=dilated, rows=profile.rows,
                  cols=profile.cols, eta=curve.eta, tolerance=curve.tolerance,
                  converged=[bool(f) for f in curve.converged])
    failed = int(np.sum(~curve.converged))
    if failed:
        return _diagnose(out, cfg, "density",
                         f"solver failed to converge at {failed} grid points",
                         failed_points=[float(t) for t in curve.grid[~curve.converged]],
                         failed_count=failed, tolerance=curve.tolerance,
                         hint="raise max_iterations, loosen tolerance or increase eta")
    print(f"wrote {out} ({grid.size} points, eta={_fmt(eta)})")
    return 0


def _cmd_outliers(cfg: dict) -> int:
    profile = _parse_profile_spec(str(_require(cfg, "model")))
    out = _require(cfg, "out")
    try:
        thetas = [float(v) for v in str(_require(cfg, "theta_list")).split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"theta_list: {exc}")
    if not thetas:
        raise ConfigError("theta_list: needs at least one spike strength")
    if not np.all(np.isfinite(thetas)):
        raise ConfigError("theta_list: spike strengths must be finite")
    if 0.0 in thetas:
        raise ConfigError("theta_list: spike strengths must be nonzero")
    vectors = str(_get(cfg, "vectors", "constant"))
    threshold = float(_get(cfg, "threshold", 1e-3))
    window = _parse_window(cfg["window"])
    scan_points = int(_get(cfg, "scan_points", 50))
    eta_eval = float(_get(cfg, "eta_eval", 1e-3))
    solver = _solver_config(cfg)

    rectangular = profile.mode == "rectangular"
    n, m = profile.rows, profile.cols
    if rectangular and min(thetas) <= 0.0:
        raise ConfigError("theta_list: rectangular spikes need theta > 0")
    y = _parse_y_spec(cfg["y"], n, m if rectangular else None)
    if vectors.startswith("csv:"):
        u, v = _load_vector_csv(vectors[4:], n, m if rectangular else None)
    else:
        u = _spike_vector(vectors, n)
        v = _spike_vector(vectors, m) if rectangular else None
    # one unit-strength model, prepared once, is scaled to every strength
    if rectangular:
        unit = HermitianModel.from_dilated(dilate_model(RectangularModel(
            profile=profile, y=y, spikes=RectangularSpikes(u=u, theta=[1.0], v=v))))
    else:
        unit = HermitianModel(profile=profile, y=y, spikes=SpikeSet(u=u, theta=[1.0]))
    cache: dict = {}
    reports = []
    try:
        for theta in thetas:
            model = unit._scaled(theta)
            reports.append(locate_outliers(
                model, window=window, config=solver,
                threshold=threshold, scan_points=scan_points,
                eta_eval=eta_eval, cache=cache))
    except RuntimeError as exc:  # DysonDivergenceError included
        return _diagnose(out, cfg, "outliers", f"outlier search failed: {exc}",
                         error=str(exc), completed_thetas=thetas[: len(reports)])

    _write_record(out, "outliers", cfg, dilated=rectangular, theta=thetas,
                  reports=[r.to_json_dict() for r in reports])

    failed = []  # curve points whose solve did not converge
    if len(thetas) == 1:
        lo, hi = reports[0].window
        lams = np.linspace(lo, hi, max(scan_points, 200))
        dets, converged = det_beta_curve(model, lams, config=solver, eta_eval=eta_eval)
        failed = [float(t) for t in lams[~converged]]
        lines = ["lambda,det_abs"]
        lines += [f"{t:.17g},{abs(d):.17g}" for t, d in zip(lams, dets)]
    else:
        lines = ["theta,lambda,det_abs,accepted"]
        for theta, report in zip(thetas, reports):  # every report has a candidate
            best = min(report.candidates, key=lambda c: c.det_abs)
            lines.append(f"{theta:.17g},{best.lam:.17g},"
                         f"{best.det_abs:.17g},{int(best.accepted)}")
    with open(out + ".curve.csv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    if failed:
        return _diagnose(out, cfg, "outliers",
                         f"solver failed to converge at {len(failed)} curve points",
                         failed_points=failed, failed_count=len(failed),
                         tolerance=solver.tolerance,
                         hint="raise max_iterations, loosen tolerance or increase eta_eval")

    n_accept = sum(len(r.accepted()) for r in reports)
    print(f"wrote {out} ({len(thetas)} spike strengths, "
          f"{n_accept} accepted outliers)")
    return 0


def _cmd_sample(cfg: dict) -> int:
    profile = _parse_profile_spec(str(_require(cfg, "profile")))
    out = _require(cfg, "out")
    count = int(_get(cfg, "count", 1))
    seed = int(_require(cfg, "seed"))

    batch = SampleBatch(seed=seed, count=count, n=profile.rows)
    values = []
    if profile.mode == "hermitian":
        y = _parse_y_spec(cfg["y"], profile.rows)
        deformation = _classify_deformation(y, profile.rows)
        for child in batch.child_seeds():
            h = sample_gue_profile(profile, child)
            deformation.combine(h, np.add)
            values.append(np.linalg.eigvalsh(h))
    else:
        y = _parse_y_spec(cfg["y"], profile.rows, profile.cols)
        for child in batch.child_seeds():
            x = sample_rect_gaussian(profile, child)
            if y is not None:
                x = x + y
            values.append(np.linalg.svd(x, compute_uv=False))
    flat = np.concatenate(values)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(_fmt(v) for v in flat) + "\n")
    _write_record(out + ".meta.json", "sample", cfg, count=count,
                  values_per_draw=values[0].size, mode=profile.mode,
                  kind="eigenvalues" if profile.mode == "hermitian" else "singular_values")
    print(f"wrote {out} ({count} draws, {flat.size} values)")
    return 0


# validate --what -> the fields that check does not read
_VALIDATE_UNUSED = {"master": ("d", "delta", "min_pass_rate"),
                    "concentration": ("bound_factor",)}


def _cmd_validate(cfg: dict) -> int:
    what = str(_require(cfg, "what"))
    if what not in _VALIDATE_UNUSED:
        raise ConfigError(f"what: unknown validation '{what}'")
    for field in _VALIDATE_UNUSED[what]:
        if cfg[field] is not None:
            raise ConfigError(f"{field}: does not apply to validate --what {what}")
    if cfg["n"] is not None and cfg["profile"] is not None:
        raise ConfigError("n: the profile fixes the dimension; give n or profile")
    out = _require(cfg, "out")
    n = int(_get(cfg, "n", 50))
    samples = int(_get(cfg, "samples", 100))
    seed = int(_get(cfg, "seed", 0))
    if cfg["profile"] is not None:
        profile = _parse_profile_spec(str(cfg["profile"]))
        if profile.mode != "hermitian":
            raise ConfigError("profile: validation runs on hermitian profiles")
        n = profile.rows
    else:
        profile = constant_profile(n, n, 1.0, hermitian=True)

    lam_c = complex(float(_get(cfg, "lambda_re", 0.0)),
                    float(_get(cfg, "lambda_im", 1.0 if what == "master" else 0.5)))
    if what == "master":
        bound_factor = float(_get(cfg, "bound_factor", 5.0))
        deviation = check_master_equality(profile, None, SpectralParameter.scalar(lam_c, n),
                                          SampleBatch(seed=seed, count=samples, n=n))
        bound = bound_factor / np.sqrt(samples)
        result = {
            "deviation": deviation,
            "bound": bound,
            "passed": bool(deviation <= bound),
        }
    else:
        min_rate = float(_get(cfg, "min_pass_rate", 0.95))
        d, delta = float(_get(cfg, "d", 2.0)), float(_get(cfg, "delta", 0.5))
        try:
            summary = validate_concentration(profile, None, lam_c, d=d, delta=delta,
                                             draws=samples, seed=seed)
        except ValueError as exc:  # Im lambda too small for the bound
            raise ConfigError(f"lambda_im: {exc}")
        result = dict(summary)
        result["min_pass_rate"] = min_rate
        result["passed"] = bool(summary["pass_rate"] >= min_rate)

    _write_record(out, "validate", cfg, what=what, n=n, samples=samples, result=result)
    status = "PASS" if result["passed"] else "FAIL"
    print(f"{what}: {status} ({out})")
    return 0 if result["passed"] else 3


# ---------------------------------------------------------------- parser

_SPEC_HELP = "profile CSV path or kind:key=value,... spec"

# field -> the keywords of its --flag, declared once for every command
_FLAGS = {
    "config": {"help": "JSON file with defaults for this command"},
    "out": {"help": "output file path"},
    "kind": {"choices": ["constant", "piecewise", "bernoulli", "doubly-stochastic"]},
    "n": {"type": int},
    "m": {"type": int},
    "p": {"type": float, "help": "bernoulli survival probability"},
    "k": {"type": int, "help": "permutation count (doubly-stochastic)"},
    "seed": {"type": int},
    "value": {"type": float, "help": "constant profile variance"},
    "gamma_ratio": {"type": float, "help": "gamma2^2 / gamma1^2 for piecewise profiles"},
    "hermitian": {"action": "store_const", "const": True},
    "normalize": {"type": float, "help": "rescale to this average variance"},
    "profile": {"help": _SPEC_HELP},
    "model": {"help": _SPEC_HELP},
    "y": {"help": "zero | diag:v1,... | csv:path"},
    "grid": {"help": "min:max[:step], step defaults to eta/2; "
                     "use --grid=-3:3:0.1 for negative minima"},
    "eta": {"type": float},
    "tolerance": {"type": float},
    "max_iterations": {"type": int},
    "theta_list": {"help": "comma-separated spike strengths"},
    "vectors": {"help": "constant | e1 | csv:path"},
    "threshold": {"type": float},
    "window": {"help": "lo:hi search window"},
    "scan_points": {"type": int},
    "eta_eval": {"type": float},
    "count": {"type": int},
    "what": {"choices": ["master", "concentration"]},
    "samples": {"type": int},
    "d": {"type": float},
    "delta": {"type": float},
    "lambda_re": {"type": float},
    "lambda_im": {"type": float},
    "bound_factor": {"type": float},
    "min_pass_rate": {"type": float},
}

# command -> (function, help, fields after --config and --out); the order of
# the fields is the order of --help and of the range checks
_COMMANDS = {
    "profile": (_cmd_profile, "generate a variance profile CSV",
                ("kind", "n", "m", "p", "k", "seed", "value", "gamma_ratio",
                 "hermitian", "normalize")),
    "density": (_cmd_density, "deterministic density curve CSV",
                ("profile", "y", "grid", "eta", "tolerance", "max_iterations")),
    "outliers": (_cmd_outliers, "locate spike-induced outliers",
                 ("model", "y", "theta_list", "vectors", "threshold", "window",
                  "scan_points", "eta_eval", "tolerance", "max_iterations")),
    "sample": (_cmd_sample, "Monte Carlo eigen/singular values",
               ("profile", "y", "count", "seed")),
    "validate": (_cmd_validate, "Monte Carlo identity checks",
                 ("what", "n", "samples", "d", "delta", "seed", "lambda_re",
                  "lambda_im", "profile", "bound_factor", "min_pass_rate")),
}


@functools.cache
def _parser() -> _Parser:
    """The process's one parser.  Each command's ``fields`` maps its fields but
    config to the type their values take: bool for a switch, else the flag's type or str."""
    parser = _Parser(prog="deteq",
                     description="Deterministic equivalents for deformed "
                                 "Gaussian matrices with variance profiles")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, names) in _COMMANDS.items():
        sub = commands.add_parser(command, help=summary)
        for name in ("config", "out", *names):
            sub.add_argument("--" + name.replace("_", "-"), **_FLAGS[name])
        sub.set_defaults(func=func, fields={
            name: bool if "const" in _FLAGS[name] else _FLAGS[name].get("type", str)
            for name in ("out", *names)})
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(_merge_config(args))
    except DysonDivergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError and validation errors from the library
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
