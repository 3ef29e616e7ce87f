"""Batch front-end: JSON configs in, CSV reports and verdict summaries out.

One command per process.  The config schema is strict (unknown keys are
rejected with their path) and every numeric printed in summary.txt also
appears as a column of report.csv.  Exit codes: 0 all verdicts pass, 1 any
verdict fails, 2 usage/config error, 3 numerical failure (bracketing,
witness search, non-convergence).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# Each family's keys beside "family", with their defaults; center, lo and hi
# are per-axis.
_FAMILIES = {
    "extremizer": {"alpha": 1.0, "beta": 1.0, "center": 0.0},
    "gaussian": {"center": 0.0, "width": 1.0, "amplitude": 1.0},
    "indicator": {"lo": -1.0, "hi": 1.0},
}

class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    """A validated config with every default filled in and per-axis values as lists of dim floats."""

    command: str
    dim: int
    lam: float
    grid_min: list
    grid_max: list
    points: list
    function: dict
    region: Optional[dict]
    tolerances: dict
    seed: Optional[int]


def _check_keys(obj: dict, allowed, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}" if path else f"unknown key {key}")


def _is_number(value) -> bool:
    """A finite JSON number; true and false are rejected although bool subclasses int.

    An integer too large for a float is not finite: ``math.isfinite`` raises
    OverflowError on it.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _per_axis(value, dim: int, name: str) -> list:
    if _is_number(value):
        return [float(value)] * dim
    if isinstance(value, list) and len(value) == dim and all(_is_number(v) for v in value):
        return [float(v) for v in value]
    raise ConfigError(f"{name} must be a number or a list of {dim} numbers")


def parse_config(text: str) -> RunConfig:
    """Validate a JSON run config; unknown keys are rejected with their path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(doc, {"command", "kernel", "grid", "function", "region", "tolerances", "seed"}, "")

    command = doc.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {', '.join(COMMANDS)}")

    kernel = doc.get("kernel")
    if not isinstance(kernel, dict):
        raise ConfigError("kernel must be an object with dim and lambda")
    _check_keys(kernel, {"dim", "lambda"}, "kernel")
    dim = kernel.get("dim")
    lam = kernel.get("lambda")
    if not isinstance(dim, int) or isinstance(dim, bool) or not 1 <= dim <= 3:
        raise ConfigError("kernel.dim must be an integer in [1, 3]")
    if not _is_number(lam) or not 0 < lam < dim:
        raise ConfigError("lambda must lie in (0, N)")

    grid = doc.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("grid must be an object")
    _check_keys(grid, {"min", "max", "points"}, "grid")
    grid_min = _per_axis(grid.get("min", -8.0), dim, "grid.min")
    grid_max = _per_axis(grid.get("max", 8.0), dim, "grid.max")
    points = _per_axis(grid.get("points", 128), dim, "grid.points")
    for lo, hi in zip(grid_min, grid_max):
        if not lo < hi:
            raise ConfigError("grid.min must be strictly below grid.max on every axis")
        if not math.isfinite(hi - lo):
            raise ConfigError("grid.max - grid.min must be a finite number on every axis")
    for n in points:
        if n != int(n):
            raise ConfigError(f"grid.points must be whole numbers, got {n:g}")
        if not 8 <= n <= 4096:
            raise ConfigError("grid.points must lie in [8, 4096]")
    points = [int(n) for n in points]

    function = doc.get("function")
    if function is None:
        function = {"family": "extremizer"}
    if not isinstance(function, dict):
        raise ConfigError("function must be an object")
    if "file" in function:
        _check_keys(function, {"file"}, "function")
        if not isinstance(function["file"], str):
            raise ConfigError("function.file must be a path string")
    else:
        fam = function.get("family")
        # The family may be any JSON value, and a list or object is unhashable.
        if not isinstance(fam, str) or fam not in _FAMILIES:
            raise ConfigError(f"function.family must be one of {', '.join(_FAMILIES)}")
        _check_keys(function, {"family", *_FAMILIES[fam]}, "function")
        function = {**_FAMILIES[fam], **function}
        for key in ("alpha", "amplitude", "beta", "width"):
            if key in function and not _is_number(function[key]):
                raise ConfigError(f"function.{key} must be a number")
        for key in ("beta", "width"):
            if key in function and not function[key] > 0:
                raise ConfigError(f"function.{key} must be positive")
        for key in ("center", "lo", "hi"):
            if key in function:
                function[key] = _per_axis(function[key], dim, f"function.{key}")

    region = doc.get("region")
    if region is not None:
        if not isinstance(region, dict) or len(region) != 1:
            raise ConfigError("region must hold exactly one of: ball, halfspace")
        kind, params = next(iter(region.items()))
        if kind == "ball":
            _check_keys(params, {"center", "radius"}, "region.ball")
            # hemiball reads only the centre: the radius is what it computes.
            if command == "hemiball" and "radius" in params:
                raise ConfigError("command hemiball takes a region.ball without a radius, got region.ball.radius")
            if command != "hemiball" and not (_is_number(params.get("radius")) and params["radius"] > 0):
                raise ConfigError("region.ball.radius must be a positive number")
            params = {**params, "center": _per_axis(params.get("center", 0.0), dim, "region.ball.center")}
        elif kind == "halfspace":
            _check_keys(params, {"normal", "offset"}, "region.halfspace")
            normal = _per_axis(params.get("normal", [0.0] * (dim - 1) + [1.0]), dim, "region.halfspace.normal")
            if not any(normal):
                raise ConfigError("region.halfspace.normal must be non-zero")
            offset = params.get("offset", 0.0)
            if not _is_number(offset):
                raise ConfigError("region.halfspace.offset must be a number")
            params = {"normal": normal, "offset": offset}
        else:
            raise ConfigError("region must hold exactly one of: ball, halfspace")
        kinds = _COMMANDS[command].regions
        if kind not in kinds:
            takes = f"takes only region.{' or region.'.join(kinds)}" if kinds else "takes no region"
            raise ConfigError(f"command {command} {takes}, got region.{kind}")
        region = {kind: params}

    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict) or not all(_is_number(v) for v in tolerances.values()):
        raise ConfigError("tolerances must map names to numbers")
    defaults = _COMMANDS[command].tolerances
    _check_keys(tolerances, defaults, "tolerances")
    tolerances = {**defaults, **tolerances}

    seed = doc.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool) or seed < 0):
        raise ConfigError("seed must be a non-negative integer")

    return RunConfig(
        command=command,
        dim=dim,
        lam=float(lam),
        grid_min=grid_min,
        grid_max=grid_max,
        points=points,
        function=function,
        region=region,
        tolerances=tolerances,
        seed=seed,
    )


def _build_field(cfg: RunConfig, kp):
    import numpy as np

    from .coverage import box_coverage
    from .energy import gaussian_field
    from .fields import Field, box_grid, extremizer_spec, make_extremizer, read_field_csv

    try:
        grid = box_grid(cfg.grid_min, cfg.grid_max, cfg.points)
    except ValueError as exc:
        raise ConfigError("grid must have equal spacing on every axis") from exc
    fn = cfg.function
    if "file" in fn:
        try:
            f = read_field_csv(fn["file"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read function.file: {exc}") from exc
        if f.grid.dim != cfg.dim:
            raise ConfigError(f"function.file holds a {f.grid.dim}-D field, kernel.dim is {cfg.dim}")
    elif fn["family"] == "extremizer":
        spec = extremizer_spec(kp, alpha=fn["alpha"], beta=fn["beta"], center=np.asarray(fn["center"]))
        try:
            f = make_extremizer(spec, kp, grid)
        except ValueError as exc:
            raise ConfigError(f"function.center: {exc}") from exc
    elif fn["family"] == "gaussian":
        f = gaussian_field(grid, fn["center"], fn["width"], fn["amplitude"])
    else:
        f = Field(grid, box_coverage(grid, fn["lo"], fn["hi"]).reshape(grid.shape))
    # An all-zero field makes every energy, defect and bound 0, so each
    # verdict would pass vacuously.
    if not np.any(f.values):
        raise ConfigError("function is identically zero on the grid")
    return f


def _build_region(cfg: RunConfig):
    from .geometry import Ball, HalfSpace, unit_vector

    if cfg.region is None:
        raise ConfigError(f"command {cfg.command} requires a region")
    if "ball" in cfg.region:
        ball = cfg.region["ball"]
        return Ball(center=ball["center"], radius=float(ball["radius"]))
    plane = cfg.region["halfspace"]
    return HalfSpace(normal=unit_vector(plane["normal"]), offset=float(plane["offset"]))


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, str)):
        return str(x)
    return format(float(x), ".17g")


class Report:
    """Accumulates named numerics and verdicts for the two output files."""

    def __init__(self):
        self.columns: List[tuple] = []
        self.lines: List[str] = []
        self.all_pass = True

    def add(self, name: str, value) -> None:
        self.columns.append((name, value))
        self.lines.append(f"{name} = {_fmt(value)}")

    def verdict(self, name: str, measured: float, tolerance: float, passed: bool) -> None:
        self.all_pass &= bool(passed)
        self.columns.append((f"{name}_measured", measured))
        self.columns.append((f"{name}_tolerance", tolerance))
        self.columns.append((f"{name}_pass", passed))
        tag = "PASS" if passed else "FAIL"
        self.lines.append(f"{tag} {name}: measured = {_fmt(measured)}, tolerance = {_fmt(tolerance)}")

    def write(self, out_dir: str) -> None:
        # Each report is a new file: ext4 flushes a file truncated to zero on
        # close (auto_da_alloc) and the next truncation waits for that write,
        # so a loop of runs into one directory would stall for milliseconds.
        os.makedirs(out_dir, exist_ok=True)
        header = ",".join(name for name, _ in self.columns)
        row = ",".join(_fmt(value) for _, value in self.columns)
        for name, text in (("report.csv", f"{header}\n{row}\n"), ("summary.txt", "\n".join(self.lines) + "\n")):
            path = os.path.join(out_dir, name)
            if os.path.lexists(path):
                os.remove(path)
            with open(path, "w") as fh:
                fh.write(text)


def _cmd_sharp_constant(cfg: RunConfig, kp, rep: Report, out_dir: str) -> None:
    from .energy import sharp_constant

    value = sharp_constant(kp)
    rep.add("value", value)
    rep.verdict("value_finite", value, math.inf, math.isfinite(value) and value > 0)


def _cmd_energy(cfg: RunConfig, kp, rep: Report, out_dir: str) -> None:
    from .energy import energy_direct, sharp_constant
    from .fields import lp_norm

    f = _build_field(cfg, kp)
    res = energy_direct(f, f, kp)
    rep.add("value", res.value)
    rep.add("quadrature", res.quadrature)
    rep.add("est_error", res.est_error)
    rep.add("est_kind", res.est_kind)
    quotient = res.value / lp_norm(f, kp.p) ** 2
    rep.add("rayleigh_quotient", quotient)
    if cfg.function.get("family") == "extremizer":
        tol = cfg.tolerances["rel_tol"]
        diff = abs(quotient - sharp_constant(kp)) / sharp_constant(kp)
        rep.verdict("quotient_matches_sharp_constant", diff, tol, diff <= tol)


def _cmd_transform(cfg: RunConfig, kp, rep: Report, out_dir: str) -> None:
    from .energy import energy_direct
    from .fields import apply_region_map

    f = _build_field(cfg, kp)
    region = _build_region(cfg)
    try:
        theta_f = apply_region_map(region, f, kp)
    except ValueError as exc:  # an inversion undefined on the config grid
        raise ConfigError(f"region: {exc}") from exc
    e_f = energy_direct(f, f, kp)
    e_t = energy_direct(theta_f, theta_f, kp)
    rep.add("energy", e_f.value)
    rep.add("energy_transformed", e_t.value)
    rep.add("est_error", e_f.est_error)
    rep.add("est_kind", e_f.est_kind)
    rep.add("est_error_transformed", e_t.est_error)
    rep.add("est_kind_transformed", e_t.est_kind)
    sigma = cfg.tolerances["sigma"]
    combined = sigma * (e_f.est_error + e_t.est_error)
    diff = abs(e_t.value - e_f.value)
    rep.verdict("conformal_invariance", diff, combined, diff <= combined)


def _cmd_positivity(cfg: RunConfig, kp, rep: Report, out_dir: str) -> None:
    from .positivity import positivity_defect

    f = _build_field(cfg, kp)
    region = _build_region(cfg)
    try:
        result = positivity_defect(region, f, kp)
    except ValueError as exc:  # an inversion undefined on the config grid
        raise ConfigError(f"region: {exc}") from exc
    rep.add("defect", result.defect)
    rep.add("defect_via_g", result.defect_via_g)
    rep.add("est_error", result.est_error)
    rep.add("est_defect", result.est_defect)
    rep.add("est_via_g", result.est_via_g)
    rep.add("est_kind", result.est_kind)
    rep.add("strict_flag", result.strict_flag)
    rep.add("positivity_valid", kp.positivity_valid)
    if result.oracle_value is not None:
        rep.add("oracle_value", result.oracle_value)
    if kp.positivity_valid:
        bound = 3.0 * result.est_error
        rep.verdict("defect_nonnegative", result.defect, bound, result.defect >= -bound)


def _cmd_represent(cfg: RunConfig, kp, rep: Report, out_dir: str) -> None:
    from .positivity import halfspace_representation, reflected_energy

    f = _build_field(cfg, kp)
    # The oracle's input conditions (support in x_N >= 0; separable and
    # radial in x' for N >= 2) are conditions on the configured field.
    try:
        value = halfspace_representation(f, kp)
        direct = reflected_energy(f, f, kp)
    except ValueError as exc:
        raise ConfigError(f"represent: {exc}") from exc
    rep.add("representation", value)
    rep.add("direct", direct.value)
    rep.add("direct_est_error", direct.est_error)
    rep.add("direct_est_kind", direct.est_kind)
    tol = max(3.0 * direct.est_error, cfg.tolerances["rel_tol"] * abs(value))
    diff = abs(value - direct.value)
    rep.verdict("representation_matches_direct", diff, tol, diff <= tol)


def _cmd_symmetrize(cfg: RunConfig, kp, rep: Report, out_dir: str) -> None:
    from .fields import write_field_csv
    from .symmetrize import SymmetrizationConfig, run_symmetrization

    f0 = _build_field(cfg, kp)
    if (f0.values < 0).any():
        raise ConfigError("symmetrize needs a non-negative function")
    sym_cfg = SymmetrizationConfig(seed=cfg.seed)
    try:
        trace = run_symmetrization(f0, kp, sym_cfg)
    except ValueError as exc:  # a 1-D tail whose |f|^p has infinite mass
        raise ConfigError(f"function: |f|^p: {exc}") from exc
    rep.add("n_steps", len(trace.steps))
    rep.add("converged", trace.converged)
    if trace.final_fit is not None:
        rep.add("fit_error", trace.final_fit.fit_error)
        rep.add("fit_alpha", trace.final_fit.alpha)
        rep.add("fit_beta", trace.final_fit.beta)
        tol = cfg.tolerances["fit_error"]
        rep.verdict("fit_error_small", trace.final_fit.fit_error, tol, trace.final_fit.fit_error <= tol)
    if trace.final_field is not None:
        write_field_csv(trace.final_field, os.path.join(out_dir, "final_field.csv"))
    if not trace.converged:
        raise _NumericalFailure("symmetrization did not converge within the sweep budget")


def _cmd_hemiball(cfg: RunConfig, kp, rep: Report, out_dir: str) -> None:
    from .symmetrize import hemiball_radius

    f = _build_field(cfg, kp)
    # Without a ball region the hemi-ball is centred at the origin.
    center = cfg.region["ball"]["center"] if cfg.region and "ball" in cfg.region else [0.0] * cfg.dim
    try:
        radius = hemiball_radius(f, kp, center)
    except ValueError as exc:  # a 1-D tail whose |f|^p has infinite mass
        raise ConfigError(f"function: |f|^p: {exc}") from exc
    rep.add("radius", radius)
    expected, tol = cfg.tolerances["expected"], cfg.tolerances["abs_tol"]
    if expected is not None:
        diff = abs(radius - expected)
        rep.verdict("radius_matches_expected", diff, tol, diff <= tol)


def _cmd_lizhu_check(cfg: RunConfig, kp, rep: Report, out_dir: str) -> None:
    import numpy as np

    from .geometry import Ball
    from .lizhu import check_mass_identity, check_pointwise_invariance, fit_invariant_density

    v = _build_field(cfg, kp)
    if np.any(v.values < 0):
        raise ConfigError("lizhu-check needs a non-negative density")
    fit = fit_invariant_density(v)
    rep.add("fit_error", fit.fit_error)
    rep.add("fit_alpha", fit.alpha)
    rep.add("fit_beta", fit.beta)
    rep.add("mass_divergence", fit.mass_divergence)
    scale = np.sqrt(fit.beta)
    offsets = np.linspace(-0.8 * scale, 0.8 * scale, 10)
    centers = [fit.center + off * np.eye(cfg.dim)[0] for off in offsets]
    try:
        cv = check_mass_identity(v, centers)
    except ValueError as exc:  # a 1-D tail of infinite mass
        raise ConfigError(f"function: {exc}") from exc
    rep.add("mass_identity_cv", cv)
    deviation = check_pointwise_invariance(v, Ball(center=fit.center, radius=np.sqrt(fit.beta)))
    rep.add("pointwise_deviation", deviation)
    cv_tol, dev_tol = cfg.tolerances["cv_tol"], cfg.tolerances["dev_tol"]
    rep.verdict("mass_identity", cv, cv_tol, cv <= cv_tol)
    rep.verdict("pointwise_invariance", deviation, dev_tol, deviation <= dev_tol)


def _add_grid(rep: Report, grid) -> None:
    rep.add("points_per_axis", int(grid.shape[0]))
    rep.add("grid_shape", grid.shape_text)
    rep.add("grid_spacing", grid.spacing)


def _cmd_counterexample(cfg: RunConfig, kp, rep: Report, out_dir: str) -> None:
    from .fields import write_field_csv
    from .positivity import find_negative_defect, newton_zero_overlap

    # The Newton example is N = 3 at lambda = N - 2, the witness search N = 3
    # below it, each with 1e-12 slack.  Both run on their own fixed grids, not
    # on the config grid; the report names the grid actually used.
    if cfg.dim != 3 or cfg.lam > 1.0 + 1e-12:
        got = f"N = {cfg.dim}, lambda = {_fmt(cfg.lam)}"
        raise ConfigError(f"command counterexample needs kernel.dim 3 and lambda <= 1, got {got}")
    if kp.positivity_valid:
        result = newton_zero_overlap(kp)
        _add_grid(rep, result.field.grid)
        rep.add("overlap", result.overlap)
        rep.add("est_error", result.est_error)
        rep.add("est_kind", result.est_kind)
        rep.add("self_energy", result.self_energy)
        write_field_csv(result.field, os.path.join(out_dir, "newton_field.csv"))
        rep.verdict("overlap_vanishes", abs(result.overlap), result.est_error, abs(result.overlap) <= result.est_error)
        rep.verdict(
            "self_energy_large",
            result.self_energy,
            100.0 * result.est_error,
            result.self_energy > 100.0 * result.est_error,
        )
    else:
        result = find_negative_defect(kp)
        _add_grid(rep, result.negative_field.grid)
        rep.add("negative_defect", result.negative_defect)
        rep.add("positive_defect", result.positive_defect)
        rep.add("est_error", result.est_error)
        rep.add("est_kind", result.est_kind)
        write_field_csv(result.negative_field, os.path.join(out_dir, "negative_witness.csv"))
        write_field_csv(result.positive_field, os.path.join(out_dir, "positive_witness.csv"))
        bound = 3.0 * result.est_error
        rep.verdict("negative_witness", result.negative_defect, -bound, result.negative_defect < -bound)
        rep.verdict("positive_witness", result.positive_defect, bound, result.positive_defect > bound)


class _NumericalFailure(RuntimeError):
    pass


class _Command(NamedTuple):
    handler: Callable
    tolerances: dict
    regions: tuple = ()


# One row per command: its handler, the tolerance names it reads with their
# defaults, and the region kinds it reads.  A tolerance or region that the
# command does not read is a config error, not silently ignored.  hemiball's
# expected has no default: without it there is no verdict.
_COMMANDS = {
    "energy": _Command(_cmd_energy, {"rel_tol": 0.01}),
    "transform": _Command(_cmd_transform, {"sigma": 1.0}, ("ball", "halfspace")),
    "positivity": _Command(_cmd_positivity, {}, ("ball", "halfspace")),
    "represent": _Command(_cmd_represent, {"rel_tol": 0.005}),
    "symmetrize": _Command(_cmd_symmetrize, {"fit_error": 0.05}),
    "hemiball": _Command(_cmd_hemiball, {"expected": None, "abs_tol": 1e-4}, ("ball",)),
    "lizhu-check": _Command(_cmd_lizhu_check, {"cv_tol": 1e-3, "dev_tol": 1e-3}),
    "counterexample": _Command(_cmd_counterexample, {}),
    "sharp-constant": _Command(_cmd_sharp_constant, {}),
}
COMMANDS = tuple(_COMMANDS)


def run(config: RunConfig, out_dir: str, verbose: bool = False) -> int:
    """Execute one command, writing report.csv and summary.txt to out_dir."""
    from .fields import KernelParams
    from .positivity import SearchFailureError
    from .coverage import BracketingError

    kp = KernelParams(dim=config.dim, lam=config.lam)
    rep = Report()
    rep.lines.append(f"command: {config.command} (N={config.dim}, lambda={_fmt(config.lam)})")
    os.makedirs(out_dir, exist_ok=True)
    try:
        _COMMANDS[config.command].handler(config, kp, rep, out_dir)
    except (BracketingError, SearchFailureError, _NumericalFailure) as exc:
        rep.lines.append(f"NUMERICAL FAILURE: {exc}")
        rep.write(out_dir)
        if verbose:
            print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    rep.write(out_dir)
    if verbose:
        for line in rep.lines:
            print(line)
    return EXIT_PASS if rep.all_pass else EXIT_FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="invpos", description=__doc__, add_help=True)
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default=".", help="output directory for report.csv and summary.txt")
    parser.add_argument("--threads", type=int, default=1, help="BLAS thread count; the FFTs always run on one thread")
    parser.add_argument("--verbose", action="store_true")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    if args.threads < 1:
        print("--threads must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(args.threads))
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        config = parse_config(text)
        return run(config, args.out, verbose=args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
