"""Batch CLI: declarative JSON job configs in, machine-readable
artifacts out.

Every task is deterministic (no RNG anywhere in the engine), artifacts
are written atomically with shortest round-trip decimals, and a manifest
records the config hash and library version, so a rerun of the same
config produces byte-identical data artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .cover import DEPTH_CAP, box_dimension, cover_profile
from .dynamics import (N_MAX_CAP, AffinePair, MapSpec, Mode,
                       build_orbit_catalog, save_catalog)
from .errors import ConfigError, EngineError
from .pairing import TestFunction, identity_residual, orbit_length_histogram
from .tracecheck import comparison_table, export_table
from .util import atomic_write_text, is_real
from .zeros import (_BOUNDARY_STEP, DELTA_BRACKET, LogFamily, PolyFamily, Rectangle,
                    StripFamily, counting_report, export_zeros,
                    growth_exponent_probe, leading_real_zero, scan_region)
from .zeta import (ORDER_CAP, CycleEvaluator, FredholmEvaluator, ModelEvaluator,
                   _cycle_arrays, export_grid, folded_size, model_dimension)

TASKS = ("orbits", "cover", "zeta-eval", "zeros", "count", "growth",
         "pairing", "trace-check", "dimension")


def _require(cfg: dict, key: str, where: str):
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where} must be an object")
    if key not in cfg:
        raise ConfigError(f"missing key {key!r} in {where}")
    return cfg[key]


def _check_keys(cfg: dict, allowed: set[str], where: str) -> None:
    for key in cfg:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}: {where}.{key} is not read by this job")


def _as_complex(v, where: str) -> complex:
    parts = v if isinstance(v, list) and len(v) == 2 else [v, 0.0]
    if all(is_real(x) for x in parts):
        return complex(parts[0], parts[1])
    raise ConfigError(f"{where} must be a finite number or [re, im] pair")


def _as_real(v, where: str) -> float:
    if is_real(v):
        return float(v)
    raise ConfigError(f"{where} must be a finite number")


def _as_positive(v, where: str) -> float:
    x = _as_real(v, where)
    if not x > 0.0:
        raise ConfigError(f"{where} must be positive")
    return x


# the largest count (grid size, number of scales, series depth) a config
# may ask for
COUNT_CAP = 10 ** 6


def _as_count(v, where: str, hi: int = COUNT_CAP, lo: int = 1) -> int:
    """A JSON integer, at least `lo` (1 or 0) and at most `hi`."""
    if type(v) is int and lo <= v <= hi:
        return v
    sign = "positive" if lo == 1 else "non-negative"
    raise ConfigError(f"{where} must be a {sign} integer at most {hi}")


def _n_max(params: dict) -> int:
    return _as_count(params.get("n_max", 12), "params.n_max", N_MAX_CAP)


# the most memory one folded Fredholm matrix F (complex, side
# folded_size(level, order)) may take; the LU works on a copy of it
FREDHOLM_MATRIX_BYTES = 256 * 2 ** 20


def _fredholm_level(system: MapSpec, params: dict) -> int:
    """The level of a Fredholm evaluator, which needs a Real1D system.
    The evaluator picks its order from the cover, up to ORDER_CAP, so the
    matrix budget is checked at that."""
    if system.mode is not Mode.REAL_1D:
        raise ConfigError(f"system.mode {system.mode.value!r}: Fredholm matrices need 'real1d'")
    level = params.get("level", 2)
    if not (type(level) is int and 0 <= level <= DEPTH_CAP):
        raise ConfigError(f"params.level must be an integer in 0..{DEPTH_CAP}")
    side = folded_size(level, ORDER_CAP)
    if 16 * side * side > FREDHOLM_MATRIX_BYTES:
        raise ConfigError(
            f"params.level {level} at order {ORDER_CAP} needs a {side} x {side} Fredholm "
            f"matrix, over the {FREDHOLM_MATRIX_BYTES >> 20} MiB budget")
    return level


# each task's quadratic route when params.method does not choose one: the
# cycle expansion holds only right of delta.  A pairing job has no method
_ROUTES = {"zeta-eval": "cycle", "zeros": "fredholm", "count": "fredholm",
           "growth": "fredholm", "pairing": "fredholm"}


def build_system(cfg: dict, catalog: bool = True):
    """The configured system; with catalog false a quadratic system
    refuses the keys only an orbit catalog reads."""
    kind = _require(cfg, "kind", "system")
    if kind == "quadratic":
        _check_keys(cfg, {"kind", "c", "mode"} |
                    ({"tol_point", "n_cert"} if catalog else set()), "system")
        mode = cfg.get("mode", "real1d")
        try:
            mode = Mode(mode)
        except ValueError:
            raise ConfigError(f"unknown mode {mode!r} in system") from None
        try:
            return MapSpec(c=_as_complex(_require(cfg, "c", "system"), "system.c"),
                           mode=mode,
                           tol_point=_as_positive(cfg.get("tol_point", 1e-12),
                                                  "system.tol_point"),
                           n_cert=_as_count(cfg.get("n_cert", 1), "system.n_cert", 14))
        except ValueError as exc:
            raise ConfigError(f"invalid quadratic system: {exc}") from exc
    if kind == "model":
        _check_keys(cfg, {"kind", "a", "b", "k_max"}, "system")
        a, b = (_as_real(_require(cfg, key, "system"), f"system.{key}") for key in "ab")
        k_max = _as_count(_require(cfg, "k_max", "system"), "system.k_max", lo=0)
        try:
            return ModelEvaluator(a, b, k_max)
        except ValueError as exc:
            raise ConfigError(f"invalid model system: {exc}") from exc
    if kind == "affine":
        _check_keys(cfg, {"kind", "ratios"}, "system")
        ratios = _require(cfg, "ratios", "system")
        if not (isinstance(ratios, list) and len(ratios) == 2):
            raise ConfigError("system.ratios must be a pair")
        try:
            return AffinePair(tuple(_as_real(r, f"system.ratios[{k}]")
                                    for k, r in enumerate(ratios)))
        except ValueError as exc:
            raise ConfigError(f"invalid affine system: {exc}") from exc
    raise ConfigError(f"unknown system kind {kind!r}")


def _evaluator(system, params: dict, task: str, task_keys: set[str]):
    """Evaluator for the configured system, once every params key that
    neither the task nor the route reads is refused.  A quadratic system
    takes the task's route in _ROUTES unless params.method names one.  A
    task key `level` is that of the job's delta solve."""
    if isinstance(system, ModelEvaluator):
        _check_keys(params, task_keys, "params")
        return system
    if isinstance(system, AffinePair):
        _check_keys(params, task_keys | {"k_max"}, "params")
        k_max = _as_count(params.get("k_max", 40), "params.k_max", lo=0)
        return ModelEvaluator(*system.ratios, k_max)
    method = params.get("method", _ROUTES[task])
    if method == "fredholm":
        _check_keys(params, task_keys | {"method", "level"}, "params")
        return FredholmEvaluator(system, _fredholm_level(system, params))
    if method == "cycle":
        _check_keys(params, task_keys | {"method", "n_max"}, "params")
        if "level" in task_keys:   # checked before the catalog is built
            _fredholm_level(system, params)
        return CycleEvaluator(build_orbit_catalog(system, _n_max(params)))
    raise ConfigError(f"unknown method {method!r} in params")


def _rectangle(params: dict) -> Rectangle:
    rect = _require(params, "rectangle", "params")
    if not (isinstance(rect, list) and len(rect) == 4):
        raise ConfigError("params.rectangle must be [re_lo, re_hi, im_lo, im_hi]")
    re_lo, re_hi, im_lo, im_hi = [_as_real(v, f"params.rectangle[{k}]")
                                  for k, v in enumerate(rect)]
    if not (re_lo < re_hi and im_lo < im_hi):
        raise ConfigError("params.rectangle must have re_lo < re_hi and im_lo < im_hi")
    # the outer contour's winding samples it at least every _BOUNDARY_STEP
    if 2.0 * ((re_hi - re_lo) + (im_hi - im_lo)) > COUNT_CAP * _BOUNDARY_STEP:
        raise ConfigError(f"params.rectangle is too large: its contour needs more "
                          f"than {COUNT_CAP} segments of {_BOUNDARY_STEP}")
    return Rectangle(re_lo, re_hi, im_lo, im_hi)


def _grid(params: dict, key: str) -> np.ndarray:
    spec = _require(params, key, "params")
    if not (isinstance(spec, list) and len(spec) == 3):
        raise ConfigError(f"params.{key} must be [lo, hi, count]")
    return np.linspace(_as_real(spec[0], f"params.{key}[0]"),
                       _as_real(spec[1], f"params.{key}[1]"),
                       _as_count(spec[2], f"params.{key}[2]"))


_FAMILIES = {"strip": (StripFamily, ("c0",)), "poly": (PolyFamily, ("alpha",)),
             "log": (LogFamily, ("rho", "delta"))}


def _family(cfg) -> tuple[type, dict]:
    """A counting family's class and its fields, each checked before any
    work; a log family may leave out delta, which the job then solves."""
    kind = _require(cfg, "kind", "params.family")
    if not (isinstance(kind, str) and kind in _FAMILIES):
        raise ConfigError(f"unknown counting family {kind!r}")
    cls, keys = _FAMILIES[kind]
    _check_keys(cfg, {"kind", *keys}, "params.family")
    return cls, {key: _as_real(_require(cfg, key, "params.family"), f"params.family.{key}")
                 for key in keys if key in cfg or key != "delta"}


def _radii(params: dict) -> list[float]:
    radii = _require(params, "radii", "params")
    if not (isinstance(radii, list) and radii):
        raise ConfigError("params.radii must be a non-empty list of radii")
    return [_as_positive(r, f"params.radii[{k}]") for k, r in enumerate(radii)]


def _system_delta(system, params: dict, ev=None) -> float:
    """delta: the closed form for a model or affine system, else the
    leading real zero of the Fredholm evaluator at params.level, which is
    `ev` when the job's route built that one."""
    if isinstance(system, ModelEvaluator):
        return model_dimension(system.a, system.b)
    if isinstance(system, AffinePair):
        return model_dimension(*system.ratios)
    if not isinstance(ev, FredholmEvaluator):
        ev = FredholmEvaluator(system, _fredholm_level(system, params))
    return leading_real_zero(ev, DELTA_BRACKET).s.real


# ---------------------------------------------------------------------------
# task runners (each returns a dict of artifact name -> writer callable)

def _task_orbits(system, params):
    _check_keys(params, {"n_max"}, "params")
    if not isinstance(system, MapSpec):
        raise ConfigError("orbits task requires a quadratic system")
    catalog = build_orbit_catalog(system, _n_max(params))
    return {"catalog.json": lambda path: save_catalog(catalog, path)}


def _box_params(system, params: dict) -> dict:
    """box_dimension's keyword arguments: h_max (default: from the trap),
    n_scales >= 5 (the fit needs five) and decades."""
    if not isinstance(system, (MapSpec, AffinePair)):
        raise ConfigError("box counting requires a quadratic or affine system")
    n_scales = _as_count(params.get("n_scales", 25), "params.n_scales")
    if n_scales < 5:
        raise ConfigError("params.n_scales must be at least 5")
    h_max = params.get("h_max")
    return {"h_max": None if h_max is None else _as_positive(h_max, "params.h_max"),
            "n_scales": n_scales,
            "decades": _as_positive(params.get("decades", 3.0), "params.decades")}


def _task_cover(system, params):
    _check_keys(params, {"h_max", "n_scales", "decades", "hs"}, "params")
    box = _box_params(system, params)
    if "hs" in params:
        for key in ("h_max", "n_scales", "decades"):
            if key in params:
                raise ConfigError(f"params.{key} does not apply when params.hs gives the scales")
        hs = params["hs"]
        if not (isinstance(hs, list) and hs):
            raise ConfigError("params.hs must be a non-empty list of scales")
        stats = cover_profile(system, [_as_positive(h, f"params.hs[{k}]")
                                       for k, h in enumerate(hs)])
    else:
        _fit, stats = box_dimension(system, **box)
    return {"cover_stats.csv": stats.to_csv}


def _task_zeta_eval(system, params):
    res, ims = _grid(params, "re"), _grid(params, "im")
    ev = _evaluator(system, params, "zeta-eval", {"re", "im"})
    ss = [complex(a, b) for b in ims for a in res]
    values = ev.zeta_grid(res, ims)
    return {"zeta_grid.csv": lambda path: export_grid(path, ss, values)}


def _task_zeros(system, params):
    rect = _rectangle(params)
    ev = _evaluator(system, params, "zeros", {"rectangle"})
    records = scan_region(ev, rect)
    return {"zeros.csv": lambda path: export_zeros(path, records)}


def _task_count(system, params):
    rect, radii = _rectangle(params), _radii(params)
    cls, fields = _family(_require(params, "family", "params"))
    # a log family without a delta makes a quadratic system's delta solve
    solve_delta = cls is LogFamily and "delta" not in fields
    ev = _evaluator(system, params, "count", {"rectangle", "family", "radii"} |
                    ({"level"} if solve_delta and isinstance(system, MapSpec) else set()))
    if solve_delta:
        fields["delta"] = _system_delta(system, params, ev)
    report = counting_report(scan_region(ev, rect), cls(**fields), radii)
    return {"counts.csv": report.to_csv,
            "count_summary.json": lambda path: atomic_write_text(
                path, json.dumps(report.summary(), indent=1) + "\n")}


def _task_growth(system, params):
    c0 = _as_real(_require(params, "c0", "params"), "params.c0")
    radii = _radii(params)
    re_samples = _as_count(params.get("re_samples", 33), "params.re_samples")
    ev = _evaluator(system, params, "growth", {"c0", "radii", "re_samples"})
    fit = growth_exponent_probe(ev, c0, radii, re_samples=re_samples)
    payload = {"exponent": fit.exponent, "r2": fit.r2,
               "rows": [{"r": r, "max_log_abs_Z": m} for r, m in zip(fit.rs, fit.max_log_abs)],
               "skipped": list(fit.skipped)}
    return {"growth.json": lambda path: atomic_write_text(
        path, json.dumps(payload, indent=1) + "\n")}


def _window(win, where: str) -> TestFunction:
    if not isinstance(win, dict):
        raise ConfigError(f"{where} must be an object")
    _check_keys(win, {"d", "gamma"}, where)
    d = _as_real(_require(win, "d", where), f"{where}.d")
    gamma = _as_real(_require(win, "gamma", where), f"{where}.gamma")
    try:
        return TestFunction(d=d, gamma=gamma)
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _task_pairing(system, params):
    # not method: a quadratic system's pairing takes the Fredholm route
    _check_keys(params, {"windows", "rectangle", "n_max", "k_max", "delta",
                         "histogram_n", "level"}, "params")
    if not isinstance(system, (AffinePair, MapSpec)):
        raise ConfigError("pairing task requires an affine or quadratic system")
    windows = _require(params, "windows", "params")
    if not isinstance(windows, list):
        raise ConfigError("params.windows must be a list")
    phis = [_window(win, f"params.windows[{k}]") for k, win in enumerate(windows)]
    n_max = _n_max(params)
    histogram_n = params.get("histogram_n")
    if histogram_n is not None:
        histogram_n = _as_count(histogram_n, "params.histogram_n", n_max)
    region = _rectangle(params)
    delta = params.get("delta")
    delta = None if delta is None else _as_real(delta, "params.delta")
    ev = _evaluator(system, params, "pairing",
                    {"windows", "rectangle", "n_max", "delta", "histogram_n"})
    catalog = system.orbit_catalog(n_max) if isinstance(system, AffinePair) else \
        build_orbit_catalog(system, n_max)
    if delta is None:
        delta = _system_delta(system, params, ev)
    zeros = scan_region(ev, region)
    arrays = _cycle_arrays(catalog)
    artifacts = {}
    for k, phi in enumerate(phis):
        result = identity_residual(catalog, ev, delta, phi, region, zeros=zeros, arrays=arrays)
        artifacts[f"pairing_{k}.json"] = result.to_json
    if histogram_n is not None:
        hist = orbit_length_histogram(catalog, histogram_n)
        artifacts["length_histogram.csv"] = hist.to_csv
    return artifacts


def _task_trace_check(system, params):
    _check_keys(params, {"mu_values", "tol"}, "params")
    mu_values = None
    if "mu_values" in params:
        if not isinstance(params["mu_values"], list):
            raise ConfigError("params.mu_values must be a list")
        mu_values = [_as_complex(v, "params.mu_values[]") for v in params["mu_values"]]
    rows = comparison_table(mu_values, tol=_as_positive(params.get("tol", 1e-11), "params.tol"))
    return {"trace_table.csv": lambda path: export_table(path, rows)}


def _task_dimension(system, params):
    box = _box_params(system, params)
    solve = {"level"} if isinstance(system, MapSpec) else set()   # a quadratic delta's solve
    _check_keys(params, {"n_scales", "decades", "h_max"} | solve, "params")
    if solve:
        _fredholm_level(system, params)
    fit, _stats = box_dimension(system, **box)
    delta_zeta = _system_delta(system, params)
    payload = {"delta_zeta": delta_zeta, "delta_box": fit.delta_box,
               "abs_difference": abs(delta_zeta - fit.delta_box),
               "box_fit_r2": fit.r2, "box_fit_reliable": fit.reliable}
    return {"dimension.json": lambda path: atomic_write_text(
        path, json.dumps(payload, indent=1) + "\n")}


_RUNNERS = {
    "orbits": _task_orbits,
    "cover": _task_cover,
    "zeta-eval": _task_zeta_eval,
    "zeros": _task_zeros,
    "count": _task_count,
    "growth": _task_growth,
    "pairing": _task_pairing,
    "trace-check": _task_trace_check,
    "dimension": _task_dimension,
}


def run_job(config: dict, out_dir: str) -> list[str]:
    """Validate and run one job; returns the artifact paths written.

    Artifacts are byte-deterministic; the manifest (config hash, library
    version, wall time) is written last.
    """
    if not isinstance(config, dict):
        raise ConfigError("config root must be an object")
    _check_keys(config, {"task", "params", "out"} |
                ({"system"} if config.get("task") != "trace-check" else set()), "config")
    task = _require(config, "task", "config")
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r} (expected one of {', '.join(TASKS)})")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config.params must be an object")
    # only an orbit catalog reads a quadratic system's tol_point and n_cert
    catalog = task in ("orbits", "pairing") or params.get("method", _ROUTES.get(task)) == "cycle"
    system_cfg = config.get("system")
    system = build_system(system_cfg, catalog) if system_cfg is not None else None
    if system is None and task != "trace-check":
        raise ConfigError(f"missing key 'system' in config (task {task!r} needs one)")

    started = time.monotonic()
    artifacts = _RUNNERS[task](system, params)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name in sorted(artifacts):
        path = os.path.join(out_dir, name)
        artifacts[name](path)
        written.append(path)
    manifest = {
        "task": task,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "version": __version__,
        "wall_time_s": time.monotonic() - started,
        "artifacts": sorted(artifacts),
    }
    mpath = os.path.join(out_dir, "manifest.json")
    atomic_write_text(mpath, json.dumps(manifest, indent=1) + "\n")
    written.append(mpath)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jz",
        description="zeta functions, resonances and dimension for "
                    "hyperbolic quadratic Julia sets")
    parser.add_argument("task", choices=TASKS, help="job type; must match the config")
    parser.add_argument("--config", default=os.environ.get("JZ_CONFIG"),
                        help="path to the JSON job config (env JZ_CONFIG)")
    parser.add_argument("--out", default=os.environ.get("JZ_OUT", "."),
                        help="artifact output directory (env JZ_OUT)")
    args = parser.parse_args(argv)

    try:
        if args.config is None:
            if args.task != "trace-check":
                raise ConfigError("--config is required (or set JZ_CONFIG)")
            config = {"task": "trace-check"}
        else:
            with open(args.config) as fh:
                config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("config root must be an object")
        if config.get("task") != args.task:
            raise ConfigError(
                f"config task {config.get('task')!r} does not match "
                f"subcommand {args.task!r}")
        out = config.get("out", args.out)
        if not isinstance(out, str):
            raise ConfigError("config.out must be a path string")
        written = run_job(config, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, OSError, json.JSONDecodeError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
