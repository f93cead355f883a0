import gc
import json
import os
import re
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from juliazeta.cli import main, run_job
from juliazeta.errors import ConfigError


def read_artifacts(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_unknown_task_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown task"):
        run_job({"task": "nope"}, str(tmp_path))


def test_unknown_key_named_in_diagnostic(tmp_path):
    cfg = {"task": "orbits", "system": {"kind": "quadratic", "c": -6.0},
           "params": {"n_max": 4, "bogus": 1}}
    with pytest.raises(ConfigError, match="'bogus'"):
        run_job(cfg, str(tmp_path))


def test_missing_system_rejected(tmp_path):
    with pytest.raises(ConfigError, match="'system'"):
        run_job({"task": "orbits", "params": {}}, str(tmp_path))


def test_invalid_mode_rejected(tmp_path):
    cfg = {"task": "orbits",
           "system": {"kind": "quadratic", "c": -6.0, "mode": "weird"},
           "params": {}}
    with pytest.raises(ConfigError, match="mode"):
        run_job(cfg, str(tmp_path))


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"task": "orbits", "system": {"kind": "quadratic",
                                                            "c": -1.5}}))
    assert main(["orbits", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    hyp = tmp_path / "hyp.json"
    hyp.write_text(json.dumps({"task": "orbits",
                               "system": {"kind": "quadratic", "c": [-1.0, 0.0],
                                          "mode": "complex2d"},
                               "params": {"n_max": 3}}))
    assert main(["orbits", "--config", str(hyp), "--out", str(tmp_path / "o")]) == 3
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"task": "orbits",
                                "system": {"kind": "quadratic", "c": -6.0},
                                "params": {"n_max": 3}}))
    assert main(["orbits", "--config", str(good), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "catalog.json").exists()
    assert (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("c", [True, float("nan"), float("inf"), [-6.0, float("nan")],
                               [False, 0.0], 10 ** 400])
def test_non_numeric_or_non_finite_c_is_a_config_error(tmp_path, capsys, c):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"task": "orbits",
                               "system": {"kind": "quadratic", "c": c},
                               "params": {"n_max": 3}}))
    assert main(["orbits", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "system.c" in err


def test_non_finite_trace_parameter_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "t.json"
    cfg.write_text(json.dumps({"task": "trace-check",
                               "params": {"mu_values": [0.5, float("-inf")]}}))
    assert main(["trace-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "mu_values" in err


_PAIRING = {"task": "pairing", "system": {"kind": "affine", "ratios": [2.0, 4.0]},
            "params": {"windows": [{"d": 1.39, "gamma": 0.3}],
                       "rectangle": [-1.0, 1.0, -5.0, 5.0], "n_max": 8}}
_ZETA_EVAL = {"task": "zeta-eval", "system": {"kind": "quadratic", "c": -6.0},
              "params": {"method": "cycle", "n_max": 6,
                         "re": [1.0, 2.0, 3], "im": [0.0, 4.0, 3]}}

_ZEROS = {"task": "zeros", "system": {"kind": "quadratic", "c": -6.0},
          "params": {"level": 1, "rectangle": [-2.0, 1.4, -1.0, 1.0]}}

_MODEL = {"kind": "model", "a": 2.0, "b": 4.0, "k_max": 3}
_MODEL_EVAL = {"task": "zeta-eval", "system": _MODEL,
               "params": {"re": [1.0, 2.0, 3], "im": [0.0, 4.0, 3]}}
_COUNT = {"task": "count", "system": _MODEL,
          "params": {"rectangle": [-1.5, 1.0, -5.0, 5.0],
                     "family": {"kind": "strip", "c0": 1.5}, "radii": [2.0, 4.0]}}
_GROWTH = {"task": "growth", "system": _MODEL,
           "params": {"c0": 1.5, "radii": [5.0, 10.0]}}

_COVER = {"task": "cover", "system": {"kind": "quadratic", "c": -6.0}, "params": {}}
_DIMENSION = {"task": "dimension", "system": {"kind": "quadratic", "c": -6.0},
              "params": {"level": 1}}


def _with(cfg, **params):
    return dict(cfg, params=dict(cfg["params"], **params))


@pytest.mark.parametrize("cfg, where", [
    (_with(_PAIRING, windows=[{"d": 0.3, "gamma": 0.3}]), "windows[0]"),
    (_with(_PAIRING, windows=[{"d": 1.39, "gamma": 0.3}, {"d": 0.3, "gamma": 0.5}]),
     "windows[1]"),
    (_with(_PAIRING, windows=[{"d": "x", "gamma": 0.3}]), "windows[0].d"),
    (_with(_PAIRING, windows=[{"d": None, "gamma": 0.3}]), "windows[0].d"),
    (_with(_PAIRING, windows=[{"gamma": 0.3}]), "'d'"),
    (_with(_PAIRING, windows={"d": 1.39, "gamma": 0.3}), "windows"),
    (_with(_PAIRING, n_max="x"), "n_max"),
    (_with(_PAIRING, n_max=0), "n_max"),
    (_with(_PAIRING, n_max=21), "n_max"),
    (_with(_PAIRING, histogram_n=9), "histogram_n"),
    (_with(_PAIRING, delta="x"), "delta"),
    (_with(_ZETA_EVAL, re=[1.0, 2.0]), "params.re"),
    (_with(_ZETA_EVAL, im=[0.0, "4", 3]), "params.im[1]"),
    (_with(_ZETA_EVAL, re=[1.0, 2.0, 2.5]), "params.re[2]"),
    (_with(_ZETA_EVAL, n_max="x"), "n_max"),
    ({"task": "orbits", "system": {"kind": "quadratic", "c": -6.0},
      "params": {"n_max": "x"}}, "n_max"),
    (_with(_ZEROS, level="abc"), "params.level"),
    (_with(_ZEROS, level=25), "params.level"),
    (_with(_ZEROS, level=-1), "params.level"),
    (_with(_ZEROS, level=True), "params.level"),
    (_with(_ZEROS, level=2.5), "params.level"),
    (_with(_ZEROS, level=7), "budget"),            # order up to 80: 5120 x 5120
    (dict(_with(_PAIRING, level=7), system={"kind": "quadratic", "c": -6.0}), "budget"),
    # no job reads an order: the level alone sets the Fredholm discretization
    (_with(_ZEROS, order=30), "params.order"),
    (dict(_ZETA_EVAL, params={"method": "fredholm", "re": [1.0, 2.0, 3],
                              "im": [0.0, 4.0, 3], "order": 30}), "params.order"),
    (dict(_with(_COUNT, order=30), system={"kind": "quadratic", "c": -6.0}), "params.order"),
    (dict(_with(_GROWTH, order=30), system={"kind": "quadratic", "c": -6.0}), "params.order"),
    (_with(_ZEROS, rectangle=["a", 1, 0, 1]), "params.rectangle[0]"),
    (_with(_ZEROS, rectangle=[1, 0, 0, 1]), "params.rectangle"),
    (_with(_ZEROS, rectangle=[0, 1, 0, float("nan")]), "params.rectangle[3]"),
    (_with(_ZEROS, rectangle=[0, 1, 0]), "params.rectangle"),
    (_with(_PAIRING, rectangle=[1.0, -1.0, -5.0, 5.0]), "params.rectangle"),
    (dict(_with(_PAIRING, level=25), system={"kind": "quadratic", "c": -6.0}),
     "params.level"),
    ({"task": "dimension", "system": {"kind": "quadratic", "c": -6.0},
      "params": {"level": "abc"}}, "params.level"),
    ({"task": "count", "system": {"kind": "quadratic", "c": -6.0},
      "params": {"method": "cycle", "level": 2.5, "rectangle": [-2.0, 1.4, -1.0, 1.0],
                 "family": {"kind": "log", "rho": 1.0}, "radii": [1.0]}}, "params.level"),
    (_with(_COVER, n_scales=3), "params.n_scales"),
    (_with(_COVER, n_scales=True), "params.n_scales"),
    (_with(_COVER, n_scales=25.5), "params.n_scales"),
    (_with(_COVER, decades=0), "params.decades"),
    (_with(_COVER, decades=float("inf")), "params.decades"),
    (_with(_COVER, h_max=-1), "params.h_max"),
    (_with(_COVER, hs=[]), "params.hs"),
    (_with(_COVER, hs=0.01), "params.hs"),
    (_with(_COVER, hs=["abc"]), "params.hs[0]"),
    (_with(_COVER, hs=[0.01, 0.0]), "params.hs[1]"),
    (_with(_DIMENSION, n_scales=4), "params.n_scales"),
    (_with(_DIMENSION, decades="3"), "params.decades"),
    (_with(_DIMENSION, h_max=float("nan")), "params.h_max"),
    (dict(_COVER, system={"kind": "model", "a": 2.0, "b": 4.0, "k_max": 3}),
     "quadratic or affine"),
    (dict(_DIMENSION, system={"kind": "model", "a": 2.0, "b": 4.0, "k_max": 3}),
     "quadratic or affine"),
    (dict(_MODEL_EVAL, system=dict(_MODEL, a="x")), "system.a"),
    (dict(_MODEL_EVAL, system=dict(_MODEL, k_max="x")), "system.k_max"),
    (dict(_MODEL_EVAL, system=dict(_MODEL, a=0.5)), "bases must exceed 1"),
    (dict(_MODEL_EVAL, system=dict(_MODEL, k_max=-1)), "system.k_max"),
    (_with(_PAIRING, k_max="x"), "params.k_max"),
    (_with(_COUNT, family={"kind": "strip", "c0": "x"}), "params.family.c0"),
    (_with(_COUNT, family=3), "params.family"),
    (_with(_COUNT, radii=["a"]), "params.radii[0]"),
    (_with(_GROWTH, c0="x"), "params.c0"),
    (_with(_GROWTH, re_samples=0), "params.re_samples"),
    ({"task": "trace-check", "params": {"tol": "x"}}, "params.tol"),
    (dict(_ZETA_EVAL, system={"kind": "quadratic", "c": -6.0, "tol_point": "x"}),
     "system.tol_point"),
    (dict(_ZETA_EVAL, system={"kind": "quadratic", "c": -6.0, "n_cert": "x"}),
     "system.n_cert"),
    (dict(_PAIRING, system={"kind": "affine", "ratios": [None, 4.0]}), "system.ratios[0]"),
    ({"task": "trace-check", "params": {"mu_values": 0.5}}, "params.mu_values"),
    ([_ZEROS], "config root"),
    (dict(_ZEROS, out=5), "config.out"),
    (dict(_ZEROS, system=True), "system must be an object"),
    (_with(_ZETA_EVAL, re=[1.0, 2.0, 10 ** 400]), "params.re[2]"),
    (_with(_GROWTH, re_samples=10 ** 7), "params.re_samples"),
    (dict(_with(_ZEROS, rectangle=[-1.0, 1e30, -1.0, 1.0]), system=_MODEL),
     "params.rectangle is too large"),
    (dict(_with(_ZEROS, rectangle=[-1.0, 1e300, -1.0, 1.0]), system=_MODEL),
     "params.rectangle is too large"),
    (_with(_COVER, hs=[0.01, 0.005], h_max=0.1), "params.h_max"),
    (_with(_COVER, hs=[0.01, 0.005], n_scales=10), "params.n_scales"),
    (_with(_COVER, hs=[0.01, 0.005], decades=2.0), "params.decades"),
    # a trace-check job reads no system
    ({"task": "trace-check", "system": {"kind": "quadratic", "c": -6.0}}, "config.system"),
])
def test_malformed_job_input_is_a_config_error(tmp_path, capsys, cfg, where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    task = cfg[0]["task"] if isinstance(cfg, list) else cfg["task"]
    assert main([task, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and where in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cfg, error", [
    # c = -2 is admitted in Real1D mode, but no backward cover exists there
    (dict(_COVER, system={"kind": "quadratic", "c": -2.0}), "HyperbolicityError"),
    (dict(_DIMENSION, system={"kind": "quadratic", "c": -2.0}), "HyperbolicityError"),
    # the weight sup at Re s = -1.5 overflows the determinant tail estimate
    ({"task": "zeta-eval", "system": {"kind": "quadratic", "c": -20.0},
      "params": {"method": "fredholm", "level": 3,
                 "re": [-1.5, -1.5, 1], "im": [12.0, 12.0, 1]}}, "TruncationError"),
    # the model route where a^{-s} overflows: at a = 2, Re s < -1024
    (dict(_MODEL_EVAL, params={"re": [-2000.0, -1999.0, 2], "im": [0.0, 1.0, 2]}),
     "TruncationError"),
    (_with(_GROWTH, c0=3000.0), "TruncationError"),
    ({"task": "zeros", "system": {"kind": "affine", "ratios": [2.0, 4.0]},
      "params": {"rectangle": [-3000.0, -2990.0, -1.0, 1.0]}}, "TruncationError"),
    # finite powers, but a Z or tail estimate that is not
    (dict(_MODEL_EVAL, params={"re": [-40.0, -40.0, 1], "im": [1.0, 1.0, 1]}),
     "TruncationError"),
])
def test_engine_failures_exit_3_with_one_line(tmp_path, capsys, cfg, error):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main([cfg["task"], "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"{error}:")
    assert not (tmp_path / "o").exists()


_FREDHOLM = {"kind": "quadratic", "c": -6.0}


_WEIGHTS = "TruncationError: branch weights at s = "
_DET = "TruncationError: determinant at s = "


@pytest.mark.parametrize("cfg, message", [
    ({"task": "zeta-eval", "system": _FREDHOLM,
      "params": {"method": "fredholm", "level": 2, "re": [-800.0, -800.0, 1],
                 "im": [1.0, 1.0, 1]}}, _WEIGHTS),
    ({"task": "zeta-eval", "system": _FREDHOLM,
      "params": {"method": "fredholm", "level": 2, "re": [0.5, 0.5, 1],
                 "im": [1e300, 1e300, 1]}}, _WEIGHTS),
    # evaluated NaN determinants, then blamed a zero on the contour
    ({"task": "zeros", "system": _FREDHOLM,
      "params": {"method": "fredholm", "level": 2, "rectangle": [-800.0, -799.0, 0.5, 1.0]}},
     _WEIGHTS),
    # finite weights, an overflowing determinant: numpy's det warned first
    ({"task": "zeta-eval", "system": _FREDHOLM,
      "params": {"method": "fredholm", "level": 2, "re": [-100.0, -100.0, 1],
                 "im": [1.0, 1.0, 1]}}, _DET),
    ({"task": "zeta-eval", "system": _FREDHOLM,
      "params": {"method": "fredholm", "level": 2, "re": [-100.0, -100.0, 1],
                 "im": [0.0, 0.0, 1]}}, _DET),
], ids=[f"cfg{k}" for k in range(5)])
def test_overflowing_branch_weights_fail_in_one_line(tmp_path, cfg, message):
    # in a child process, whose stderr holds numpy's warnings too, which
    # capsys does not see
    import subprocess
    import sys

    import juliazeta
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(juliazeta.__file__)))
    proc = subprocess.run([sys.executable, "-m", "juliazeta", cfg["task"], "--config",
                           str(path), "--out", str(tmp_path / "o")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(message)
    assert not (tmp_path / "o").exists()


# The params keys each job reads: its task's, its evaluator route's
# (model: none; affine: k_max; cycle: method, n_max; fredholm: method,
# level) and the level of a quadratic system's delta solve.  Every other
# evaluator key is refused with exit 2, before any work.
_Q = {"kind": "quadratic", "c": -6.0}
_AFFINE = {"kind": "affine", "ratios": [2.0, 4.0]}
_GRID = {"re": [1.5, 2.0, 2], "im": [0.0, 1.0, 2]}
_STRIP = {"rectangle": [-1.0, 1.0, -2.0, 2.0], "family": {"kind": "strip", "c0": 1.5},
          "radii": [1.0]}
_LOG = dict(_STRIP, family={"kind": "log", "rho": 1.0})
_PAIR = {"windows": [{"d": 1.0, "gamma": 0.3}], "rectangle": [-1.0, 1.0, -2.0, 2.0]}
_ROUTES = {"model": (_MODEL, {}, set()),
           "affine": (_AFFINE, {}, {"k_max"}),
           "cycle": (_Q, {"method": "cycle"}, {"method", "n_max"}),
           "fredholm": (_Q, {"method": "fredholm"}, {"method", "level"})}
_TASK_PARAMS = {"zeta-eval": _GRID, "zeros": {"rectangle": [-1.0, 1.0, -2.0, 2.0]},
                "count": _STRIP, "growth": {"c0": 1.5, "radii": [1.0]}}
_READS = [(task, route, system, dict(params, **route_params), keys)
          for task, params in _TASK_PARAMS.items()
          for route, (system, route_params, keys) in _ROUTES.items()]
_READS += [
    ("count", "model-log", _MODEL, _LOG, set()),
    ("count", "affine-log", _AFFINE, _LOG, {"k_max"}),
    ("count", "cycle-log", _Q, dict(_LOG, method="cycle"), {"method", "n_max", "level"}),
    ("count", "fredholm-log", _Q, dict(_LOG, method="fredholm"), {"method", "level"}),
    ("pairing", "affine", _AFFINE, _PAIR, {"n_max", "k_max"}),
    ("pairing", "quadratic", _Q, _PAIR, {"n_max", "level"}),
    ("dimension", "affine", _AFFINE, {}, set()),
    ("dimension", "quadratic", _Q, {}, {"level"}),
    ("orbits", "quadratic", _Q, {}, {"n_max"}),
    ("cover", "quadratic", _Q, {}, set()),
    ("cover", "affine", _AFFINE, {}, set()),
]
_KEY_VALUES = {"method": "cycle", "level": 1, "n_max": 6, "k_max": 5}


class _Reached(Exception):
    """Raised by the stand-ins for the work a job does."""


@pytest.fixture
def no_work(monkeypatch):
    import juliazeta.cli

    def reached(*args, **kwargs):
        raise _Reached

    for name in ("FredholmEvaluator", "build_orbit_catalog", "box_dimension", "cover_profile",
                 "scan_region", "growth_exponent_probe"):
        monkeypatch.setattr(juliazeta.cli, name, reached)
    monkeypatch.setattr(juliazeta.cli.AffinePair, "orbit_catalog", reached)


@pytest.mark.parametrize("task, route, system, params, keys", _READS,
                         ids=[f"{task}-{route}" for task, route, *_ in _READS])
def test_each_job_reads_its_keys_and_refuses_the_rest(tmp_path, capsys, no_work,
                                                      task, route, system, params, keys):
    read = dict(params, **{k: params.get(k, _KEY_VALUES[k]) for k in keys})
    try:
        run_job({"task": task, "system": system, "params": read}, str(tmp_path / "read"))
    except _Reached:
        pass
    for key in sorted(set(_KEY_VALUES) - keys):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({"task": task, "system": system,
                                    "params": dict(params, **{key: _KEY_VALUES[key]})}))
        out = tmp_path / f"{key}-out"
        assert main([task, "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"params.{key}" in err
        assert not out.exists()


@pytest.mark.parametrize("key, value", [("tol_point", 1e-12), ("n_cert", 1)])
@pytest.mark.parametrize("task, route, system, params, keys", _READS,
                         ids=[f"{task}-{route}" for task, route, *_ in _READS])
def test_system_keys_are_read_only_where_a_catalog_is_built(tmp_path, capsys, no_work, task,
                                                            route, system, params, keys,
                                                            key, value):
    # only an orbit catalog reads a quadratic system's tol_point and n_cert:
    # orbits, a quadratic pairing and the cycle route build one
    cfg = {"task": task, "system": dict(system, **{key: value}), "params": params}
    if system is _Q and (route.startswith("cycle") or task in ("orbits", "pairing")):
        with pytest.raises(_Reached):
            run_job(cfg, str(tmp_path / "o"))
        return
    path = tmp_path / "job.json"
    path.write_text(json.dumps(cfg))
    assert main([task, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"system.{key}" in err
    assert not (tmp_path / "o").exists()


_README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_keys() -> dict:
    """README's CLI key table: task -> (task keys, {column: route keys}),
    each the set of backticked names in its cell."""
    table = {}
    with open(_README) as fh:
        for line in fh:
            cells = [set(re.findall(r"`([^`]+)`", cell)) for cell in line.split("|")[1:-1]]
            if len(cells) == 6 and len(cells[0]) == 1:
                table[cells[0].pop()] = (cells[1], dict(zip(("model", "affine", "cycle",
                                                             "fredholm"), cells[2:])))
    return table


def _accepts(task, system, params, key, out) -> bool:
    """Whether the job takes params.key: anything but its refusal as unknown."""
    probe = dict(params, **{key: params.get(key, _KEY_VALUES.get(key))})
    try:
        run_job({"task": task, "system": system, "params": probe}, out)
    except ConfigError as exc:
        return f"unknown key {key!r}" not in str(exc)
    except _Reached:
        pass
    return True


def test_readme_key_table_matches_what_each_job_accepts(tmp_path, no_work):
    # every key the README tables for a job is one it accepts, and every
    # key it accepts is tabled: a removed knob cannot outlive its docs.  A
    # quadratic task without a route choice tables its keys under the
    # route it takes; a count's cycle cell holds its log rows' level too
    table = _readme_keys()
    probes = set(_KEY_VALUES)
    for task, *_ in _READS:
        task_keys, columns = table[task]
        probes |= task_keys.union(*columns.values())
    accepted = {}
    for task, route, system, params, _keys in _READS:
        task_keys, columns = table[task]
        got = {key for key in probes if _accepts(task, system, params, key, str(tmp_path))}
        assert task_keys <= got, (task, route)
        column = route.split("-")[0]
        accepted.setdefault((task, column), set()).update(got - task_keys)
    for (task, column), got in accepted.items():
        columns = table[task][1]
        want = columns[column] if column in columns else columns["cycle"] | columns["fredholm"]
        assert got == want, (task, column)


@pytest.mark.parametrize("task, params", [
    ("zeta-eval", dict(_GRID, method="fredholm")),
    ("zeros", {"rectangle": [-1.0, 1.0, -2.0, 2.0]}),
    ("count", _STRIP),
    ("count", dict(_LOG, method="cycle")),
    ("growth", {"c0": 1.5, "radii": [1.0]}),
    ("pairing", _PAIR),
    ("dimension", {}),
], ids=["zeta-eval", "zeros", "count", "count-cycle-log", "growth", "pairing", "dimension"])
def test_fredholm_work_on_a_complex2d_system_is_refused_first(tmp_path, capsys, no_work,
                                                              task, params):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"task": task, "system": dict(_Q, mode="complex2d"),
                                "params": params}))
    assert main([task, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "system.mode 'complex2d'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("family, where", [
    ({"kind": "strip", "c0": "x"}, "params.family.c0"),
    ({"kind": "poly"}, "'alpha' in params.family"),
    ({"kind": "log", "rho": 1.0, "delta": "x"}, "params.family.delta"),
    ({"kind": "log", "rho": 1.0, "c0": 1.5}, "params.family.c0"),
    ({"kind": ["log"]}, "unknown counting family"),
], ids=["strip-c0", "poly-alpha", "log-delta", "log-c0", "kind"])
@pytest.mark.parametrize("route", ["fredholm", "cycle"])
def test_count_refuses_a_malformed_family_before_any_work(tmp_path, capsys, no_work,
                                                         route, family, where):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"task": "count", "system": _Q,
                                "params": dict(_STRIP, method=route, family=family)}))
    assert main(["count", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error:") and where in err
    assert not (tmp_path / "o").exists()


def test_pairing_forms_the_cycle_arrays_once_per_job(tmp_path, monkeypatch):
    import juliazeta.cli
    import juliazeta.pairing
    passes, cycle_arrays = [], juliazeta.cli._cycle_arrays

    def counted(catalog):
        passes.append(catalog.n_max)
        return cycle_arrays(catalog)

    monkeypatch.setattr(juliazeta.cli, "_cycle_arrays", counted)
    monkeypatch.setattr(juliazeta.pairing, "_cycle_arrays", counted)
    windows = [{"d": d, "gamma": 0.3} for d in (1.0, 1.39, 2.08)]
    run_job(dict(_PAIRING, params=dict(_PAIRING["params"], windows=windows)), str(tmp_path))
    assert passes == [8]


@pytest.mark.parametrize("task, params, builds", [
    ("pairing", dict(_PAIR, n_max=6, level=1), 1),
    ("count", dict(_LOG, level=1), 1),
    ("count", dict(_LOG, level=1, method="cycle", n_max=6, rectangle=[1.0, 2.0, -2.0, 2.0]), 1),
], ids=["pairing", "count", "count-cycle"])
def test_delta_is_solved_on_the_jobs_own_fredholm_evaluator(tmp_path, monkeypatch,
                                                            task, params, builds):
    import juliazeta.cli
    from juliazeta.zeta import FredholmEvaluator
    built = []

    class Counted(FredholmEvaluator):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(juliazeta.cli, "FredholmEvaluator", Counted)
    run_job({"task": task, "system": _Q, "params": params}, str(tmp_path))
    assert len(built) == builds


def test_task_mismatch(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"task": "orbits",
                               "system": {"kind": "quadratic", "c": -6.0},
                               "params": {"n_max": 3}}))
    assert main(["cover", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_dimension_job_artifacts(tmp_path):
    cfg = {"task": "dimension", "system": {"kind": "affine", "ratios": [2.0, 4.0]},
           "params": {"n_scales": 12, "decades": 2.0}}
    run_job(cfg, str(tmp_path / "dim"))
    with open(tmp_path / "dim" / "dimension.json") as fh:
        payload = json.load(fh)
    assert set(payload) >= {"delta_zeta", "delta_box", "abs_difference"}
    assert payload["abs_difference"] < 0.05


def test_cache_coherence(tmp_path):
    # a catalog loaded from cache drives downstream results identical to
    # a fresh build
    from juliazeta.dynamics import MapSpec, build_orbit_catalog, load_catalog, save_catalog
    from juliazeta.zeta import CycleEvaluator
    cat = build_orbit_catalog(MapSpec(c=-6), 8)
    path = tmp_path / "cat.json"
    save_catalog(cat, str(path))
    loaded = load_catalog(str(path))
    for s in (1.1, 2.0 + 3.0j):
        a = CycleEvaluator(cat).zeta_value(s)
        b = CycleEvaluator(loaded).zeta_value(s)
        assert a.value == b.value
        assert a.tail_bound == b.tail_bound


JOBS = {
    "trace-check": {"task": "trace-check", "params": {}},
    "orbits": {"task": "orbits", "system": {"kind": "quadratic", "c": -6.0},
               "params": {"n_max": 7}},
    "cover": {"task": "cover", "system": {"kind": "affine", "ratios": [3.0, 3.0]},
              "params": {"hs": [0.01, 0.005, 0.002, 0.001]}},
    "zeta-eval": {"task": "zeta-eval", "system": {"kind": "model", "a": 2.0,
                                                  "b": 4.0, "k_max": 3},
                  "params": {"re": [1.0, 2.0, 3], "im": [0.0, 4.0, 3]}},
    "zeros": {"task": "zeros", "system": {"kind": "model", "a": 2.0, "b": 4.0,
                                          "k_max": 0},
              "params": {"rectangle": [-1.0, 1.0, -10.0, 10.0]}},
    "count": {"task": "count", "system": {"kind": "model", "a": 2.0, "b": 4.0,
                                          "k_max": 1},
              "params": {"rectangle": [-1.5, 1.0, -25.0, 25.0],
                         "family": {"kind": "strip", "c0": 1.5},
                         "radii": [5.0, 10.0, 18.0, 24.0]}},
    "growth": {"task": "growth", "system": {"kind": "model", "a": 2.0, "b": 4.0,
                                            "k_max": 2},
               "params": {"c0": 1.5, "radii": [5.0, 10.0, 20.0]}},
    "pairing": {"task": "pairing", "system": {"kind": "affine", "ratios": [2.0, 4.0]},
                "params": {"windows": [{"d": 0.7, "gamma": 0.22}],
                           "rectangle": [-1.5, 1.0, -30.0, 30.0],
                           "n_max": 10, "k_max": 25, "histogram_n": 6}},
    "dimension": {"task": "dimension", "system": {"kind": "affine",
                                                  "ratios": [2.0, 4.0]},
                  "params": {"n_scales": 10, "decades": 2.0}},
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_jobs_rerun_byte_identical(tmp_path, name):
    cfg = JOBS[name]
    run_job(cfg, str(tmp_path / "a"))
    run_job(cfg, str(tmp_path / "b"))
    a, b = read_artifacts(tmp_path / "a"), read_artifacts(tmp_path / "b")
    assert a.keys() == b.keys() and len(a) >= 1
    assert a == b


@pytest.mark.parametrize("name", sorted(JOBS))
def test_stdout_lists_only_artifact_paths(tmp_path, capsys, name):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(JOBS[name]))
    out = tmp_path / "out"
    assert main([JOBS[name]["task"], "--config", str(cfg), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sorted(lines) == sorted(str(out / f) for f in os.listdir(out))


def test_cycle_jobs_release_their_catalogs(tmp_path, monkeypatch):
    # the cycle arrays are formed once per job (one call to n_max, not one
    # per grid point), and each job's catalog is freed with the job
    import juliazeta.cli
    import juliazeta.zeta
    built, passes = [], []
    build = juliazeta.cli.build_orbit_catalog
    cycle_arrays = juliazeta.zeta._cycle_arrays

    def tracked(*args, **kwargs):
        catalog = build(*args, **kwargs)
        built.append(weakref.ref(catalog))
        return catalog

    def counted(catalog):
        passes.append(catalog.n_max)
        return cycle_arrays(catalog)

    monkeypatch.setattr(juliazeta.cli, "build_orbit_catalog", tracked)
    monkeypatch.setattr(juliazeta.zeta, "_cycle_arrays", counted)
    for k, c in enumerate((-6.0, -5.5)):
        run_job({"task": "zeta-eval", "system": {"kind": "quadratic", "c": c},
                 "params": {"method": "cycle", "n_max": 8,
                            "re": [1.5, 2.5, 3], "im": [0.0, 4.0, 3]}},
                str(tmp_path / str(k)))
    gc.collect()
    assert len(built) == 2 and all(ref() is None for ref in built)
    assert passes == [8, 8]


def test_job_paths_make_no_orbit_records(tmp_path, monkeypatch):
    # the catalog's per-orbit records are made only when `orbits` is read,
    # and no job, save or load reads it
    import juliazeta.dynamics

    def no_record(*args, **kwargs):
        raise AssertionError("a PeriodicOrbitPoint was made")

    monkeypatch.setattr(juliazeta.dynamics, "PeriodicOrbitPoint", no_record)
    run_job({"task": "orbits", "system": {"kind": "quadratic", "c": -6.0},
             "params": {"n_max": 10}}, str(tmp_path / "orbits"))
    assert juliazeta.dynamics.load_catalog(str(tmp_path / "orbits" / "catalog.json")).n_max == 10
    run_job(_ZETA_EVAL, str(tmp_path / "zeta"))
    run_job(_with(_PAIRING, histogram_n=6), str(tmp_path / "pairing"))
    assert sorted(os.listdir(tmp_path / "pairing")) == \
        ["length_histogram.csv", "manifest.json", "pairing_0.json"]


# Config fuzz.  One mutation of a small valid job config: a value replaced
# by a value of another type or range, a key deleted, or an unknown key
# added.  Whatever the mutation, the CLI exits 0, 2 or 3; a failure prints
# one stderr line and leaves no output directory behind.  The values stay
# small in magnitude, so that every mutated job that runs is cheap.
_FUZZ_BASES = [
    {"task": "orbits", "system": {"kind": "quadratic", "c": -6.0}, "params": {"n_max": 3}},
    _ZETA_EVAL, _ZEROS, _MODEL_EVAL, _COUNT, _GROWTH, _DIMENSION,
    _with(_COVER, hs=[0.05, 0.02]),
    {"task": "trace-check", "params": {"mu_values": [0.5], "tol": 1e-11}},
]
_FUZZ_VALUES = st.sampled_from([None, True, False, -1, 0, 1, 2, 10 ** 400, -0.5, 0.0, 0.5,
                                2.5, float("nan"), float("inf"), "", "x", [], {}, [0.5]])


def _fuzz_paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _fuzz_paths(child, path + (key,))


def _mutated(cfg, path, op, value):
    cfg = json.loads(json.dumps(cfg))
    if not path:
        return value
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if op == "add" and isinstance(parent[path[-1]], dict):
        parent[path[-1]]["bogus"] = value
    elif op == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return cfg


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_configs_keep_the_exit_contract(data):
    import contextlib
    import io
    import tempfile
    base = data.draw(st.sampled_from(_FUZZ_BASES))
    path = data.draw(st.sampled_from(list(_fuzz_paths(base))))
    cfg = _mutated(base, path, data.draw(st.sampled_from(["replace", "delete", "add"])),
                   data.draw(_FUZZ_VALUES))
    with tempfile.TemporaryDirectory() as tmp:
        config, out = os.path.join(tmp, "job.json"), os.path.join(tmp, "out")
        with open(config, "w") as fh:
            json.dump(cfg, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([base["task"], "--config", config, "--out", out])
        assert code in (0, 2, 3)
        if code == 0:
            assert err.getvalue() == ""
            assert os.path.exists(os.path.join(out, "manifest.json"))
        else:
            assert err.getvalue().count("\n") == 1
            assert not os.path.exists(out)
