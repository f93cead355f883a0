"""The benchmark's workloads: job sequences made from a seed, the set-up
each needs before its first job, and the checks on their outputs.

Seed 0 gives the canonical inputs.  Any other seed shifts them by a
uniform draw within the ranges below.  Each range keeps the same zeros
inside the rectangle (no zero lies within the shift of an edge), so the
same checks hold for every seed; the work varies by a few percent, as
the scan grid moves.  NOTES.md says why each range is what it is.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field

from juliazeta.cli import build_system
from juliazeta.dynamics import MapSpec
from juliazeta.zeros import Rectangle, winding_number
from juliazeta.zeta import FredholmEvaluator, ModelEvaluator

DELTA6 = 0.45183750018171
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
DIMENSION_CS = (-3.0, -4.0, -5.0, -6.0, -8.0, -12.0, -20.0)


@dataclass
class Step:
    """One operation: a CLI job config, or (config None) a load_catalog
    of the catalog the step named by `source` wrote."""

    name: str
    config: dict | None = None
    source: str | None = None


@dataclass
class Plan:
    workload: str
    seed: int
    steps: list[Step]
    inputs: dict = field(default_factory=dict)


def _draw(seed: int):
    rng = random.Random(seed)
    return (lambda: 0.0) if seed == 0 else (lambda: rng.uniform(-1.0, 1.0))


def _quadratic(c: float, **extra) -> dict:
    return dict({"kind": "quadratic", "c": c}, **extra)


def _census(u) -> tuple[list[Step], dict]:
    h = 20.0 + 0.1 * u()
    rect = [-2.0 + 0.05 * u(), 1.4 + 0.05 * u(), -h, h]
    return [Step("zeros", {"task": "zeros", "system": _quadratic(-6.0),
                           "params": {"level": 2, "rectangle": rect}})], {"rectangle": rect}


def _catalog(u) -> tuple[list[Step], dict]:
    c = -6.0 + 0.25 * u()
    system = _quadratic(c, tol_point=5e-13)
    # the grid only moves right of Re s = 1: the n = 16 cycle expansion's
    # truncation error grows leftward, past the 1e-6 check at Re s = 0.9
    re0, im0 = 1.0 + 0.1 * abs(u()), 0.5 * abs(u())
    grid = {"re": [re0, re0 + 2.0, 9], "im": [im0, im0 + 20.0, 21]}
    steps = [Step("orbits", {"task": "orbits", "system": system, "params": {"n_max": 16}}),
             Step("load", source="orbits"),
             Step("zeta-eval", {"task": "zeta-eval", "system": system,
                                "params": dict(method="cycle", n_max=16, **grid)})]
    return steps, {"catalog_c": c, "grid": grid}


def _identity(u) -> tuple[list[Step], dict]:
    h = 60.0 + 1.0 * u()
    rect = [-3.0 + 0.2 * u(), 1.0 + 0.1 * u(), -h, h]
    windows = [{"d": d + 0.01 * u(), "gamma": g}
               for d, g in ((0.70, 0.22), (1.39, 0.30), (2.08, 0.30))]
    steps = [Step("pairing", {"task": "pairing",
                              "system": {"kind": "affine", "ratios": [2.0, 4.0]},
                              "params": {"windows": windows, "rectangle": rect,
                                         "n_max": 14, "k_max": 40, "histogram_n": 12}})]
    return steps, {"pairing_rectangle": rect, "windows": windows}


def _dimension(u) -> tuple[list[Step], dict]:
    # c = -6 stays fixed: it carries the reference dimension
    cs = [c if c == -6.0 else c * (1.0 + 0.01 * u()) for c in DIMENSION_CS]
    steps = [Step(f"dimension{c:+g}", {"task": "dimension", "system": _quadratic(c),
                                       "params": {"level": 3}}) for c in cs]
    cover_c = -6.0 * (1.0 + 0.01 * u())
    steps.append(Step("cover", {"task": "cover",
                                "system": _quadratic(cover_c, mode="complex2d"),
                                "params": {}}))
    return steps, {"dimension_c": cs, "cover_c": cover_c}


# `ledger` runs the catalog, identity and dimension parts in one pass
WORKLOADS = {"census": (_census,), "ledger": (_catalog, _identity, _dimension)}


def make_plan(workload: str, seed: int) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} "
                         f"(expected one of {', '.join(WORKLOADS)})")
    u = _draw(seed)
    plan = Plan(workload, seed, [])
    for part in WORKLOADS[workload]:
        steps, inputs = part(u)
        plan.steps += steps
        plan.inputs.update(inputs)
    return plan


def set_up(plan: Plan) -> None:
    """Build the systems and evaluators the plan's jobs use, as the jobs
    themselves do (the jobs build their own again: this only times it)."""
    for step in plan.steps:
        if step.config is None:
            continue
        system = build_system(step.config["system"])
        task, params = step.config["task"], step.config["params"]
        if task in ("zeros", "dimension"):
            FredholmEvaluator(system, level=params["level"])
        elif task == "pairing":
            ModelEvaluator(*system.ratios, params["k_max"])


# ---------------------------------------------------------------------------
# output checks: each returns a list of failure messages for one step

def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _reference() -> dict:
    return _read_json(REFERENCE)


def _check_census(plan, step, out, scans) -> list[str]:
    bad = []
    rows = _read_csv(os.path.join(out, "zeros.csv"))
    zeros = [(complex(float(r["re_s"]), float(r["im_s"])), int(r["multiplicity"]))
             for r in rows]
    if len(scans) != 1:
        return [f"expected one scan, saw {len(scans)}"]
    records = scans[0]
    if [(r.s, r.multiplicity) for r in records] != zeros:
        bad.append("zeros.csv does not list the scan's records")
    if not all(r.resolved for r in records):
        bad.append(f"{sum(not r.resolved for r in records)} unresolved records")
    ev = FredholmEvaluator(MapSpec(c=-6.0), level=2)
    w = winding_number(ev, Rectangle(*step.config["params"]["rectangle"]))
    if sum(m for _, m in zeros) != w:
        bad.append(f"multiplicities sum to {sum(m for _, m in zeros)}, rectangle winds {w}")
    # refine_zero accepts a zero once its Newton step stalls below
    # 1e-8 (1 + |s|), so that is how closely a conjugate pair can agree
    for s, m in zeros:
        if not any(abs(t - s.conjugate()) <= 1e-8 * (1.0 + abs(s)) and k == m
                   for t, k in zeros):
            bad.append(f"zero {s} has no conjugate partner")
            break
    real = [s.real for s, _ in zeros if abs(s.imag) <= 1e-8]
    if not real or abs(max(real) - DELTA6) > 1e-10:
        bad.append(f"leading real zero {max(real, default=None)} is not delta {DELTA6}")
    if plan.seed == 0:
        ref = [(complex(a, b), m) for a, b, m in _reference()["census_zeros"]]
        if len(ref) != len(zeros) or any(
                abs(s - t) > 1e-10 or m != k for (s, m), (t, k) in zip(zeros, ref)):
            bad.append("zeros differ from the seed-0 reference list")
    return bad


def _check_orbits(plan, step, out, scans) -> list[str]:
    bad = []
    cat = _read_json(os.path.join(out, "catalog.json"))
    c = complex(*cat["c"])
    orbits = {o["word"]: (complex(o["re_z"], o["im_z"]),
                          complex(o["re_multiplier"], o["im_multiplier"]))
              for o in cat["orbits"]}
    root = (1.0 - 4.0 * c) ** 0.5
    for word, z in (("0", 0.5 * (1.0 + root)), ("1", 0.5 * (1.0 - root))):
        got_z, got_lam = orbits.get(word, (math.nan, math.nan))
        if not (abs(got_z - z) <= 1e-10 and abs(got_lam - 2.0 * z) <= 1e-10):
            bad.append(f"fixed point {word!r}: z {got_z}, multiplier {got_lam}")
    lam01 = orbits.get("01", (0, math.nan))[1]
    if not abs(abs(lam01) - abs(4.0 * (c + 1.0))) <= 1e-10:
        bad.append(f"|multiplier(01)| {abs(lam01)} is not {abs(4.0 * (c + 1.0))}")
    for n in range(1, cat["n_max"] + 1):
        got = sum(len(w) for w in orbits if n % len(w) == 0)
        if got != 2 ** n:
            bad.append(f"{got} fixed points of f^{n}, expected {2 ** n}")
    return bad


def check_load(loaded, source_out: str) -> list[str]:
    cat = _read_json(os.path.join(source_out, "catalog.json"))
    saved = {o["word"]: complex(o["re_multiplier"], o["im_multiplier"])
             for o in cat["orbits"]}
    got = {o.word.letters: o.multiplier for o in loaded.orbits}
    if loaded.n_max != cat["n_max"] or set(got) != set(saved):
        return ["loaded catalog has other words than the saved one"]
    worst = max(abs(got[w] - saved[w]) / abs(saved[w]) for w in saved)
    return [] if worst <= 1e-10 else [f"loaded multipliers differ by {worst:.2e}"]


def _check_zeta_eval(plan, step, out, scans) -> list[str]:
    rows = _read_csv(os.path.join(out, "zeta_grid.csv"))
    params = step.config["params"]
    if len(rows) != params["re"][2] * params["im"][2]:
        return [f"grid has {len(rows)} rows"]
    ev = FredholmEvaluator(MapSpec(c=step.config["system"]["c"]), level=2)
    bad = []
    for row in (rows[0], rows[len(rows) // 2], rows[-1]):
        s = complex(float(row["re_s"]), float(row["im_s"]))
        z = complex(float(row["re_Z"]), float(row["im_Z"]))
        want = ev(s)
        rel = abs(z - want) / abs(want)
        if rel > 1e-6:
            bad.append(f"cycle and Fredholm differ by {rel:.2e} at s = {s}")
    return bad


def _check_pairing(plan, step, out, scans) -> list[str]:
    bad = []
    for k in range(len(step.config["params"]["windows"])):
        res = _read_json(os.path.join(out, f"pairing_{k}.json"))
        budget = 1e-9 * max(1.0, abs(res["orbit_side"]))
        if not (res["orbit_side"] > 0.0 and res["residual"] <= res["tail"] + budget
                and res["residual"] <= 0.05 * res["orbit_side"]):
            bad.append(f"window {k} fails: {res}")
    want = _reference()["identity_zero_count"]
    if len(scans) != 1 or sum(r.multiplicity for r in scans[0]) != want:
        bad.append(f"zero count {[len(z) for z in scans]} is not {want}")
    return bad


def _check_dimension(plan, step, out, scans) -> list[str]:
    res = _read_json(os.path.join(out, "dimension.json"))
    bad = []
    if not res["box_fit_reliable"]:
        bad.append(f"box fit unreliable (r2 {res['box_fit_r2']})")
    diff = abs(res["delta_zeta"] - res["delta_box"])
    if not diff <= 2e-2:
        bad.append(f"|delta_zeta - delta_box| = {diff}")
    if step.config["system"]["c"] == -6.0 and not abs(res["delta_zeta"] - DELTA6) <= 1e-10:
        bad.append(f"delta(-6) = {res['delta_zeta']}")
    return bad


def _check_cover(plan, step, out, scans) -> list[str]:
    rows = _read_csv(os.path.join(out, "cover_stats.csv"))
    counts = [int(r["P"]) for r in rows]
    if len(rows) < 5 or min(counts) < 1 or counts != sorted(counts, reverse=True):
        return [f"component counts {counts} are not positive and non-increasing in h"]
    return []


CHECKS = {"zeros": _check_census, "orbits": _check_orbits, "zeta-eval": _check_zeta_eval,
          "pairing": _check_pairing, "dimension": _check_dimension, "cover": _check_cover}
