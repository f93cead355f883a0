"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers once its assertions hold.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

from juliazeta.cli import run_job
from juliazeta.cover import box_dimension
from juliazeta.dynamics import AffinePair, MapSpec, build_orbit_catalog
from juliazeta.pairing import TestFunction, identity_residual, orbit_side_pairing
from juliazeta.tracecheck import (ContractionSpec, closed_form,
                                  order_for_tolerance, pullback_trace)
from juliazeta.zeros import (PolyFamily, Rectangle, StripFamily,
                             counting_report, growth_exponent_probe,
                             leading_real_zero, scan_region, winding_number)
from juliazeta.zeta import CycleEvaluator, ModelEvaluator, zero_free_abscissa

GOLDEN = math.log2((1.0 + math.sqrt(5.0)) / 2.0)


def report(criterion: int, detail: str) -> None:
    print(f"\nacceptance {criterion:02d}: PASS  [{detail}]")


@pytest.fixture(scope="module")
def census6(fredholm6):
    """Winding-validated zeros of the c=-6 determinant in the strip
    Re s > -2 up to height 40 (shared by criteria 8 and the reports)."""
    return scan_region(fredholm6, Rectangle(-2.0, 1.4, -40.0, 40.0))


def test_criterion_01_orbit_exactness():
    t0 = time.monotonic()
    catalog = build_orbit_catalog(MapSpec(c=-6), 12)
    by_word = {o.word.letters: o for o in catalog.orbits}
    assert abs(by_word["0"].z - 3.0) <= 1e-10
    assert abs(by_word["0"].multiplier - 6.0) <= 1e-10
    assert abs(by_word["1"].z - (-2.0)) <= 1e-10
    assert abs(by_word["1"].multiplier - (-4.0)) <= 1e-10
    assert abs(abs(by_word["01"].multiplier) - 20.0) <= 1e-10
    for n in range(1, 13):
        got = sum(o.n for o in catalog.orbits if n % o.n == 0)
        assert got == 2 ** n
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(1, f"closed forms to 1e-10, counts 2^n for n<=12, {elapsed:.1f}s")


def test_criterion_02_evaluator_equivalence(cat16, fredholm6, delta6):
    t0 = time.monotonic()
    cyc = CycleEvaluator(cat16)
    worst_rel, worst_tail = 0.0, 0.0
    for re in np.linspace(delta6 + 0.5, delta6 + 3.0, 5):
        for im in np.linspace(0.0, 10.0, 5):
            s = complex(re, im)
            zc = cyc.zeta_value(s)
            zf = fredholm6.zeta_value(s)
            diff = abs(zc.value - zf.value)
            assert diff <= zc.tail_bound + zf.tail_bound
            rel = diff / abs(zc.value)
            assert rel <= 1e-6
            worst_rel = max(worst_rel, rel)
            worst_tail = max(worst_tail, diff / (zc.tail_bound + zf.tail_bound))
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(2, f"worst relative {worst_rel:.2e}, worst tail ratio {worst_tail:.2e}, "
              f"{elapsed:.0f}s")


def test_criterion_03_model_replication():
    fixture = AffinePair((2.0, 4.0))
    catalog = fixture.orbit_catalog(16)
    worst = 0.0
    for s in (2.0, 2.5 + 1.0j, 3.0 - 2.0j, 4.0 + 5.0j):
        got = CycleEvaluator(catalog).zeta_value(s).log_value
        want = ModelEvaluator(2.0, 4.0, 60).zeta_value(s).log_value
        worst = max(worst, abs(got - want))
    assert worst <= 1e-9
    report(3, f"cycle sums reproduce the truncated product log to {worst:.2e}")


def test_criterion_04_model_zero_ledger():
    ev = ModelEvaluator(2.0, 4.0, 0)
    rect = Rectangle(-1.0, 1.0, -20.0, 20.0)
    assert winding_number(ev, rect) == 9
    records = scan_region(ev, rect)
    assert len(records) == 9
    assert all(r.multiplicity == 1 for r in records)
    ledger = []
    for m in range(-2, 3):
        ledger.append(complex(GOLDEN, 2.0 * math.pi * m / math.log(2.0)))
    for m in (-2, -1, 0, 1):
        ledger.append(complex(-GOLDEN, (2 * m + 1) * math.pi / math.log(2.0)))
    ledger.sort(key=lambda z: (z.imag, z.real))
    worst = max(abs(r.s - z) for r, z in zip(records, ledger))
    assert worst <= 1e-9
    report(4, f"9 simple zeros on Re s = +-log2(golden), worst offset {worst:.2e}")


def test_criterion_05_dimension_consistency(spec6, fredholm6):
    t0 = time.monotonic()
    fit, _stats = box_dimension(spec6)
    rec = leading_real_zero(fredholm6, (0.05, 0.95))
    delta_zeta = rec.s.real
    assert 0.0 < delta_zeta < 1.0
    assert 0.0 < fit.delta_box < 1.0
    diff = abs(delta_zeta - fit.delta_box)
    assert diff <= 2e-2
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(5, f"delta_zeta {delta_zeta:.6f} vs delta_box {fit.delta_box:.4f}, "
              f"|diff| {diff:.4f}, {elapsed:.0f}s")


def test_criterion_06_trace_formula():
    worst = 0.0
    for r in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for k in range(8):
            mu = r * complex(math.cos(2.0 * math.pi * k / 8.0),
                             math.sin(2.0 * math.pi * k / 8.0))
            spec = ContractionSpec(mu=mu)
            for variables in (1, 2):
                order = order_for_tolerance(r, 1e-11, variables)
                err = abs(pullback_trace(spec, variables, order)
                          - closed_form(spec, variables))
                worst = max(worst, err)
    assert worst <= 1e-10
    report(6, f"72 contraction factors x 2 variable counts, worst error {worst:.2e}")


def test_criterion_07_growth_probe(fredholm6, delta6):
    rs = [5.0, 7.0, 10.0, 14.0, 20.0, 28.0, 40.0]
    fit6 = growth_exponent_probe(fredholm6, 2.0, rs)
    assert fit6.exponent <= delta6 + 0.15
    model = ModelEvaluator(2.0, 4.0, 2)
    fitm = growth_exponent_probe(model, 1.5, rs)
    assert fitm.exponent < 0.1
    report(7, f"c=-6 exponent {fit6.exponent:.3f} <= {delta6 + 0.15:.3f}; "
              f"model exponent {fitm.exponent:.3f} < 0.1")


def test_criterion_08_counting_exponents(census6, delta6):
    rs = [5.0, 7.0, 10.0, 14.0, 20.0, 28.0, 40.0]
    rep6 = counting_report(census6, StripFamily(2.0), rs)
    assert rep6.exponent <= 1.0 + delta6 + 0.1
    # the conjectured exact rate, reported alongside the fit
    conjecture = 1.0 + delta6

    model_ev = ModelEvaluator(2.0, 4.0, 2)
    model_zeros = scan_region(model_ev, Rectangle(-1.5, 1.0, -40.0, 40.0))
    repm = counting_report(model_zeros, StripFamily(1.5), rs)
    assert abs(repm.exponent - 1.0) <= 0.1

    prev = None
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        rep = counting_report(census6, PolyFamily(alpha), rs)
        if prev is not None:
            assert all(c >= p for c, p in zip(rep.counts, prev))
        prev = rep.counts
    report(8, f"c=-6 strip exponent {rep6.exponent:.3f} <= {1 + delta6 + 0.1:.3f} "
              f"(conjectured {conjecture:.3f}); model {repm.exponent:.3f}; "
              f"N_alpha monotone")


def test_criterion_09_distribution_identity():
    fixture = AffinePair((2.0, 4.0))
    catalog = fixture.orbit_catalog(14)
    ev = ModelEvaluator(2.0, 4.0, 40)
    region = Rectangle(-3.0, 1.0, -60.0, 60.0)
    zeros = scan_region(ev, region)
    worst_rel = 0.0
    for d, g in ((0.70, 0.22), (1.39, 0.30), (2.08, 0.30)):
        phi = TestFunction(d=d, gamma=g)
        res = identity_residual(catalog, ev, GOLDEN, phi, region, zeros=zeros)
        assert res.passed
        assert res.orbit_side > 0.0
        assert res.residual <= 0.05 * res.orbit_side
        worst_rel = max(worst_rel, res.residual / res.orbit_side)
        # support locality: a deeper catalog changes the orbit side by 0
        deeper = fixture.orbit_catalog(16)
        assert orbit_side_pairing(deeper, GOLDEN, phi) == \
            orbit_side_pairing(catalog, GOLDEN, phi)
    report(9, f"three windows pass, worst residual {100 * worst_rel:.2f}% of orbit side")


def test_criterion_10_zero_free_half_plane(cat12):
    c0 = zero_free_abscissa(cat12)
    ev = CycleEvaluator(cat12)
    low = min(abs(ev(complex(c0, t))) for t in np.linspace(-10.0, 10.0, 81))
    assert low >= 0.4
    records = scan_region(ev, Rectangle(c0, c0 + 3.0, -10.0, 10.0))
    assert records == []
    report(10, f"C0 = {c0:.4f}; min sampled |Z| on the line {low:.3f} >= 0.4; "
               f"no zeros to the right")


DETERMINISM_JOBS = {
    "trace-check": {"task": "trace-check", "params": {}},
    "orbits": {"task": "orbits", "system": {"kind": "quadratic", "c": -6.0},
               "params": {"n_max": 7}},
    "cover": {"task": "cover", "system": {"kind": "affine", "ratios": [3.0, 3.0]},
              "params": {"hs": [0.01, 0.005, 0.002, 0.001]}},
    "zeta-eval": {"task": "zeta-eval",
                  "system": {"kind": "quadratic", "c": -6.0},
                  "params": {"method": "cycle", "n_max": 8,
                             "re": [1.0, 2.0, 3], "im": [0.0, 4.0, 3]}},
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


def test_criterion_11_determinism(tmp_path):
    import os

    def artifact_bytes(out_dir):
        data = {}
        for name in sorted(os.listdir(out_dir)):
            if name == "manifest.json":
                continue
            with open(os.path.join(out_dir, name), "rb") as fh:
                data[name] = fh.read()
        return data

    for name, cfg in DETERMINISM_JOBS.items():
        results = []
        for run in ("a", "b", "c", "d"):
            out = tmp_path / name / run
            run_job(cfg, str(out))
            results.append(artifact_bytes(out))
        for other in results[1:]:
            assert other == results[0], f"job {name} is not byte-deterministic"
    report(11, f"{len(DETERMINISM_JOBS)} job types byte-identical across reruns")
