import hashlib
import math
import os

import numpy as np
import pytest

from juliazeta import pairing
from juliazeta.cli import run_job
from juliazeta.dynamics import MapSpec, build_orbit_catalog
from juliazeta.errors import ConvergenceError, CoverageError
from juliazeta.pairing import (TestFunction, identity_residual,
                               orbit_length_histogram, orbit_side_pairing,
                               zero_side_pairing)
from juliazeta.zeros import Rectangle, scan_region
from juliazeta.zeta import ModelEvaluator, model_dimension

GOLDEN = math.log2((1.0 + math.sqrt(5.0)) / 2.0)


def test_test_function_support_and_sign():
    phi = TestFunction(d=1.0, gamma=0.4)
    ts = np.linspace(0.0, 2.0, 201)
    vals = phi.hat(ts)
    assert np.all(vals >= 0.0)
    assert np.all(vals[np.abs(ts - 1.0) >= 0.4] == 0.0)
    assert phi.hat(1.0) == pytest.approx(math.exp(-1.0))
    with pytest.raises(ValueError):
        TestFunction(d=0.5, gamma=0.6)  # support would leave R_+


def test_transform_at_zero_is_mass():
    phi = TestFunction(d=1.0, gamma=0.4)
    assert phi.transform(0.0).real == pytest.approx(phi.hat_mass(), rel=1e-12)
    assert abs(phi.transform(0.0).imag) < 1e-12 * phi.hat_mass()


def test_transform_decay_bound():
    phi = TestFunction(d=1.0, gamma=0.4)
    for lam in (2.0 + 1.0j, -5.0 + 3.0j, 0.5j):
        assert abs(phi.transform(lam)) <= phi.transform_bound(lam.imag) * (1.0 + 1e-12)


def _fresh_rule_transform(phi, lam, rtol=1e-12):
    """Reference: the transform's node doubling with a freshly built rule
    at every step."""
    lam, prev, n = complex(lam), None, pairing._MIN_QUAD_NODES
    while n <= 4096:
        x, w = np.polynomial.legendre.leggauss(n)
        t = phi.d + phi.gamma * x
        cur = complex(np.sum(w * (phi.hat(t) * np.exp(1j * lam * t))) * phi.gamma)
        if prev is not None and abs(cur - prev) <= rtol * max(1.0, abs(cur)):
            return cur
        prev, n = cur, 2 * n
    raise AssertionError("reference did not converge")


@pytest.mark.parametrize("d, gamma", [(0.70, 0.22), (1.39, 0.30), (2.08, 0.30)])
def test_cached_rules_match_fresh_rules(d, gamma):
    phi = TestFunction(d=d, gamma=gamma)
    for lam in (0.0, 3.0 + 0.5j, -40.0 + 2.0j, 55.0 + 4.0j, 200.0 + 0.1j):
        assert phi.transform(lam) == _fresh_rule_transform(phi, lam)
    x, w = np.polynomial.legendre.leggauss(256)
    t = d + gamma * x
    assert phi.hat_mass() == float(np.sum(w * phi.hat(t)) * gamma)


@pytest.mark.parametrize("d, gamma", [(0.70, 0.22), (1.39, 0.30), (2.08, 0.30)])
def test_transforms_are_the_one_point_transforms(d, gamma):
    # one array pass per rule over the lams not yet converged; each lam
    # keeps its own doubling, so its value is the fresh-rule reference's
    phi = TestFunction(d=d, gamma=gamma)
    rng = np.random.default_rng(11)
    lams = [0.0, 1j, 3.0 + 0.5j, 200.0 + 0.1j] + \
        list(rng.uniform(-300.0, 300.0, 60) + 1j * rng.uniform(-0.5, 8.0, 60))
    got = phi.transforms(lams)
    assert got == [phi.transform(lam) for lam in lams]
    assert got == [_fresh_rule_transform(phi, lam) for lam in lams]
    assert phi.transforms([]) == []


def test_transforms_raise_for_the_first_unconverged_lam():
    phi = TestFunction(d=1.39, gamma=0.3)
    with pytest.raises(ConvergenceError) as one:
        phi.transform(2e4)
    with pytest.raises(ConvergenceError) as many:
        phi.transforms([3.0 + 0.5j, 2e4, 1j, 5e4])
    assert str(many.value) == str(one.value)


def test_hat_mass_is_computed_once(monkeypatch):
    rules = []
    monkeypatch.setattr(pairing, "_gauss_legendre",
                        lambda n: rules.append(n) or np.polynomial.legendre.leggauss(n))
    phi = TestFunction(d=1.39, gamma=0.3)
    bounds = [phi.transform_bound(y) for y in (0.0, 1.0, 2.0, 3.0)]
    assert rules == [256]
    assert bounds[0] == phi.hat_mass()


def test_quadrature_rules_are_shared_read_only_and_bounded():
    x, w = pairing._gauss_legendre(64)
    assert pairing._gauss_legendre(64)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    assert pairing._gauss_legendre.cache_info().maxsize == 16


def test_unconverged_transform_raises():
    phi = TestFunction(d=1.39, gamma=0.3)
    for lam in (2e4, 5e4):
        with pytest.raises(ConvergenceError, match="4096"):
            phi.transform(lam)


# artifacts of the seed-0 benchmark pairing job (affine (2, 4), n_max 14,
# three windows), as the rule-per-step transform and the per-letter affine
# catalog loop wrote them.  The zero sums follow the scan's row order:
# ordering each height's zeros by decreasing Re, not by their rounding-level
# Im parts, moved zero_side by at most 2 ulps and residual by at most
# 1.75e-13 relative in windows 0 and 2.  The model product forms a^{-s}
# and b^{-s} once a point, times a^{-k} and b^{-k}: its 94 zeros moved by at
# most 7.1e-15, which moved zero_side by at most 2 ulps and residual by at
# most 1.7e-13 relative in windows 0 and 2 again
PAIRING_SHA256 = {
    "length_histogram.csv": "3170de4b2720aa5f5e8f2c7ac6550cf3dbca22bdc0650e71fa59390dd297b820",
    "pairing_0.json": "f2b28d8b68ae6cf4c2290afc5f4fe4ba60a9cd3bef2f9762ba305e7ef8ae6b66",
    "pairing_1.json": "3e838535463cbb6147b93f26d2e84242230167c994ad94336afa64d635c148cd",
    "pairing_2.json": "681f4bc1f1be1e8790d028e55b85d462bec95e6ac445410c6e67ceb2fadf6c8b",
}


def test_pairing_job_bytes_pinned(tmp_path):
    windows = [{"d": d, "gamma": g} for d, g in ((0.70, 0.22), (1.39, 0.30), (2.08, 0.30))]
    run_job({"task": "pairing", "system": {"kind": "affine", "ratios": [2.0, 4.0]},
             "params": {"windows": windows, "rectangle": [-3.0, 1.0, -60.0, 60.0],
                        "n_max": 14, "k_max": 40, "histogram_n": 12}}, str(tmp_path))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in os.listdir(tmp_path) if name != "manifest.json"}
    assert got == PAIRING_SHA256


def test_orbit_side_single_length_window(cat12, delta6):
    # window around log 6 only; the fixed point z = 3 is the only orbit
    # with length there, so the sum has one closed-form term
    phi = TestFunction(d=math.log(6.0), gamma=0.14)
    got = orbit_side_pairing(cat12, delta6, phi)
    want = math.log(6.0) * 6.0 ** (-delta6) / (1.0 - 1.0 / 6.0) * phi.hat(math.log(6.0))
    assert got == pytest.approx(want, rel=1e-12)


def test_orbit_side_two_length_window(cat12, delta6):
    # window covering both fixed-point lengths log 4 and log 6
    phi = TestFunction(d=1.55, gamma=0.35)
    got = orbit_side_pairing(cat12, delta6, phi)
    want = (math.log(6.0) * 6.0 ** -delta6 / (1.0 - 1.0 / 6.0) * phi.hat(math.log(6.0))
            + math.log(4.0) * 4.0 ** -delta6 / (1.0 + 1.0 / 4.0) * phi.hat(math.log(4.0)))
    assert got == pytest.approx(want, rel=1e-12)


def test_orbit_side_empty_support(cat12, delta6):
    phi = TestFunction(d=1.2, gamma=0.12)  # below log 4 * 0.99
    assert phi.d + phi.gamma < math.log(4.0) * 0.99
    assert orbit_side_pairing(cat12, delta6, phi) == 0.0


def test_orbit_side_positive(affine24_cat):
    delta = model_dimension(2.0, 4.0)
    for d, g in ((0.7, 0.2), (1.4, 0.3), (2.1, 0.4)):
        assert orbit_side_pairing(affine24_cat, delta, TestFunction(d=d, gamma=g)) >= 0.0


def test_orbit_side_coverage_error(delta6):
    shallow = build_orbit_catalog(MapSpec(c=-6), 2)
    with pytest.raises(CoverageError):
        orbit_side_pairing(shallow, delta6, TestFunction(d=5.0, gamma=0.5))


def test_support_locality(affine24, affine24_cat):
    # extending the catalog past support exhaustion changes nothing
    delta = model_dimension(2.0, 4.0)
    phi = TestFunction(d=0.7, gamma=0.22)
    shallow = affine24.orbit_catalog(6)
    a = orbit_side_pairing(shallow, delta, phi)
    b = orbit_side_pairing(affine24_cat, delta, phi)
    assert a == b


def test_scaling_linearity(affine24_cat):
    # both pairings are linear in the test function; scaling the hat
    # profile scales the orbit side exactly (the profile is fixed, so
    # emulate scaling by comparing against a manual reweighting)
    delta = model_dimension(2.0, 4.0)
    phi = TestFunction(d=1.39, gamma=0.3)
    base = orbit_side_pairing(affine24_cat, delta, phi)
    from juliazeta.zeta import _cycle_arrays
    lengths, dens, weights = _cycle_arrays(affine24_cat)
    manual = float(np.sum(weights * lengths * np.exp(-delta * lengths)
                          * 3.0 * phi.hat(lengths) / dens))
    assert manual == pytest.approx(3.0 * base, rel=1e-12)


@pytest.fixture(scope="module")
def model_zero_set():
    ev = ModelEvaluator(2.0, 4.0, 40)
    region = Rectangle(-3.0, 1.0, -60.0, 60.0)
    return ev, region, scan_region(ev, region)


def test_zero_side_real_for_real_system(model_zero_set):
    ev, region, zeros = model_zero_set
    delta = model_dimension(2.0, 4.0)
    phi = TestFunction(d=1.39, gamma=0.3)
    total = sum(rec.multiplicity * phi.transform(1j * (delta - rec.s))
                for rec in zeros)
    assert abs(total.imag) <= 1e-10 * max(1.0, abs(total.real))


def test_identity_residual_windows(model_zero_set, affine24_cat):
    ev, region, zeros = model_zero_set
    delta = model_dimension(2.0, 4.0)
    for d, g in ((0.70, 0.22), (1.39, 0.30), (2.08, 0.30)):
        res = identity_residual(affine24_cat, ev, delta, TestFunction(d=d, gamma=g),
                                region, zeros=zeros)
        assert res.passed
        assert res.residual <= 0.05 * res.orbit_side
        assert res.residual == pytest.approx(abs(res.orbit_side - res.zero_side))


def test_enlarging_region_shrinks_tail(model_zero_set, affine24_cat):
    ev, _region, _zeros = model_zero_set
    delta = model_dimension(2.0, 4.0)
    phi = TestFunction(d=0.70, gamma=0.22)
    tails = []
    for lo in (-1.0, -2.0, -3.0):
        region = Rectangle(lo, 1.0, -60.0, 60.0)
        zeros = scan_region(ev, region)
        _value, tail = zero_side_pairing(zeros, delta, phi, region, 1.0)
        tails.append(tail)
    assert tails == sorted(tails, reverse=True)


def test_disjoint_window_pairs_to_zero(model_zero_set, affine24_cat):
    ev, region, zeros = model_zero_set
    delta = model_dimension(2.0, 4.0)
    phi = TestFunction(d=0.35, gamma=0.2)  # below the shortest length log 2
    res = identity_residual(affine24_cat, ev, delta, phi, region, zeros=zeros)
    assert res.orbit_side == 0.0
    assert abs(res.zero_side) <= res.zero_tail_estimate


def test_histogram_affine_binomial(affine24_cat):
    n = 6
    hist = orbit_length_histogram(affine24_cat, n, bins=32)
    assert sum(hist.weights) == 2 ** n
    la, lb = math.log(2.0), math.log(4.0)
    want_mean = sum(math.comb(n, k) * (k * la + (n - k) * lb)
                    for k in range(n + 1)) / (n * 2 ** n)
    assert hist.mean == pytest.approx(want_mean, rel=1e-12)
    # exact binomial multiplicities: L_n = k l1 + (n-k) l2 carries C(n,k)
    counts = {}
    for p in (d for d in range(1, n + 1) if n % d == 0):
        for length in ((n // p) * affine24_cat.lengths[p - 1]).tolist():
            counts[round(length, 9)] = counts.get(round(length, 9), 0) + p
    want = {round(k * la + (n - k) * lb, 9): math.comb(n, k) for k in range(n + 1)}
    assert counts == want


def test_histogram_two_masses_at_period_one(cat12):
    hist = orbit_length_histogram(cat12, 1, bins=8)
    nonzero = [w for w in hist.weights if w > 0]
    assert nonzero == [1.0, 1.0]
    assert hist.n == 1


def test_histogram_mean_inside_length_bounds(cat12):
    hist = orbit_length_histogram(cat12, 12, bins=10)
    assert cat12.log_a <= hist.mean <= math.log(cat12.b)
    mid = 0.5 * (cat12.log_a + math.log(cat12.b))  # binomial-model reference
    assert abs(hist.mean - mid) < 0.5
    # unimodal at this binning
    w = list(hist.weights)
    peak = w.index(max(w))
    assert all(w[i] <= w[i + 1] for i in range(peak))
    assert all(w[i] >= w[i + 1] for i in range(peak, len(w) - 1))
