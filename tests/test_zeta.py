import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from juliazeta.dynamics import MapSpec, Mode, build_orbit_catalog
from juliazeta.errors import DivergenceRegionError, TruncationError
from juliazeta.zeta import (CycleEvaluator, ModelEvaluator, model_dimension,
                            zero_free_abscissa)

GOLDEN = math.log2((1.0 + math.sqrt(5.0)) / 2.0)


def test_model_simple_zero():
    zv = ModelEvaluator(2.0, 2.0, 0).zeta_value(1.0)
    assert zv.value == pytest.approx(0.0, abs=1e-15)


def test_model_golden_ratio_zero():
    assert model_dimension(2.0, 4.0) == pytest.approx(GOLDEN, abs=1e-12)
    zv = ModelEvaluator(2.0, 4.0, 0).zeta_value(GOLDEN)
    assert abs(zv.value) < 1e-12


def test_model_truncation_difference_bound():
    z0 = ModelEvaluator(2.0, 4.0, 0).zeta_value(3.0)
    z5 = ModelEvaluator(2.0, 4.0, 5).zeta_value(3.0)
    direct = sum(2.0 ** -(3 + k) + 4.0 ** -(3 + k) for k in range(1, 6))
    diff = abs(z0.value - z5.value)
    assert diff <= direct + 0.01 * direct + 1e-12
    # frozen from direct evaluation of both truncations
    assert diff == pytest.approx(0.10423444289858474, rel=1e-12)
    # the reported tail of the K=0 run covers the refinement
    assert diff <= z0.tail_bound


def test_model_value_matches_log():
    zv = ModelEvaluator(2.0, 4.0, 6).zeta_value(1.5 + 2.0j)
    assert abs(zv.value - cmath.exp(zv.log_value)) <= 1e-12 * abs(zv.value)


def test_cycle_far_right_is_one(spec6, cat12):
    zv = CycleEvaluator(build_orbit_catalog(spec6, 10)).zeta_value(30.0)
    bound = 2.0 * (2.0 * math.sqrt(3.0)) ** -30 / (1.0 - 1.0 / (2.0 * math.sqrt(3.0)))
    assert abs(zv.log_value) <= bound < 1e-15
    assert abs(zv.value - 1.0) <= 1e-15
    # and along the whole vertical segment at Re s = 30
    for t in np.linspace(-10.0, 10.0, 21):
        assert abs(CycleEvaluator(cat12).zeta_value(complex(30.0, t)).value - 1.0) <= 1e-12


def test_cycle_real_on_real_axis(cat12):
    zv = CycleEvaluator(cat12).zeta_value(1.25)
    assert zv.log_value.imag == 0.0
    assert zv.value.imag == 0.0


def test_cycle_refuses_divergence_region(cat12):
    with pytest.raises(DivergenceRegionError):
        CycleEvaluator(cat12).zeta_value(0.3)


def test_cycle_telescopes_to_model_product(affine24_cat):
    # binomial multiplicities collapse the cycle sum into the product
    # over k of (1 - A^-(s+k) - B^-(s+k)); K large enough to exhaust it
    # (the depth-14 fixture catalog supports Re s >= 2.5 at 1e-9)
    for s in (2.5, 3.0 + 1.0j, 3.5 - 2.0j):
        got = CycleEvaluator(affine24_cat).zeta_value(s).log_value
        want = ModelEvaluator(2.0, 4.0, 60).zeta_value(s).log_value
        assert abs(got - want) < 1e-9


def _reference_cycle_arrays(catalog):
    """Reference loop over the orbit records: for each n, each prime orbit
    whose period p divides n stands for p fixed points of f^n, with length
    k L and multiplier Lambda^k (k = n / p), in Python's arithmetic."""
    lengths, dens, weights = [], [], []
    orbits = catalog.orbits
    for n in range(1, catalog.n_max + 1):
        for o in orbits:   # by period, then word
            if n % o.n == 0:
                k = n // o.n
                base = abs(1.0 - 1.0 / o.multiplier ** k)
                lengths.append(k * o.length)
                dens.append(base if catalog.mode is Mode.REAL_1D else base * base)
                weights.append(o.n / n)
    return np.array(lengths), np.array(dens), np.array(weights)


@pytest.mark.parametrize("name", ["cat12", "affine24_cat", "complex_cat8"])
def test_cycle_arrays_keep_the_reference_arithmetic(request, name):
    from juliazeta.zeta import _cycle_arrays
    catalog = request.getfixturevalue(name)
    got = _cycle_arrays(catalog)
    want = _reference_cycle_arrays(catalog)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_cycle_denominator_modes_differ():
    # the same real c in both modes: Complex2D squares each Real1D
    # denominator |1 - 1/Lambda|, which enlarges exactly the terms whose
    # denominator is below 1 (the positive multipliers)
    real, plane = (build_orbit_catalog(MapSpec(c=-6.0, mode=mode), 8) for mode in Mode)
    one = CycleEvaluator(real).zeta_value(2.0).log_value
    two = CycleEvaluator(plane).zeta_value(2.0).log_value
    assert two != one
    from juliazeta.zeta import _cycle_arrays
    lengths, dens, weights = _cycle_arrays(plane)
    lengths1, dens1, weights1 = _cycle_arrays(real)
    assert np.array_equal(lengths, lengths1) and np.array_equal(weights, weights1)
    assert np.array_equal(dens, dens1 * dens1)
    assert np.array_equal(dens < dens1, dens1 < 1.0) and (dens1 < 1.0).any()
    manual = -float(np.sum(weights * np.exp(-2.0 * lengths) / dens))
    assert two.real == pytest.approx(manual, rel=1e-12)


def test_tail_honesty_under_halving(spec6, cat12):
    cat6 = build_orbit_catalog(spec6, 6)
    for s in (1.2, 1.6 + 3j, 2.5 + 8j):
        full = CycleEvaluator(cat12).zeta_value(s)
        half = CycleEvaluator(cat6).zeta_value(s)
        assert abs(full.value - half.value) <= half.tail_bound


@given(re=st.floats(min_value=1.0, max_value=4.0),
       im=st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=25, deadline=None)
def test_cycle_conjugate_symmetry(cat12, re, im):
    s = complex(re, im)
    a = CycleEvaluator(cat12).zeta_value(s).value
    b = CycleEvaluator(cat12).zeta_value(s.conjugate()).value
    assert abs(b - a.conjugate()) <= 1e-12 * max(1.0, abs(a))


@given(st.floats(min_value=0.8, max_value=3.0),
       st.floats(min_value=-10.0, max_value=10.0))
@settings(max_examples=25, deadline=None)
def test_model_conjugate_symmetry(re, im):
    ev = ModelEvaluator(2.0, 4.0, 3)
    s = complex(re, im)
    assert abs(ev(s.conjugate()) - ev(s).conjugate()) <= 1e-12 * max(1.0, abs(ev(s)))


def test_zero_free_abscissa_bound(cat12):
    c0 = zero_free_abscissa(cat12)
    ev = CycleEvaluator(cat12)
    for t in np.linspace(-10.0, 10.0, 41):
        assert abs(ev(complex(c0, t))) >= 0.4


def test_model_derivative_closed_form():
    ev = ModelEvaluator(2.0, 2.0, 0)
    got = ev.dlog(2.0)
    assert got == pytest.approx(math.log(2.0), rel=1e-12)


def test_cycle_derivative_vs_central_difference(cat12):
    ev = CycleEvaluator(cat12)
    h = 1e-6
    for s in np.linspace(1.1 + 0.3j, 2.6 + 4.0j, 10):
        analytic = ev.dlog(s)
        numeric = (ev.log(s + h) - ev.log(s - h)) / (2.0 * h)
        assert abs(analytic - numeric) < 1e-6


def test_derivative_real_on_real_axis(cat12):
    ev = CycleEvaluator(cat12)
    d = ev.dlog(1.5)
    assert d.imag == 0.0


def test_cycle_batch_matches_scalar(cat12):
    ev = CycleEvaluator(cat12)
    ss = np.array([1.1 + 0.5j, 2.0 - 3.0j, 3.3 + 9.0j])
    assert list(ev.batch(ss)) == [ev(s) for s in ss]


# the ledger's seed-0 zeta-eval grid: c = -6, n_max 16, 9 x 21 points
LEDGER_RES, LEDGER_IMS = np.linspace(1.0, 3.0, 9), np.linspace(0.0, 20.0, 21)


def _random_grid(ev, seed):
    rng = np.random.default_rng(seed)
    ims = rng.uniform(-25.0, 25.0, 8)
    return ev.min_re + rng.uniform(0.02, 3.0, 5), np.r_[ims, -ims, 0.0]


@pytest.mark.parametrize("grid", ["ledger", "random"])
def test_cycle_grid_is_the_pointwise_value(cat12, cat16, grid):
    # a point of the grid, the call, batch and zeta_value share one
    # arithmetic: zeta_value and the call are the grid's 1 x 1 case
    ev = CycleEvaluator(cat16) if grid == "ledger" else CycleEvaluator(cat12)
    res, ims = (LEDGER_RES, LEDGER_IMS) if grid == "ledger" else _random_grid(ev, 5)
    ss = [complex(a, b) for b in ims for a in res]
    values = ev.zeta_grid(res, ims)
    assert values == [ev.zeta_value(s) for s in ss]
    assert [v.value for v in values] == [ev(s) for s in ss] == list(ev.batch(ss))
    assert [v.log_value for v in values] == [ev.log(s) for s in ss]


def test_cycle_grid_matches_the_complex_exponential_sum(cat16):
    # e^{-Re s L} (cos tL - i sin tL) with the weight over the denominator
    # formed first: a few roundings per term apart from the direct complex
    # exponential, which the 1e-15 relative tolerance covers
    from juliazeta.zeta import _cycle_arrays
    lengths, dens, weights = _cycle_arrays(cat16)
    ss = [complex(a, b) for b in LEDGER_IMS for a in LEDGER_RES]
    for s, zv in zip(ss, CycleEvaluator(cat16).zeta_grid(LEDGER_RES, LEDGER_IMS)):
        want = cmath.exp(-complex(np.sum(weights * np.exp(-s * lengths) / dens)))
        assert abs(zv.value - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("name", ["cat12", "complex_cat8"])
def test_cycle_grid_is_exactly_conjugate_symmetric(request, name):
    ev = CycleEvaluator(request.getfixturevalue(name))
    res, ims = _random_grid(ev, 7)
    upper, lower = ev.zeta_grid(res, ims[:8]), ev.zeta_grid(res, ims[8:16])
    assert [(v.value, v.log_value, v.tail_bound) for v in lower] == \
        [(v.value.conjugate(), v.log_value.conjugate(), v.tail_bound) for v in upper]
    axis = ev.zeta_grid(res, [0.0])
    assert all(v.value.imag == 0.0 and v.log_value.imag == 0.0 for v in axis)


def test_cycle_grid_refuses_a_column_left_of_the_abscissa(cat12):
    ev = CycleEvaluator(cat12)
    with pytest.raises(DivergenceRegionError,
                       match=r"^Re s = 0\.3 is at or below the certified convergence abscissa"):
        ev.zeta_grid([2.0, 0.3, 1.5], [0.0, 4.0])


def test_cycle_grid_memory_is_a_few_rows(cat16):
    # the grid keeps one modulus row per Re column; every other temporary
    # is one row of the cycle arrays, as in a scalar call
    ev = CycleEvaluator(cat16)
    row = 8 * len(ev._coef)
    tracemalloc.start()
    try:
        ev.zeta_value(complex(LEDGER_RES[0], LEDGER_IMS[-1]))
        scalar = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ev.zeta_grid(LEDGER_RES, LEDGER_IMS)
        grid = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid - scalar <= (len(LEDGER_RES) + 2) * row


def test_model_batch_matches_scalar():
    ev = ModelEvaluator(2.0, 4.0, 40)
    ss = np.array([1.1 + 0.5j, -2.3 - 3.0j, 0.4 + 19.0j, -0.7])
    assert list(ev.batch(ss)) == [ev(s) for s in ss]


def test_model_value_is_the_call():
    # zeta_value and the call share one arithmetic: a^{-s} and b^{-s} once a
    # point, times a^{-k} and b^{-k}; the product agrees with the direct
    # powers a^{-(s+k)} to rounding
    ev = ModelEvaluator(2.0, 4.0, 40)
    rng = np.random.default_rng(3)
    points = rng.uniform(-3.0, 1.0, 200) + 1j * rng.uniform(-60.0, 60.0, 200)
    for s in map(complex, points):
        z = ev(s)
        assert ev.zeta_value(s).value == z
        direct = 1.0 + 0.0j
        for k in range(41):
            direct *= 1.0 - 2.0 ** (-(s + k)) - 4.0 ** (-(s + k))
        assert abs(z - direct) <= 1e-13 * abs(direct)


def test_model_overflow_raises():
    # an overflowing a^{-s} is a TruncationError naming s, which a job
    # reports in one line with exit 3, as it does the Fredholm route's
    ev = ModelEvaluator(2.0, 4.0, 3)
    for s in (-2000.0, -2000.0 + 5.0j):
        with pytest.raises(TruncationError, match=re.escape(f"at s = {complex(s)} ")):
            ev(s)
        with pytest.raises(TruncationError, match=re.escape(f"at s = {complex(s)} ")):
            ev.zeta_value(s)
    # finite powers, but an overflowing product (K = 40) or tail (K = 0)
    for ev, s in ((ModelEvaluator(2.0, 4.0, 40), -40.0 + 1.0j),
                  (ModelEvaluator(2.0, 4.0, 0), -20.0)):
        with pytest.raises(TruncationError, match="is not finite"):
            ev.zeta_value(s)
