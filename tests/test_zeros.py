import cmath
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import juliazeta.zeros
from juliazeta.dynamics import MapSpec, Mode, build_orbit_catalog
from juliazeta.errors import ClusterWarning, CompletenessError, NoZeroError
from juliazeta.zeros import (LogFamily, PolyFamily, Rectangle, StripFamily,
                             ZeroRecord, _CachedEvaluator, _edge_phase,
                             _moment_seeds, _sign_change, counting_report,
                             growth_exponent_probe, leading_real_zero,
                             refine_zero, scan_region, winding_number)
from juliazeta.zeta import (CycleEvaluator, FredholmEvaluator, ModelEvaluator,
                            zero_free_abscissa)

GOLDEN = math.log2((1.0 + math.sqrt(5.0)) / 2.0)


def model_ledger(height: float) -> list[complex]:
    """Closed-form zeros of the (2,4,0) model in |Im| <= height."""
    out = []
    m = 0
    while 2.0 * math.pi * m / math.log(2.0) <= height:
        for sgn in ({1} if m == 0 else {1, -1}):
            out.append(complex(GOLDEN, sgn * 2.0 * math.pi * m / math.log(2.0)))
        m += 1
    m = 0
    while (2 * m + 1) * math.pi / math.log(2.0) <= height:
        y = (2 * m + 1) * math.pi / math.log(2.0)
        out.extend([complex(-GOLDEN, y), complex(-GOLDEN, -y)])
        m += 1
    return sorted(out, key=lambda z: (z.imag, z.real))


def test_winding_single_zero():
    ev = ModelEvaluator(2.0, 4.0, 0)
    assert winding_number(ev, Rectangle(0.5, 0.9, -0.5, 0.5)) == 1


def test_winding_zero_free(cat12):
    ev = CycleEvaluator(cat12)
    c0 = zero_free_abscissa(cat12)
    assert winding_number(ev, Rectangle(c0, c0 + 2.0, -5.0, 5.0)) == 0


def test_winding_nine_model_zeros():
    ev = ModelEvaluator(2.0, 4.0, 0)
    assert winding_number(ev, Rectangle(-1.0, 1.0, -20.0, 20.0)) == 9


def test_scan_matches_model_ledger():
    ev = ModelEvaluator(2.0, 4.0, 0)
    records = scan_region(ev, Rectangle(-1.0, 1.0, -20.0, 20.0))
    ledger = model_ledger(20.0)
    assert len(records) == len(ledger) == 9
    assert all(r.multiplicity == 1 for r in records)
    assert max(abs(r.s - z) for r, z in zip(records, ledger)) < 1e-9


def test_scan_additivity():
    ev = ModelEvaluator(2.0, 4.0, 0)
    whole = scan_region(ev, Rectangle(-1.0, 1.0, -20.0, 20.0))
    a = scan_region(ev, Rectangle(-1.0, 1.0, -20.0, 0.31))
    b = scan_region(ev, Rectangle(-1.0, 1.0, 0.31, 20.0))
    merged = sorted([r.s for r in a + b], key=lambda z: (z.imag, z.real))
    assert len(merged) == len(whole)
    assert max(abs(x - r.s) for x, r in zip(merged, whole)) < 1e-9


def test_scan_empty_region():
    ev = ModelEvaluator(2.0, 4.0, 0)
    assert scan_region(ev, Rectangle(2.0, 4.0, -5.0, 5.0)) == []


def test_refine_simple_zero():
    rec = refine_zero(ModelEvaluator(2.0, 2.0, 0), 1.01)
    assert rec.s == pytest.approx(1.0, abs=1e-10)
    assert rec.multiplicity == 1


def test_refine_rejects_zero_free_seed(cat12):
    ev = CycleEvaluator(cat12)
    c0 = zero_free_abscissa(cat12)
    with pytest.raises(Exception) as info:
        refine_zero(ev, complex(c0 + 1.0), max_step=0.3)
    assert info.type.__name__ in ("NoZeroError", "ConvergenceError")


def test_leading_zero_seeded_by_box_dimension(spec6, fredholm6, delta6):
    from juliazeta.cover import box_dimension
    fit, _ = box_dimension(spec6)
    rec = refine_zero(fredholm6, complex(fit.delta_box), max_step=0.2)
    assert rec.s.real == pytest.approx(delta6, abs=1e-10)
    assert abs(rec.s.imag) < 1e-10
    assert rec.multiplicity == 1


def test_counting_poly_zero_equals_strip():
    # away from the unit disk (the poly regions exclude |s| < 1) the
    # alpha = 0 region and the strip count the same zeros
    zeros = [type("R", (), {"s": z, "multiplicity": 1})()
             for z in model_ledger(40.0) if abs(z) >= 1.0]
    rs = [5.0, 10.0, 20.0, 35.0]
    strip = counting_report(zeros, StripFamily(1.0), rs)
    poly0 = counting_report(zeros, PolyFamily(0.0), rs)
    assert strip.counts == poly0.counts


def test_counting_monotone_in_alpha():
    zeros = [type("R", (), {"s": z, "multiplicity": 1})()
             for z in model_ledger(60.0)]
    rs = [5.0, 15.0, 30.0, 55.0]
    prev = None
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        rep = counting_report(zeros, PolyFamily(alpha), rs)
        if prev is not None:
            assert all(c >= p for c, p in zip(rep.counts, prev))
        prev = rep.counts


def test_model_strip_count_grows_linearly():
    ev = ModelEvaluator(2.0, 4.0, 2)
    records = scan_region(ev, Rectangle(-1.5, 1.0, -40.0, 40.0))
    rep = counting_report(records, StripFamily(1.5), [5, 7, 10, 14, 20, 28, 40])
    assert rep.counts == tuple(sorted(rep.counts))
    assert rep.exponent == pytest.approx(1.0, abs=0.1)


def test_log_family_counts():
    zeros = [type("R", (), {"s": z, "multiplicity": 1})()
             for z in model_ledger(60.0)]
    rep = counting_report(zeros, LogFamily(rho=3.0, delta=GOLDEN), [10.0, 30.0, 55.0])
    assert rep.counts == tuple(sorted(rep.counts))
    assert rep.counts[-1] > 0


def test_growth_probe_model_bounded():
    ev = ModelEvaluator(2.0, 4.0, 2)
    fit = growth_exponent_probe(ev, 1.5, [5, 7, 10, 14, 20, 28, 40])
    assert fit.exponent < 0.1


def test_growth_probe_grid_refinement_monotone():
    ev = ModelEvaluator(2.0, 4.0, 2)
    coarse = growth_exponent_probe(ev, 1.5, [10.0, 20.0], re_samples=17)
    fine = growth_exponent_probe(ev, 1.5, [10.0, 20.0], re_samples=33)
    # 33-point grid contains the 17-point grid
    assert all(f >= c for f, c in zip(fine.max_log_abs, coarse.max_log_abs))


def test_zero_csv_export(tmp_path):
    from juliazeta.zeros import export_zeros
    ev = ModelEvaluator(2.0, 4.0, 0)
    records = scan_region(ev, Rectangle(-1.0, 1.0, -5.0, 5.0))
    path = tmp_path / "zeros.csv"
    export_zeros(str(path), records)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "re_s,im_s,multiplicity,residual"
    assert len(lines) == len(records) + 1


def test_leading_real_zero_no_sign_change(cat12):
    ev = CycleEvaluator(cat12)
    with pytest.raises(NoZeroError):
        leading_real_zero(ev, (2.0, 3.0))


def test_scan_records_name_their_route():
    records = scan_region(ModelEvaluator(2.0, 4.0, 0), Rectangle(-1.0, 1.0, -20.0, 20.0))
    assert {r.method for r in records} == {"model"}


def test_conjugate_symmetry_is_read_from_the_inputs(cat12, affine24_cat):
    assert FredholmEvaluator(MapSpec(c=-6.0), level=1).conjugate_symmetric
    assert ModelEvaluator(2.0, 4.0, 0).conjugate_symmetric
    assert CycleEvaluator(cat12).conjugate_symmetric
    assert CycleEvaluator(affine24_cat).conjugate_symmetric


@pytest.mark.parametrize("c", [-6.0 + 0.3j, -5.0 - 0.7j])
def test_complex_c_cycle_route_is_exactly_conjugate_symmetric(c):
    # the lengths log |Lambda| and the denominators are real for complex c
    # too, so Z(conj s) is conj Z(s) to the bit on every path
    ev = CycleEvaluator(build_orbit_catalog(MapSpec(c=c, mode=Mode.COMPLEX_2D), 8))
    assert ev.conjugate_symmetric
    rng = np.random.default_rng(3)
    ss = ev.min_re + rng.uniform(0.05, 3.0, 150) + 1j * rng.uniform(-10.0, 10.0, 150)
    assert list(ev.batch(ss.conjugate())) == [v.conjugate() for v in ev.batch(ss)]
    for s in ss:
        s = complex(s)
        assert ev(s.conjugate()) == ev(s).conjugate()
        a, b = ev.zeta_value(s), ev.zeta_value(s.conjugate())
        assert (b.value, b.log_value, b.tail_bound) == \
            (a.value.conjugate(), a.log_value.conjugate(), a.tail_bound)


def test_complex_c_cycle_scan_is_mirrored(monkeypatch):
    # a rectangle symmetric about the axis: the evaluator sees no point
    # below it, and every lower value is the exact conjugate of its mirror
    ev = CycleEvaluator(build_orbit_catalog(MapSpec(c=-6.0 + 0.3j, mode=Mode.COMPLEX_2D), 8))
    seen, batch = [], CycleEvaluator.batch
    monkeypatch.setattr(CycleEvaluator, "batch",
                        lambda self, ss: seen.extend(ss) or batch(self, ss))
    caches, init = [], _CachedEvaluator.__init__
    monkeypatch.setattr(_CachedEvaluator, "__init__",
                        lambda self, f: caches.append(self) or init(self, f))
    x = ev.min_re
    assert scan_region(ev, Rectangle(x + 0.2, x + 2.0, -5.0, 5.0)) == []
    assert seen and min(s.imag for s in seen) >= 0.0
    lower = [s for s in caches[0].cache if s.imag < 0.0]
    assert lower
    assert all(caches[0].cache[s] == caches[0].cache[s.conjugate()].conjugate()
               for s in lower)


# Work-count pins.  Each scan uses a fresh c = -6, level 2 evaluator and
# counts its determinants (one assembled matrix each); the counts are
# exact and repeatable, so a change in evaluations per zero fails here.
# The zeros with |Im s| <= 5, to 10 digits:
CENSUS_5 = [complex(0.2745483557, -4.1873487548), complex(-0.3452427637, -3.0990632948),
            complex(-1.7602600823, -2.6437329231), complex(0.4518375002, 0.0),
            complex(-1.0358586032, 0.0), complex(-1.7602600823, 2.6437329231),
            complex(-0.3452427637, 3.0990632948), complex(0.2745483557, 4.1873487548)]


def _counted_evaluator(c, level):
    ev = FredholmEvaluator(MapSpec(c=c), level=level)
    matrix, count = ev.matrix, [0]

    def counted(s):
        count[0] += 1
        return matrix(s)

    ev.matrix = counted
    return ev, count


def test_every_determinant_assembles_one_matrix(monkeypatch):
    # the count pins below, and the benchmark's determinant count, read the
    # calls of FredholmEvaluator.matrix as determinants
    calls = {"matrix": 0, "det": 0}
    matrix, det = FredholmEvaluator.matrix, np.linalg.det

    def counted_matrix(self, s):
        calls["matrix"] += 1
        return matrix(self, s)

    def counted_det(a):
        calls["det"] += 1
        return det(a)

    monkeypatch.setattr(FredholmEvaluator, "matrix", counted_matrix)
    monkeypatch.setattr(np.linalg, "det", counted_det)
    scan_region(FredholmEvaluator(MapSpec(c=-6.0), level=2), Rectangle(-2.0, 1.4, -5.0, 5.0))
    assert calls["matrix"] == calls["det"] > 0


def _counted_scan(rect, symmetric=True):
    ev, count = _counted_evaluator(-6.0, 2)
    # a plain function has no conjugate_symmetric property
    records = scan_region(ev if symmetric else (lambda s: ev(s)), Rectangle(*rect))
    return records, count[0]


def _assert_zeros(records, want):
    # real zeros order by the sign of their rounding-level imaginary parts
    got = sorted(records, key=lambda r: (round(r.s.imag, 9), r.s.real))
    assert [r.multiplicity for r in got] == [1] * len(want)
    assert all(r.resolved for r in got)
    assert max(abs(r.s - z) for r, z in zip(got, want)) < 1e-9


def test_symmetric_scan_mirrors_the_upper_band():
    records, count = _counted_scan((-2.0, 1.4, -5.0, 5.0))
    assert count == 480   # the plain scan of this rectangle takes 1005
    _assert_zeros(records, sorted(CENSUS_5, key=lambda z: (z.imag, z.real)))
    assert {r.method for r in records} == {"fredholm"}
    upper = [r for r in records if r.s.imag > 1.0]
    lower = [r for r in records if r.s.imag < -1.0]
    assert len(upper) == len(lower) == 3
    assert sorted(lower, key=lambda r: r.s.real) == sorted(
        (replace(r, s=r.s.conjugate()) for r in upper), key=lambda r: r.s.real)


def test_scan_without_symmetry_takes_the_plain_path():
    # the lambda hides the symmetry, so the scan's cache evaluates the
    # lower band's points too
    records, count = _counted_scan((-2.0, 1.4, -5.0, 5.0), symmetric=False)
    assert count == 1005
    _assert_zeros(records, sorted(CENSUS_5, key=lambda z: (z.imag, z.real)))


def test_asymmetric_rectangle_takes_the_plain_path():
    records, count = _counted_scan((-2.0, 1.4, -4.0, 5.0))
    assert count == 694
    _assert_zeros(records, sorted(CENSUS_5[1:], key=lambda z: (z.imag, z.real)))


class _Polynomial:
    """prod (s - z_k) / prod (s - p_j); conjugate-symmetric when the
    roots and poles are conjugate-closed, as the scans here use it."""

    conjugate_symmetric = True

    def __init__(self, roots, poles=()):
        self.roots, self.poles = roots, poles

    def __call__(self, s):
        out = 1.0 + 0.0j
        for z in self.roots:
            out *= complex(s) - z
        for p in self.poles:
            out /= complex(s) - p
        return out


def _polynomial_scan(monkeypatch, roots):
    """Scan [-1, 1] x [-10, 10]; also returns how many records were made
    by mirroring."""
    mirrored, made = juliazeta.zeros._mirrored, []
    monkeypatch.setattr(juliazeta.zeros, "_mirrored",
                        lambda rec: made.append(rec) or mirrored(rec))
    records = scan_region(_Polynomial(roots), Rectangle(-1.0, 1.0, -10.0, 10.0))
    want = sorted(roots, key=lambda z: (z.imag, z.real))
    assert [r.multiplicity for r in records] == [1] * len(want)
    assert max(abs(r.s - z) for r, z in zip(records, want)) < 1e-9
    return records, len(made)


def test_mirrored_scan_falls_back_when_every_strip_edge_grazes_a_zero(monkeypatch):
    # zeros on Im s = +-eta for each strip half-height eta = 0.25, 0.5, 0.65
    roots = [complex(0.1, 0.25), complex(0.2, 0.5), complex(0.3, 0.65),
             complex(0.4, 0.0), complex(0.5, 3.0)]
    roots += [z.conjugate() for z in roots if z.imag]
    _records, mirrored = _polynomial_scan(monkeypatch, roots)
    assert mirrored == 0


def test_mirrored_outer_winding_serves_the_band_and_the_strip_sides(monkeypatch):
    # the outer contour runs through the first strip's corners, so the
    # upper band's winding finds every node cached, and the strip's
    # evaluates its line Im s = eta only (its lower line is the mirror)
    recorded = _Symmetric(_Polynomial([complex(0.4, 0.0), complex(0.5, 3.0),
                                       complex(0.5, -3.0)]))
    winding, paid = juliazeta.zeros.winding_number, []

    def counted(ev, rect, **kw):
        n = len(recorded.points)
        w = winding(ev, rect, **kw)
        paid.append((rect, recorded.points[n:]))
        return w

    monkeypatch.setattr(juliazeta.zeros, "winding_number", counted)
    assert len(scan_region(recorded, Rectangle(-1.0, 1.0, -10.0, 10.0))) == 3
    eta = 0.025 * 10.0
    (strip, on_strip), (band, on_band) = paid[:2]
    assert (strip, band) == (Rectangle(-1.0, 1.0, -eta, eta), Rectangle(-1.0, 1.0, eta, 10.0))
    assert on_band == []
    assert on_strip and all(s.imag == eta and -1.0 < s.real < 1.0 for s in on_strip)


def test_mirrored_scan_of_a_polynomial(monkeypatch):
    roots = [complex(0.4, 0.0), complex(-0.3, 0.05), complex(-0.3, -0.05),
             complex(0.5, 3.0), complex(0.5, -3.0), complex(-0.2, 7.5), complex(-0.2, -7.5)]
    records, mirrored = _polynomial_scan(monkeypatch, roots)
    assert mirrored > 0
    assert records[0].s == records[-1].s.conjugate()
    assert records[1].s == records[-2].s.conjugate()


# Moment seed.  A cell that winds once knows its zero from the boundary
# values its winding evaluated.

def _wound_cell(f, cell):
    recorded = _Recorded(f)
    ev = _CachedEvaluator(recorded)
    assert winding_number(ev, cell) == 1
    return ev, recorded


def test_moment_seed_is_near_the_zero_and_costs_nothing():
    roots = [complex(0.37, 0.21), complex(-0.6, 0.0), complex(0.1, 1.3)]
    roots += [z.conjugate() for z in roots if z.imag]
    for cell, root in [(Rectangle(0.0, 0.8, 0.05, 0.5), roots[0]),
                       (Rectangle(-1.0, 0.0, -0.4, 0.35), roots[1]),
                       (Rectangle(-0.3, 0.5, 0.9, 1.45), roots[2])]:
        ev, recorded = _wound_cell(_Polynomial(roots), cell)
        n = len(recorded.points)
        [seed] = _moment_seeds(ev, cell, 1)
        assert len(recorded.points) == n
        assert seed != cell.center
        assert abs(seed - root) <= 0.02 * cell.diag
    # a child of a 0.5 split reads the coarser leaves its parent's edges left
    parent = Rectangle(-1.0, 1.0, 0.05, 1.05)
    ev, recorded = _wound_cell(_Polynomial(roots), parent)
    cell = parent.split()[1]
    assert winding_number(ev, cell) == 1
    n = len(recorded.points)
    [seed] = _moment_seeds(ev, cell, 1)
    assert len(recorded.points) == n
    assert abs(seed - roots[0]) <= 0.02 * cell.diag


def test_moment_seed_outside_the_cell_falls_back_to_the_centre():
    # two zeros and one pole in the cell: the winding is 1, but the
    # moment ratio is z1 + z2 - p = 1.2 + 1.2i, outside the cell
    cell = Rectangle(-1.0, 1.0, -1.0, 1.0)
    ev, _ = _wound_cell(_Polynomial([0.6, 0.6j], poles=[-0.6 - 0.6j]), cell)
    assert _moment_seeds(ev, cell, 1) == [cell.center]
    # a corner that was never evaluated gives the centre as well
    assert _moment_seeds(_CachedEvaluator(_Polynomial([0.1])), cell, 1) == [cell.center]


def test_iterate_converging_outside_its_cell_is_rejected(monkeypatch):
    # every seed mutated to 0.7, from where Newton reaches the zero at 0.9:
    # no cell about the zero at 0.3 may accept it, so the scan splits down
    # to its smallest cell and reports 0.3 unresolved
    monkeypatch.setattr(juliazeta.zeros, "_moment_seeds", lambda ev, cell, w: [complex(0.7)] * w)
    with pytest.warns(ClusterWarning):
        records = scan_region(_Polynomial([0.3, 0.9]), Rectangle(0.0, 0.6, -0.3, 0.3))
    assert [r.resolved for r in records] == [False]
    assert abs(records[0].s - 0.3) < 1e-7


# Cell certificate.  A cell's verified winding of 1 certifies its zero;
# the residual check against |Z'| r_loc is what rejects a Newton limit
# that is not a zero.

@pytest.mark.parametrize("offset, kept", [(0.05, False), (2e-8 * 0.05, False),
                                           (0.5e-8 * 0.05, True)])
def test_cell_certificate_rejects_a_point_that_is_not_a_zero(monkeypatch, offset, kept):
    # the first Newton run is mutated to return its limit, the zero 0.3,
    # moved by i * offset, inside its cell.  |Z'| is 0.6 there, so the
    # residual is 0.6 offset against the bound 1e-8 * 0.6 * r_loc, with
    # r_loc = 0.05: only a point within the bound is kept.  Otherwise the
    # cell is split, and the zero found in the child that holds it.  A
    # plain function hides the symmetry: no strip, no axis solve, and the
    # first cell is the whole rectangle
    newton, limits = juliazeta.zeros._newton, []

    def mutated(ev, seed, max_step):
        s, dz = newton(ev, seed, max_step)
        limits.append(s)
        return (s + 1j * offset if len(limits) == 1 else s), dz

    monkeypatch.setattr(juliazeta.zeros, "_newton", mutated)
    cell = Rectangle(0.0, 0.6, -0.2, 0.3)
    records = scan_region(lambda s: _Polynomial([0.3, 0.9])(s), cell)
    assert abs(limits[0] - 0.3) < 1e-12 and cell.contains(limits[0] + 1j * offset)
    assert [(r.multiplicity, r.resolved) for r in records] == [(1, True)]
    if kept:
        assert len(limits) == 1 and records[0].s == limits[0] + 1j * offset
    else:
        assert len(limits) > 1 and abs(records[0].s - 0.3) < 1e-12


def test_cell_certificate_scale_is_the_circle_median(monkeypatch):
    # |dz| r_loc, the local scale of a scan's residual check, is within 1%
    # of the median |Z| on 24 equally spaced nodes of the circle of radius
    # r_loc about the zero, for every record of the mirrored [-2, 1.4] x
    # [-5, 5] scan
    newton, limits = juliazeta.zeros._newton, []

    def recorded(ev, seed, max_step):
        limits.append(newton(ev, seed, max_step))
        return limits[-1]

    monkeypatch.setattr(juliazeta.zeros, "_newton", recorded)
    ev = FredholmEvaluator(MapSpec(c=-6.0), level=2)
    records = scan_region(ev, Rectangle(-2.0, 1.4, -5.0, 5.0))
    assert len(records) == 8
    for rec in records:
        s = rec.s if rec.s.imag >= 0.0 else rec.s.conjugate()
        limit, dz = min(limits, key=lambda t: abs(t[0] - s))
        assert abs(limit - s) <= 1e-8
        r_loc = juliazeta.zeros._r_loc(s)
        median = float(np.median([abs(ev(s + r_loc * cmath.exp(2j * math.pi * k / 24)))
                                  for k in range(24)]))
        assert abs(abs(dz) * r_loc / median - 1.0) <= 0.01


# Moment seeds for a cell that winds 2 to 5 times.  Its moments mu_k of
# 1/Z, k < 2w, seed Newton to each of its zeros; a plain function hides
# the symmetry, so the first cell is the whole square.

_SQUARE = Rectangle(-1.0, 1.0, -1.0, 1.0)


def _counted_windings(monkeypatch):
    winding, cells = juliazeta.zeros.winding_number, []

    def counted(ev, rect, **kw):
        cells.append(rect)
        return winding(ev, rect, **kw)

    monkeypatch.setattr(juliazeta.zeros, "winding_number", counted)
    return cells


def _assert_simple(records, roots, tol):
    assert [(r.multiplicity, r.resolved) for r in records] == [(1, True)] * len(roots)
    assert all(min(abs(r.s - z) for r in records) <= tol for z in roots)


@pytest.mark.parametrize("roots", [[0.1 + 0.2j, -0.5 + 0.3j],
                                   [0.5, -0.4 + 0.3j, 0.2 - 0.6j],
                                   [0.5, -0.4 + 0.3j, 0.2 - 0.6j, -0.6 - 0.2j, 0.1 + 0.7j]])
def test_a_cell_resolves_its_zeros_in_one_winding(monkeypatch, roots):
    cells = _counted_windings(monkeypatch)
    records = scan_region(lambda s: _Polynomial(roots)(s), _SQUARE)
    assert cells == [_SQUARE]
    _assert_simple(records, roots, 1e-12)


def test_a_pair_1e6_apart_is_resolved_from_the_moments():
    # quadrisection alone took 2,738 evaluations to part the pair
    roots = [0.1 + 0.2j, 0.100001 + 0.2j]
    recorded = _Recorded(_Polynomial(roots))
    records = scan_region(recorded, _SQUARE)
    _assert_simple(records, roots, 1e-12)
    assert len(recorded.points) <= 250


@pytest.mark.parametrize("multiplicity", [2, 3])
def test_a_multiple_zero_stays_one_unresolved_record(multiplicity):
    # every cell about the zero winds 2 or 3 times, and its seeds reach
    # one zero twice.  After a cell's Newton runs fail, its children of
    # the same winding run none: quadrisection alone took 3,629
    # evaluations down to the smallest cell, and the triple zero 8,330
    # when each of them ran Newton again
    recorded = _Recorded(_Polynomial([0.1 + 0.2j] * multiplicity))
    with pytest.warns(ClusterWarning):
        records = scan_region(recorded, _SQUARE)
    assert [(r.multiplicity, r.resolved) for r in records] == [(multiplicity, False)]
    assert abs(records[0].s - (0.1 + 0.2j)) < 1e-7
    assert len(recorded.points) <= 1.06 * 3629


def test_a_repeated_limit_sends_the_cell_on_to_quadrisection(monkeypatch):
    # the second Newton run is mutated to return the first one's limit:
    # the cell may not keep it, so it is split, and each child finds its
    # own zero
    roots = [0.1 + 0.2j, -0.5 + 0.3j]
    newton, limits = juliazeta.zeros._newton, []

    def repeated(ev, seed, max_step):
        s, dz = newton(ev, seed, max_step)
        limits.append(s)
        return (limits[0] if len(limits) == 2 else s), dz

    monkeypatch.setattr(juliazeta.zeros, "_newton", repeated)
    cells = _counted_windings(monkeypatch)
    records = scan_region(lambda s: _Polynomial(roots)(s), _SQUARE)
    assert len(cells) > 1
    _assert_simple(records, roots, 1e-12)


def test_newton_pays_one_evaluation_per_step():
    # the seed and its forward-difference neighbour, then one point per
    # step, the step's iterate: each later slope is a secant
    roots = [0.3 + 0.2j, -0.5, 0.7 - 0.4j]
    recorded = _Recorded(_Polynomial(roots))
    seed = 0.38 + 0.27j
    s, dz = juliazeta.zeros._newton(recorded, seed, math.inf)
    assert abs(s - roots[0]) <= 1e-12
    assert abs(dz - (roots[0] - roots[1]) * (roots[0] - roots[2])) <= 1e-6
    points = recorded.points
    assert points[:2] == [seed, seed + 1e-7 * (1.0 + abs(seed))]
    errors = [abs(p - roots[0]) for p in points[:1] + points[2:]]
    assert len(errors) >= 5
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_moment_seeds_of_a_cell_that_winds_twice(monkeypatch):
    roots = [0.1 + 0.2j, -0.5 + 0.3j]
    recorded = _Recorded(_Polynomial(roots))
    ev = _CachedEvaluator(recorded)
    assert winding_number(ev, _SQUARE) == 2
    n = len(recorded.points)
    seeds = _moment_seeds(ev, _SQUARE, 2)
    assert len(recorded.points) == n
    assert all(min(abs(s - z) for s in seeds) <= 0.02 * _SQUARE.diag for z in roots)
    # a seed outside the cell gives none at all
    monkeypatch.setattr(juliazeta.zeros, "_roots", lambda coef: [0.0, 2.0])
    assert _moment_seeds(ev, _SQUARE, 2) == []


def test_hankel_solve_refuses_a_small_pivot():
    # partial pivoting takes the second row first
    x = juliazeta.zeros._solve([[1e-3, 2.0], [1.0, 1.0]], [4.0, 3.0])
    assert max(abs(a - b) for a, b in zip(x, [2.0 / 1.999, 3.0 - 2.0 / 1.999])) < 1e-15
    assert juliazeta.zeros._solve([[1.0, 1.0], [1.0, 1.0 + 1e-11]], [1.0, 2.0]) is None
    assert juliazeta.zeros._solve([[1.0, 1.0], [1.0, 1.0 + 1e-9]], [1.0, 2.0]) is not None


def test_durand_kerner_roots():
    roots = [0.3, -0.2j, 0.5 - 0.1j]
    coef = [complex(c) for c in np.poly(roots)[:0:-1]]   # monic, lowest first
    found = juliazeta.zeros._roots(coef)
    assert all(min(abs(r - z) for r in found) <= 1e-14 for z in roots)


def test_axis_zeros_are_solved_on_the_axis():
    roots = [complex(0.4, 0.0), complex(-0.3, 0.0), complex(0.5, 3.0), complex(0.5, -3.0)]
    records = scan_region(_Polynomial(roots), Rectangle(-1.0, 1.0, -10.0, 10.0))
    # the real zeros are exactly real and run in decreasing Re
    assert [r.s.imag for r in records[1:3]] == [0.0, 0.0]
    assert max(abs(r.s - z) for r, z in zip(records, [0.5 - 3j, 0.4, -0.3, 0.5 + 3j])) < 1e-12
    # without conjugate symmetry the same scan gives no exactly real zero
    records = scan_region(lambda s: _Polynomial(roots)(s), Rectangle(-1.0, 1.0, -10.0, 10.0))
    assert all(r.s.imag != 0.0 for r in records)


@pytest.mark.parametrize("symmetric", [True, False], ids=["mirrored", "plain"])
@pytest.mark.parametrize("roots", [[0.3] * 2, [0.37] * 3], ids=["double", "triple"])
def test_a_real_multiple_zero_is_not_reported_twice(roots, symmetric):
    # the first split of the square, or of the mirrored scan's strip, runs
    # along the axis and through the zero, so each half winds and reaches
    # the zero.  The scan may raise, or report each zero once, with the
    # multiplicities summing to the winding; the plain path once returned
    # (s - 0.3)^2 as two records of multiplicity 2
    f = _Polynomial(roots)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ClusterWarning)
            records = scan_region(f if symmetric else (lambda s: f(s)), _SQUARE)
    except CompletenessError:
        return
    assert sum(r.multiplicity for r in records) == len(roots)
    resolved = [r.s for r in records if r.resolved]
    assert all(abs(a - b) > 1e-8 * (1.0 + abs(a))
               for i, a in enumerate(resolved) for b in resolved[i + 1:])


def test_census_work_count():
    # the benchmark census: 40 zeros in [-2, 1.4] x [-20, 20]
    records, count = _counted_scan((-2.0, 1.4, -20.0, 20.0))
    assert count == 1257
    assert len(records) == 40
    assert all(r.resolved and r.multiplicity == 1 for r in records)
    # the axis zeros are exactly real and run in decreasing Re, delta first
    axis = [r.s for r in records if abs(r.s.imag) <= 1.0]
    assert [s.imag for s in axis] == [0.0, 0.0]
    assert axis[0].real > axis[1].real
    assert abs(axis[0].real - 0.45183750018171) <= 1e-10
    upper = sorted((r.s for r in records if r.s.imag > 1.0), key=lambda z: z.real)
    lower = sorted((r.s.conjugate() for r in records if r.s.imag < -1.0), key=lambda z: z.real)
    assert len(upper) == 19 and upper == lower


def test_acceptance_census_work_count():
    # the acceptance ledger's census: 98 simple zeros in [-2, 1.4] x [-40, 40]
    records, count = _counted_scan((-2.0, 1.4, -40.0, 40.0))
    assert count == 5053
    assert len(records) == 98
    assert all(r.resolved and r.multiplicity == 1 for r in records)


# the records of the mirrored [-2, 1.4] x [-5, 5] scan: Newton runs from
# each cell's moment seed, and the two axis zeros are solved on the axis
EXACT_5 = [(0.2745483556634171, -4.18734875483785, 1.5611390069062839e-15),
           (-0.3452427637177002, -3.0990632948343615, 1.5815980098799644e-14),
           (-1.7602600823137033, -2.64373292309001, 9.620329920839307e-09),
           (0.4518375001817091, 0.0, 1.2425257540084052e-16),
           (-1.0358586031978456, 0.0, 3.9144934683197865e-12),
           (-1.7602600823137033, 2.64373292309001, 9.620329920839307e-09),
           (-0.3452427637177002, 3.0990632948343615, 1.5815980098799644e-14),
           (0.2745483556634171, 4.18734875483785, 1.5611390069062839e-15)]


def test_mirrored_scan_records_are_exact():
    records, _ = _counted_scan((-2.0, 1.4, -5.0, 5.0))
    assert records == [ZeroRecord(s=complex(re, im), multiplicity=1, residual=res,
                                  method="fredholm") for re, im, res in EXACT_5]


# The axis rows of the mirrored [-2, 1.4] x [-5, 5] scan, as (Re, Im) in
# row order, printed by a child process so that OpenBLAS can be given
# another kernel
_AXIS_ROWS = """
from juliazeta.dynamics import MapSpec
from juliazeta.zeros import Rectangle, scan_region
from juliazeta.zeta import FredholmEvaluator
records = scan_region(FredholmEvaluator(MapSpec(c=-6.0), level=2),
                      Rectangle(-2.0, 1.4, -5.0, 5.0))
print(repr([(r.s.real, r.s.imag) for r in records if abs(r.s.imag) <= 1.0]))
"""


def _openblas() -> bool:
    import numpy as np
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:
        return False
    return "openblas" in name.lower()


def _axis_rows(coretype):
    import ast
    import os
    import subprocess
    import sys

    import juliazeta
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(juliazeta.__file__)))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    out = subprocess.run([sys.executable, "-c", _AXIS_ROWS], env=env, check=True,
                         capture_output=True, text=True).stdout
    return ast.literal_eval(out)


@pytest.mark.skipif(not _openblas(), reason="numpy is not OpenBLAS-backed")
def test_axis_rows_hold_on_other_blas_kernels():
    default = _axis_rows(None)
    assert [im for _, im in default] == [0.0, 0.0]
    assert default[0][0] > default[1][0]
    for coretype in ("SandyBridge", "Prescott"):
        rows = _axis_rows(coretype)
        # the same exactly real rows in the same order, and delta to the bit
        assert [im for _, im in rows] == [0.0, 0.0]
        assert rows[0] == default[0]
        # Re Z changes sign in rounding noise some 1e-13 wide about
        # -1.0359 (|Z'| is 24 there, the noise 5e-12), and the noise moves
        # with the kernel, so that zero's last bits move too
        assert abs(rows[1][0] - default[1][0]) <= 1e-12


# Edge-phase memo.  A counting evaluator with no `batch` records every
# point at which Z is evaluated.

class _Recorded:
    def __init__(self, f):
        self.f, self.points = f, []

    def __call__(self, s):
        self.points.append(complex(s))
        return self.f(s)


def _recorded_cache():
    recorded = _Recorded(ModelEvaluator(2.0, 4.0, 2))
    return _CachedEvaluator(recorded), recorded


def _on_segment(s, a, b):
    """s lies on the axis-parallel segment [a, b]."""
    if a.real == b.real:
        return s.real == a.real and min(a.imag, b.imag) <= s.imag <= max(a.imag, b.imag)
    return s.imag == a.imag and min(a.real, b.real) <= s.real <= max(a.real, b.real)


def _edges(rect):
    c = rect.corners()
    return list(zip(c, c[1:] + c[:1]))


def test_reversed_edge_is_the_exact_negation_at_no_cost():
    ev, recorded = _recorded_cache()
    p, q = complex(-1.0, 2.7), complex(0.9, 2.7)
    forward = _edge_phase(ev, p, q, 0.5, 4, 3.0)
    n = len(recorded.points)
    assert n >= 17
    assert _edge_phase(ev, q, p, 0.5, 4, 3.0) == -forward
    assert len(recorded.points) == n


def test_half_split_children_reuse_and_share_edges():
    ev, recorded = _recorded_cache()
    rect = Rectangle(-1.2, 0.9, -3.1, 4.4)
    w = winding_number(ev, rect)
    total, known, paid = 0, _edges(rect), []
    for child in rect.split():
        n = len(recorded.points)
        total += winding_number(ev, child)
        new = recorded.points[n:]
        paid.append(len(new))
        # outer edges are sub-edges the parent verified, and an edge shared
        # with an earlier sibling was verified by that sibling
        assert not [s for s in new for a, b in known if _on_segment(s, a, b)]
        known += _edges(child)
    assert total == w
    assert paid[0] > 0


def test_half_step_resampling_evaluates_new_nodes():
    ev, recorded = _recorded_cache()
    rect = Rectangle(-1.0, 1.0, -10.0, 10.0)
    w = winding_number(ev, rect, boundary_step=0.5)
    n = len(recorded.points)
    assert winding_number(ev, rect, boundary_step=0.5) == w
    assert len(recorded.points) == n
    # the 20-long edges go from 64 to 128 segments: 64 new nodes each
    assert winding_number(ev, rect, boundary_step=0.25) == w
    assert len(recorded.points) - n >= 128


def test_refine_outside_region_skips_the_certificate():
    # Newton from 0.3 converges to the zero at GOLDEN, outside the region
    recorded = _Recorded(ModelEvaluator(2.0, 4.0, 0))
    rec = refine_zero(recorded, 0.3, max_step=0.5)
    assert rec.s == pytest.approx(GOLDEN, abs=1e-12)
    certified = len(recorded.points)
    recorded.points.clear()
    with pytest.raises(NoZeroError):
        refine_zero(recorded, 0.3, max_step=0.5, region=Rectangle(0.0, 0.6, -0.3, 0.3))
    # the certificate, the winding of the square of half-side 0.05 about
    # the zero, evaluates at least its 64 edge nodes
    assert certified - len(recorded.points) >= 64
    assert all(abs(max(abs((s - rec.s).real), abs((s - rec.s).imag)) - 0.05) > 0.01
               for s in recorded.points)


# Leading real zero.  delta at the benchmark's seven dimension c values,
# level 3, as found by 60 bisection steps and a Newton polish (the real
# parts of the zeros returned).
DELTA_L3 = {-3.0: 0.6245701073534808, -4.0: 0.5345773893082982,
            -5.0: 0.4847982944381581, -6.0: 0.45183750018171154,
            -8.0: 0.409372281255818, -12.0: 0.3628771480937594,
            -20.0: 0.31850809575800487}


def test_leading_real_zero_work_count():
    ev, count = _counted_evaluator(-6.0, 3)
    rec = leading_real_zero(ev, (0.05, 0.95))
    # 36 grid points from the right down to delta and 6 regula falsi
    # steps: 42.  The sign change is the certificate, so nothing more is
    # evaluated.  The last step reads a sign at the rounding level of Z,
    # which moves with the BLAS kernel, so the pin keeps a margin of 2
    assert count[0] <= 44
    assert rec.s.imag == 0.0
    assert abs(rec.s.real - 0.45183750018171) <= 1e-10


def test_leading_real_zero_matches_the_bisection_values():
    counts = {}
    for c, delta in DELTA_L3.items():
        ev, count = _counted_evaluator(c, 3)
        rec = leading_real_zero(ev, (0.05, 0.95))
        assert abs(rec.s.real - delta) <= 1e-15
        assert rec.s.imag == 0.0
        assert rec.multiplicity == 1 and rec.method == "fredholm"
        assert rec.residual <= 1e-13
        counts[c] = count[0]
    # the bisection solver took 1,137 determinants; these solves take 300.
    # The last regula falsi steps read signs at the rounding level of Z,
    # which moves with the BLAS kernel: 302 were seen under OpenBLAS's
    # SandyBridge and Prescott kernels
    assert sum(counts.values()) <= 314


class _RaisesLeftOf:
    """Z that cannot be evaluated left of Re s = edge."""

    conjugate_symmetric = True

    def __init__(self, ev, edge):
        self.ev, self.edge = ev, edge
        self.method = ev.method

    def __call__(self, s):
        if complex(s).real < self.edge:
            raise ValueError(f"Z is not available at {s}")
        return self.ev(s)


def test_leading_real_zero_evaluates_nothing_left_of_its_bracket(fredholm6, delta6):
    # the grid cell that holds delta, 0.9 / 63 wide, is the leftmost
    # interval evaluated
    rec = leading_real_zero(_RaisesLeftOf(fredholm6, delta6 - 0.015), (0.05, 0.95))
    assert rec.s.real == delta6
    assert rec.multiplicity == 1


class _Symmetric(_Recorded):
    conjugate_symmetric = True


def test_leading_real_zero_evaluates_each_point_once(fredholm6, delta6):
    # the grid and the regula falsi share one cache, and nothing below the
    # axis is evaluated
    recorded = _Symmetric(fredholm6)
    assert leading_real_zero(recorded, (0.05, 0.95)).s.real == delta6
    assert len(recorded.points) == len(set(recorded.points))
    assert min(s.imag for s in recorded.points) >= 0.0


@pytest.mark.parametrize("f, a, b, most", [
    # regula falsi without the Illinois halving keeps one end: it takes
    # 22 steps on each of the first two, 27 and 24 on the next two
    (lambda x: x ** 3 - 2.0, 1.0, 2.0, 10),
    (lambda x: 2.0 - (-x) ** 3, -2.0, -1.0, 10),
    (lambda x: math.exp(x) - 3.0, 0.0, 4.0, 20),
    (lambda x: math.log(x) - 1.0, 0.5, 10.0, 14),
    # a flat root and a steep one lean on the midpoint safeguard
    (lambda x: (x - 0.3) ** 9, 0.0, 1.0, 200),
    (lambda x: math.atan(1e6 * (x - 0.7)), 0.0, 1.0, 30),
])
def test_sign_change_closes_to_adjacent_floats(f, a, b, most):
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    x = _sign_change(counted, a, b, f(a), f(b))
    assert a <= x <= b and len(calls) <= most
    if f(x) != 0.0:
        # a neighbouring float on one side has the opposite sign
        lo, hi = math.nextafter(x, -math.inf), math.nextafter(x, math.inf)
        assert f(lo) * f(x) <= 0.0 or f(hi) * f(x) <= 0.0
