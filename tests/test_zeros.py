import math
from dataclasses import replace

import pytest

from juliazeta.dynamics import MapSpec, Mode, build_orbit_catalog
from juliazeta.errors import NoZeroError
from juliazeta.zeros import (LogFamily, PolyFamily, Rectangle, StripFamily,
                             counting_report, growth_exponent_probe,
                             leading_real_zero, refine_zero, scan_region,
                             winding_number)
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
    complex_c = build_orbit_catalog(MapSpec(c=-6.0 + 0.3j, mode=Mode.COMPLEX_2D), 4)
    assert not CycleEvaluator(complex_c).conjugate_symmetric


# Work-count pins.  Each scan uses a fresh c = -6, level 2 evaluator and
# counts its determinants (one assembled matrix each); the counts are
# exact and repeatable, so a change in evaluations per zero fails here.
# The zeros with |Im s| <= 5, to 10 digits:
CENSUS_5 = [complex(0.2745483557, -4.1873487548), complex(-0.3452427637, -3.0990632948),
            complex(-1.7602600823, -2.6437329231), complex(0.4518375002, 0.0),
            complex(-1.0358586032, 0.0), complex(-1.7602600823, 2.6437329231),
            complex(-0.3452427637, 3.0990632948), complex(0.2745483557, 4.1873487548)]


def _counted_scan(rect, symmetric=True):
    ev = FredholmEvaluator(MapSpec(c=-6.0), level=2)
    matrix, count = ev.matrix, [0]

    def counted(s):
        count[0] += 1
        return matrix(s)

    ev.matrix = counted
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
    assert count == 1985   # the plain scan of this rectangle takes 5241
    _assert_zeros(records, sorted(CENSUS_5, key=lambda z: (z.imag, z.real)))
    assert {r.method for r in records} == {"fredholm"}
    upper = [r for r in records if r.s.imag > 1.0]
    lower = [r for r in records if r.s.imag < -1.0]
    assert len(upper) == len(lower) == 3
    assert sorted(lower, key=lambda r: r.s.real) == sorted(
        (replace(r, s=r.s.conjugate()) for r in upper), key=lambda r: r.s.real)


def test_scan_without_symmetry_takes_the_plain_path():
    records, count = _counted_scan((-2.0, 1.4, -5.0, 5.0), symmetric=False)
    assert count == 5241
    _assert_zeros(records, sorted(CENSUS_5, key=lambda z: (z.imag, z.real)))


def test_asymmetric_rectangle_takes_the_plain_path():
    records, count = _counted_scan((-2.0, 1.4, -4.0, 5.0))
    assert count == 4129
    _assert_zeros(records, sorted(CENSUS_5[1:], key=lambda z: (z.imag, z.real)))


class _Polynomial:
    """prod (s - z_k) over conjugate-closed roots."""

    conjugate_symmetric = True

    def __init__(self, roots):
        self.roots = roots

    def __call__(self, s):
        out = 1.0 + 0.0j
        for z in self.roots:
            out *= complex(s) - z
        return out


def _polynomial_scan(monkeypatch, roots):
    """Scan [-1, 1] x [-10, 10]; also returns how many records were made
    by mirroring."""
    import juliazeta.zeros
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


def test_mirrored_scan_of_a_polynomial(monkeypatch):
    roots = [complex(0.4, 0.0), complex(-0.3, 0.05), complex(-0.3, -0.05),
             complex(0.5, 3.0), complex(0.5, -3.0), complex(-0.2, 7.5), complex(-0.2, -7.5)]
    records, mirrored = _polynomial_scan(monkeypatch, roots)
    assert mirrored > 0
    assert records[0].s == records[-1].s.conjugate()
    assert records[1].s == records[-2].s.conjugate()
