import math

import numpy as np
import pytest

import juliazeta.cover
from juliazeta.cover import (CoverStats, DiskCover, backward_cover, box_dimension,
                             component_stats, cover_profile, fit_box_dimension)
from juliazeta.dynamics import AffinePair, MapSpec, Mode, expansion_bounds
from juliazeta.errors import HyperbolicityError, ResolutionError
from juliazeta.intervals import Interval


def test_trap_level(spec6):
    cov = backward_cover(spec6, 0)
    assert len(cov.elements) == 1
    assert cov.elements[0].lo == pytest.approx(-3.0, abs=1e-12)
    assert cov.elements[0].hi == pytest.approx(3.0, abs=1e-12)


def test_level_one_intervals(spec6):
    cov = backward_cover(spec6, 1)
    assert len(cov.elements) == 2
    assert cov.max_diameter() == pytest.approx(3.0 - math.sqrt(3.0), abs=1e-9)
    st = component_stats(cov, 1e-12)
    assert st.count == 2


def test_level_two_shrinks(spec6):
    c1 = backward_cover(spec6, 1)
    c2 = backward_cover(spec6, 2)
    assert len(c2.elements) == 4
    assert c2.max_diameter() < c1.max_diameter()


def test_nesting(spec6):
    shallow = backward_cover(spec6, 3)
    deep = backward_cover(spec6, 4)
    for e in deep.elements:
        assert any(p.lo <= e.lo and e.hi <= p.hi for p in shallow.elements)


def test_cover_contains_catalog_points(spec6, cat12):
    cov = backward_cover(spec6, 6)
    for z in [p for o in cat12.orbits for p in o.orbit]:
        assert z.imag == 0.0 and np.any((cov.lo <= z.real) & (z.real <= cov.hi))


def test_middle_thirds_exact_counts(middle_thirds):
    for n in (2, 6, 10, 12):
        cov = backward_cover(middle_thirds, n)
        st = component_stats(cov, 3.0 ** (-n) / 10.0)
        assert st.count == 2 ** n


def test_monotone_component_counts(spec6):
    cov = backward_cover(spec6, 9)
    hs = [10.0 ** (-0.25 * k) for k in range(12)]
    counts = [component_stats(cov, h).count for h in sorted(hs)]
    assert counts == sorted(counts, reverse=True)


def test_resolution_error_for_huge_h(spec6):
    cov = backward_cover(spec6, 2)
    with pytest.raises(ResolutionError):
        component_stats(cov, 10.0)


def test_fit_requires_five_scales(middle_thirds):
    stats = cover_profile(middle_thirds, [1e-2])
    with pytest.raises(ValueError):
        fit_box_dimension(stats, (1e-3, 1e-1))


def test_middle_thirds_dimension(middle_thirds):
    fit, _stats = box_dimension(middle_thirds)
    assert fit.delta_box == pytest.approx(math.log(2.0) / math.log(3.0), abs=0.02)
    assert fit.reliable


def test_diameter_law_constant_is_stable(spec6):
    # component diameter <= K h with K stable across the fitted decade
    fit, stats = box_dimension(spec6)
    ks = [d / h for h, d in zip(stats.hs, stats.maxdiams)]
    assert max(ks) <= fit.k_max + 1e-12
    mid = sum(ks) / len(ks)
    assert all(abs(k - mid) <= 0.6 * mid for k in ks)


def test_quadratic_dimension_in_unit_interval(spec6):
    fit, _ = box_dimension(spec6)
    assert 0.0 < fit.delta_box < 1.0
    assert fit.reliable


def test_disk_cover_for_complex_mode():
    from juliazeta.dynamics import Mode
    spec = MapSpec(c=-6, mode=Mode.COMPLEX_2D)
    cov = backward_cover(spec, 3)
    assert cov.kind == "disk"
    assert len(cov.elements) == 8
    st = component_stats(cov, 1e-6)
    assert st.count >= 2


def test_csv_export(tmp_path, middle_thirds):
    stats = cover_profile(middle_thirds, [1e-2, 1e-3])
    path = tmp_path / "stats.csv"
    stats.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "h,P,maxdiam"
    assert len(lines) == 3


SYSTEMS = [MapSpec(c=-6.0), MapSpec(c=-3.0), MapSpec(c=-6.0, mode=Mode.COMPLEX_2D),
           MapSpec(c=-6.0 + 0.3j, mode=Mode.COMPLEX_2D), AffinePair((2.0, 4.0))]


# Per-element reference: every cover element an Interval or Disk object,
# each image made by the scalar enclosure arithmetic, and the O(k^2)
# component counter.  The array builder and sweeps must equal it bit for bit.

def _branch(system, kind, branch, element):
    if isinstance(system, AffinePair):
        return system.branch_interval(branch, element)
    if kind == "interval":
        out = element.shift(-system.c.real).sqrt()
        return out if branch == 0 else out.neg()
    return element.sqrt_shift(system.c, branch)


def _sorted_cover(system, n):
    """Reference cover: every word's enclosure built from the trap, then
    sorted by word."""
    if isinstance(system, AffinePair) or system.mode is Mode.REAL_1D:
        trap, kind = system.trap_interval(), "interval"
    else:
        trap, kind = system.trap_disk(), "disk"
    cover = {"": trap}
    for _ in range(n):
        cover = {str(b) + w: _branch(system, kind, b, e)
                 for w, e in cover.items() for b in (0, 1)}
    words = sorted(cover)
    return tuple(words), tuple(cover[w] for w in words)


def _interval_components(elements, h):
    spans = sorted((e.lo - h, e.hi + h) for e in elements)
    comps = []
    lo, hi = spans[0]
    for a, b in spans[1:]:
        if a <= hi:
            hi = max(hi, b)
        else:
            comps.append(hi - lo)
            lo, hi = a, b
    comps.append(hi - lo)
    return comps


def _disk_components(elements, h):
    k = len(elements)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    cs = [e.center for e in elements]
    rs = [e.radius + h for e in elements]
    for i in range(k):
        for j in range(i + 1, k):
            if abs(cs[i] - cs[j]) <= rs[i] + rs[j]:
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    comps = []
    for members in groups.values():
        diam = 0.0
        for a in range(len(members)):
            i = members[a]
            diam = max(diam, 2.0 * rs[i])
            for b in range(a + 1, len(members)):
                j = members[b]
                diam = max(diam, abs(cs[i] - cs[j]) + rs[i] + rs[j])
        comps.append(diam)
    return comps


def _reference_stats(elements, h):
    if isinstance(elements[0], Interval):
        comps = _interval_components(elements, h)
    else:
        comps = _disk_components(elements, h)
    return len(comps), repr(max(comps))


def _stats(cover, h):
    st = component_stats(cover, h)
    return st.count, repr(st.maxdiam)


@pytest.mark.parametrize("system", SYSTEMS)
def test_covers_in_word_order_equal_sorted_reference(system):
    # built in word order, with no sort, from the cover one level up;
    # repr tells every float apart, -0.0 from 0.0 included
    for n in range(11):
        cover = backward_cover(system, n)
        assert cover.level == n
        words, elements = _sorted_cover(system, n)
        assert cover.words == words
        assert repr(cover.elements) == repr(elements)


@pytest.mark.parametrize("system", SYSTEMS)
def test_component_stats_equal_the_pairwise_reference(system):
    for n in range(11):
        cover = backward_cover(system, n)
        _words, elements = _sorted_cover(system, n)
        diam = cover.max_diameter()
        # from disjoint elements through partial merges to few components
        hs = [0.0, diam / 8.0, diam / 2.0, 2.0 * diam, 0.1 * cover.trap_diameter]
        for h in hs:
            if h <= 0.5 * cover.trap_diameter:
                assert _stats(cover, h) == _reference_stats(elements, h), (n, h)


def _random_cover(rng, k, kind):
    """k random elements on a dyadic grid (every sum and distance exact),
    a quarter of them moved to touch another exactly: interval ends that
    meet, disks at distance r_i + r_j along an axis or a 3-4-5 triangle."""
    unit = 2.0 ** -6
    if kind == "interval":
        lo = rng.integers(0, 40 * k, k) * unit
        hi = lo + rng.integers(0, 30, k) * unit
        for i, j in rng.integers(0, k, (k // 4, 2)):
            lo[j], hi[j] = hi[i], hi[i] + (hi[j] - lo[j])
        return DiskCover(level=0, kind=kind, trap_diameter=math.inf, lo=lo, hi=hi)
    x = rng.integers(0, 30 * k, k) * unit
    y = rng.integers(0, 30, k) * unit
    radius = rng.integers(1, 40, k) * unit
    for i, j in rng.integers(0, k, (k // 4, 2)):
        if i == j:
            continue
        if rng.random() < 0.5:
            x[j], y[j] = x[i] + radius[i] + radius[j], y[i]
        else:
            # a distance of 5 units: radii 2 and 3 units, offset (3, 4) units
            radius[i], radius[j] = 2 * unit, 3 * unit
            x[j], y[j] = x[i] + 3 * unit, y[i] - 4 * unit
    return DiskCover(level=0, kind=kind, trap_diameter=math.inf,
                     center=x + 1j * y, radius=radius)


@pytest.mark.parametrize("kind", ["interval", "disk"])
def test_sweeps_equal_the_pairwise_reference_on_random_sets(kind):
    rng = np.random.default_rng(3)
    for k in (1, 2, 7, 60, 300):
        for _ in range(4):
            cover = _random_cover(rng, k, kind)
            elements = cover.elements
            for h in (0.0, 2.0 ** -7, 2.0 ** -6, 0.3, 1.0, 7.0):
                assert _stats(cover, h) == _reference_stats(elements, h), (k, h)
    # and off the grid, where sums round
    for k in (50, 400):
        center = rng.uniform(-1.0, 1.0, k) + 1j * rng.uniform(-0.1, 0.1, k)
        radius = rng.uniform(1e-4, 1e-2, k)
        if kind == "interval":
            cover = DiskCover(level=0, kind=kind, trap_diameter=math.inf,
                              lo=center.real - radius, hi=center.real + radius)
        else:
            cover = DiskCover(level=0, kind=kind, trap_diameter=math.inf,
                              center=center, radius=radius)
        elements = cover.elements
        for h in (0.0, 1e-4, 1.7e-3, 0.01, 0.05):
            assert _stats(cover, h) == _reference_stats(elements, h), (k, h)


@pytest.mark.parametrize("spec", [MapSpec(c=c, n_cert=n)
                                  for c in (-3.0, -6.0, -20.0) for n in (1, 3)] +
                         [MapSpec(c=c, mode=Mode.COMPLEX_2D, n_cert=n)
                          for c in (-6.0, -20.0, -8.0 + 1.1j) for n in (1, 3)])
def test_expansion_bounds_equal_the_per_element_reference(spec):
    _words, elements = _sorted_cover(spec, spec.n_cert)
    if spec.mode is Mode.REAL_1D:
        # min and max of |x| over each interval, 0 where it straddles 0
        lo = min(0.0 if iv.lo <= 0.0 <= iv.hi else min(abs(iv.lo), abs(iv.hi))
                 for iv in elements)
        hi = max(max(abs(iv.lo), abs(iv.hi)) for iv in elements)
    else:
        lo = min(max(abs(d.center) - d.radius, 0.0) for d in elements)
        hi = max(abs(d.center) + d.radius for d in elements)
    bounds = expansion_bounds(spec)
    assert (repr(bounds.a), repr(bounds.b)) == (repr(2.0 * lo), repr(2.0 * hi))


@pytest.mark.parametrize("system", SYSTEMS)
def test_profile_equals_backward_cover_at_each_level(system):
    hs = [0.3 * 10.0 ** (-k / 4.0) for k in range(11)]
    stats = cover_profile(system, hs)
    rows, level = [], 0
    for h in sorted(hs, reverse=True):
        while backward_cover(system, level).max_diameter() > h / 4.0:
            level += 1
        st = component_stats(backward_cover(system, level), h)
        rows.append((h, st.count, st.maxdiam))
    hs_ref, counts, diams = zip(*sorted(rows))
    assert stats == CoverStats(hs_ref, counts, diams)
    assert level >= 8


def test_profile_checks_contraction(monkeypatch, middle_thirds):
    # images as large as the elements they come from
    monkeypatch.setattr(juliazeta.cover, "backward_images",
                        lambda system, first, second: (np.tile(first, 2), np.tile(second, 2)))
    with pytest.raises(HyperbolicityError, match="level 1"):
        cover_profile(middle_thirds, [1e-3])
    with pytest.raises(HyperbolicityError):
        backward_cover(middle_thirds, 3)


def test_square_root_domain_is_a_hyperbolicity_error():
    # c = -2 is admitted, but the trap, shifted by 2, reaches below zero
    with pytest.raises(HyperbolicityError, match="below zero"):
        backward_cover(MapSpec(c=-2.0), 1)
