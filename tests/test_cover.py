import math

import pytest

import juliazeta.cover
from juliazeta.cover import (CoverStats, backward_cover, box_dimension,
                             component_stats, cover_profile, fit_box_dimension)
from juliazeta.dynamics import AffinePair, MapSpec, Mode
from juliazeta.errors import HyperbolicityError, ResolutionError


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
    for z in cat12.all_points():
        assert cov.contains_point(z)


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


def _sorted_cover(system, n):
    """Reference cover: every word's enclosure built from the trap, then
    sorted by word."""
    trap, kind = juliazeta.cover._system_trap(system)
    cover = {"": trap}
    for _ in range(n):
        cover = {str(b) + w: juliazeta.cover._apply_branch(system, kind, b, e)
                 for w, e in cover.items() for b in (0, 1)}
    words = sorted(cover)
    return tuple(words), tuple(cover[w] for w in words)


@pytest.mark.parametrize("system", SYSTEMS)
def test_covers_in_word_order_equal_sorted_reference(system):
    # built in word order, with no sort, from the cover one level up
    for n in range(9):
        cover = backward_cover(system, n)
        assert cover.level == n
        assert (cover.words, cover.elements) == _sorted_cover(system, n)


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
    monkeypatch.setattr(juliazeta.cover, "_apply_branch",
                        lambda system, kind, branch, element: element)
    with pytest.raises(HyperbolicityError, match="level 1"):
        cover_profile(middle_thirds, [1e-3])
    with pytest.raises(HyperbolicityError):
        backward_cover(middle_thirds, 3)
