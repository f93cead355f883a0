import cmath
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import juliazeta.dynamics as dynamics
from juliazeta.dynamics import (AffinePair, MapSpec, Mode,
                                build_orbit_catalog, expansion_bounds,
                                load_catalog, save_catalog)
from juliazeta.errors import (BranchPointError, ConvergenceError, DegeneracyError,
                              HyperbolicityError)
from juliazeta.intervals import Disk
from juliazeta.words import Word, aperiodic_necklace_count, enumerate_words, lyndon_words


def test_inverse_branch_fixed_points():
    # the period-1 points are the fixed points of the two inverse branches
    cat = build_orbit_catalog(MapSpec(c=-6), 1)
    assert {o.word.letters: o.z for o in cat.orbits} == \
        {"0": pytest.approx(3.0), "1": pytest.approx(-2.0)}
    img = Disk(4.0 + 0.0j, 1e-9).sqrt_shift(0.0, 0)
    assert img.center == pytest.approx(2.0)


def test_inverse_branch_errors():
    spec = MapSpec(c=-6)
    with pytest.raises(BranchPointError):
        Disk(complex(spec.c), 1e-9).sqrt_shift(spec.c, 0)
    # a Real1D interval below c leaves the square root's domain
    with pytest.raises(HyperbolicityError, match="below zero"):
        dynamics.backward_images(spec, np.array([-7.0]), np.array([-5.0]))


def test_branch_zero_sign_convention():
    spec = MapSpec(c=-6 + 1j, mode=Mode.COMPLEX_2D)
    for z in (1.0, -1.0 + 2.0j, 2.5j):
        w = Disk(complex(z), 1e-9).sqrt_shift(spec.c, 0).center
        assert w.real > 0.0 or (w.real == 0.0 and w.imag >= 0.0)
        assert Disk(complex(z), 1e-9).sqrt_shift(spec.c, 1).center == -w
        assert abs(w * w + spec.c - z) < 1e-12


def test_locate_closed_forms():
    p0, p1, p01 = build_orbit_catalog(MapSpec(c=-6), 2).orbits
    assert [p.word.letters for p in (p0, p1, p01)] == ["0", "1", "01"]
    assert p0.z == pytest.approx(3.0, abs=1e-12)
    assert p0.multiplier == pytest.approx(6.0, abs=1e-12)
    assert p1.z == pytest.approx(-2.0, abs=1e-12)
    assert p1.multiplier == pytest.approx(-4.0, abs=1e-12)
    assert p01.z.real == pytest.approx((-1.0 + math.sqrt(21.0)) / 2.0, abs=1e-12)
    assert p01.multiplier == pytest.approx(-20.0, abs=1e-10)
    assert p01.length == math.log(abs(p01.multiplier))


def test_expansion_bounds_closed_forms():
    b6 = expansion_bounds(MapSpec(c=-6))
    assert b6.a == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)
    assert b6.b == pytest.approx(6.0, rel=1e-12)
    b20 = expansion_bounds(MapSpec(c=-20))
    assert b20.a == pytest.approx(2.0 * math.sqrt(15.0), rel=1e-12)
    assert b20.b == pytest.approx(10.0, rel=1e-12)


def test_expansion_bounds_reject_boundary_parameter():
    with pytest.raises(HyperbolicityError):
        expansion_bounds(MapSpec(c=-2))


def test_real_mode_rejects_non_cantor_parameters():
    with pytest.raises(ValueError):
        MapSpec(c=-1)
    with pytest.raises(ValueError):
        MapSpec(c=-6 + 1j)


def test_certificate_fails_for_basilica():
    # c = -1 is admissible only in two-variable mode, where the
    # certificate must reject it (J is connected there)
    with pytest.raises(HyperbolicityError):
        build_orbit_catalog(MapSpec(c=-1, mode=Mode.COMPLEX_2D), 4)


def test_complex_mode_certificate_for_real_parameter():
    b = expansion_bounds(MapSpec(c=-6, mode=Mode.COMPLEX_2D, n_cert=3))
    assert 1.0 < b.a <= 2.0 * math.sqrt(3.0) + 1e-9
    assert b.b >= 6.0 - 1e-9


def test_catalog_counts(cat12):
    assert sum(o.n == 1 for o in cat12.orbits) == 2
    assert sum(o.n == 2 for o in cat12.orbits) == 1
    for n in range(1, 13):
        assert sum(o.n for o in cat12.orbits if n % o.n == 0) == 2 ** n


def test_catalog_small_is_three_orbits():
    cat = build_orbit_catalog(MapSpec(c=-6), 2)
    assert len(cat.orbits) == 3
    assert sorted(o.word.letters for o in cat.orbits) == ["0", "01", "1"]


def test_catalog_points_real_and_conjugation_symmetric(cat12):
    pts = [z for o in cat12.orbits for z in o.orbit]
    assert all(p.imag == 0.0 for p in pts)
    values = sorted(p.real for p in pts)
    mirrored = sorted(p.conjugate().real for p in pts)
    assert values == mirrored


def test_length_bounds(cat12):
    la, lb = cat12.log_a, math.log(cat12.b)
    for o in cat12.orbits:
        assert o.n * la - 1e-9 <= o.length <= o.n * lb + 1e-9


def test_orbit_points_follow_the_map(cat12):
    c = cat12.system.c
    for o in cat12.orbits[:50]:
        for k in range(o.n):
            z, znext = o.orbit[k], o.orbit[(k + 1) % o.n]
            assert abs(z * z + c - znext) < 1e-9


@given(st.integers(min_value=0, max_value=11))
@settings(max_examples=12, deadline=None)
def test_cyclic_invariance(cat12, k):
    # the points of a rotated word, by the scalar reference locator, lie
    # on the catalog's orbit of the word, with the same multiplier modulus
    spec = MapSpec(c=-6)
    word = Word("000101101101")
    base = next(o for o in cat12.orbits if o.word == word)
    rotated = word.rotated(k)
    points = [_scalar_locate(spec, rotated.rotated(j).letters) for j in range(len(word))]
    rot, lam = points[0], math.prod(2.0 * p for p in points)
    assert abs(abs(lam) - abs(base.multiplier)) <= 1e-10 * abs(base.multiplier)
    # rotated point lies on the same forward orbit
    assert min(abs(rot - z) for z in base.orbit) < 1e-10


def test_multiplier_chain_rule_vs_complex_step(cat12):
    # complex-step differentiation of f^n along the orbit is an
    # independent route to (f^n)'(z)
    c = cat12.system.c.real
    h = 1e-10
    for o in cat12.orbits[:80]:
        z = complex(o.z.real, h)
        for _ in range(o.n):
            z = z * z + c
        numeric = z.imag / h
        assert abs(abs(numeric) - abs(o.multiplier)) <= 1e-9 * abs(o.multiplier)


def test_residuals_within_tolerance(cat12):
    assert all(o.residual <= cat12.system.tol_point for o in cat12.orbits)
    assert all(abs(o.multiplier) > 1.0 for o in cat12.orbits)


def test_complex_parameter_catalog():
    spec = MapSpec(c=-6 + 0.3j, mode=Mode.COMPLEX_2D)
    cat = build_orbit_catalog(spec, 6)
    for n in range(1, 7):
        assert sum(o.n for o in cat.orbits if n % o.n == 0) == 2 ** n
    assert any(abs(o.z.imag) > 1e-6 for o in cat.orbits)


def test_affine_pair_validation():
    with pytest.raises(ValueError):
        AffinePair((2.0, 2.0))   # touching branch images
    with pytest.raises(ValueError):
        AffinePair((0.5, 4.0))


def _scalar_affine_orbits(ratios, n_max):
    """Reference loop: one word and one rotation at a time, composing the
    branches letter by letter (the catalog's operations, unvectorised)."""
    a, b = ratios
    out = []
    for n in range(1, n_max + 1):
        for word in enumerate_words(n):
            if not word.aperiodic:
                continue
            pts = []
            for k in range(n):
                slope, off = 1.0, 0.0
                for ch in reversed(word.rotated(k).letters):
                    if ch == "0":
                        slope, off = slope / a, off / a
                    else:
                        slope, off = slope / b, 1.0 - (1.0 - off) / b
                pts.append(complex(off / (1.0 - slope)))
            lam = 1.0
            for ch in word.letters:
                lam *= a if ch == "0" else b
            out.append((word, pts[0], complex(lam), math.log(lam), True, 0.0, tuple(pts)))
    return out


@pytest.mark.parametrize("ratios", [(2.3, 3.7), (3.0, 2.5)])
def test_affine_catalog_matches_scalar_loop(ratios):
    # repr() tells every float bit apart, -0.0 from 0.0 included
    cat = AffinePair(ratios).orbit_catalog(12)
    got = [(o.word, o.z, o.multiplier, o.length, o.prime, o.residual, o.orbit)
           for o in cat.orbits]
    ref = _scalar_affine_orbits(ratios, 12)
    assert len(got) == len(ref)
    bad = [k for k, (g, r) in enumerate(zip(got, ref)) if repr(g) != repr(r)]
    assert not bad, f"{len(bad)} orbits differ; first {got[bad[0]]} != {ref[bad[0]]}"
    assert (cat.a, cat.b) == (min(ratios), max(ratios))


def test_affine_catalog_binomial_lengths(affine24_cat):
    la, lb = math.log(2.0), math.log(4.0)
    for o in affine24_cat.orbits:
        k = o.word.letters.count("0")
        expected = k * la + (o.n - k) * lb
        assert o.length == pytest.approx(expected, rel=1e-12)
    for n in range(1, 15):
        assert sum(o.n for o in affine24_cat.orbits if n % o.n == 0) == 2 ** n


def test_catalog_holds_its_system_and_certificate(spec6, cat12, affine24, affine24_cat,
                                                  tmp_path):
    # mode, expansion bounds and depth are read from the system, the
    # certificate and the arrays: the catalog keeps no copy of them
    assert cat12.system is spec6 and cat12.bounds == expansion_bounds(spec6)
    assert (cat12.mode, cat12.n_max, cat12.a, cat12.b) == \
        (Mode.REAL_1D, 12, cat12.bounds.a, cat12.bounds.b)
    assert cat12.log_a == math.log(cat12.bounds.a)
    assert affine24_cat.system is affine24 and affine24_cat.mode is Mode.REAL_1D
    assert (affine24_cat.a, affine24_cat.b, affine24_cat.n_max) == (2.0, 4.0, 14)
    with pytest.raises(ValueError, match="only quadratic"):
        save_catalog(affine24_cat, str(tmp_path / "affine.json"))


def test_build_and_load_certify_once(tmp_path, monkeypatch):
    path, _payload = _saved(tmp_path, 8)
    certify, calls = dynamics.expansion_bounds, []

    def counted(spec):
        calls.append(spec)
        return certify(spec)

    monkeypatch.setattr(dynamics, "expansion_bounds", counted)
    build_orbit_catalog(MapSpec(c=-6), 8)
    load_catalog(str(path))
    assert calls == [MapSpec(c=-6)] * 2


def test_orbit_records_are_not_retained(cat12):
    # each read makes the records afresh; the catalog keeps only its arrays
    first = cat12.orbits
    assert cat12.orbits == first and cat12.orbits is not first
    assert "orbits" not in vars(cat12)


def test_catalog_cache_roundtrip(tmp_path):
    spec = MapSpec(c=-6)
    cat = build_orbit_catalog(spec, 6)
    path = tmp_path / "catalog.json"
    save_catalog(cat, str(path))
    loaded = load_catalog(str(path))
    assert loaded.n_max == cat.n_max
    assert loaded.a == cat.a and loaded.b == cat.b
    for a, b in zip(cat.orbits, loaded.orbits):
        assert a.word == b.word
        assert a.z == b.z
        assert a.multiplier == b.multiplier


def test_catalog_cache_rejects_tampered_multiplier(tmp_path):
    cat = build_orbit_catalog(MapSpec(c=-6), 6)
    path = tmp_path / "catalog.json"
    save_catalog(cat, str(path))
    payload = json.loads(path.read_text())
    payload["orbits"][5]["re_multiplier"] *= 1.0 + 1e-6
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="multiplier"):
        load_catalog(str(path))


def _saved(tmp_path, n_max=6):
    path = tmp_path / "catalog.json"
    save_catalog(build_orbit_catalog(MapSpec(c=-6), n_max), str(path))
    return path, json.loads(path.read_text())


def test_catalog_cache_rejects_tampered_point(tmp_path):
    path, payload = _saved(tmp_path)
    payload["orbits"][7]["re_z"] += 1e-9
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="not periodic"):
        load_catalog(str(path))


@pytest.mark.parametrize("tamper", ["swap", "drop", "extra"])
def test_catalog_cache_rejects_other_words(tmp_path, tamper):
    path, payload = _saved(tmp_path)
    orbits = payload["orbits"]
    if tamper == "swap":   # two records of period 5 trade their words
        i = next(k for k, rec in enumerate(orbits) if len(rec["word"]) == 5)
        orbits[i]["word"], orbits[i + 1]["word"] = orbits[i + 1]["word"], orbits[i]["word"]
    elif tamper == "drop":
        del orbits[4]
    else:
        orbits.append(dict(orbits[-1]))
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="words"):
        load_catalog(str(path))


def test_catalog_cache_rejects_wrong_expansion(tmp_path):
    path, payload = _saved(tmp_path)
    payload["expansion"]["b"] = math.nextafter(payload["expansion"]["b"], math.inf)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="expansion"):
        load_catalog(str(path))


@pytest.mark.parametrize("tamper", ["n_max_string", "no_expansion", "n_max_bool",
                                    "tol_point_bool", "n_cert_bool", "re_z_string"])
def test_catalog_cache_rejects_malformed_fields(tmp_path, tamper):
    path, payload = _saved(tmp_path)
    if tamper == "n_max_string":
        payload["n_max"] = str(payload["n_max"])
    elif tamper == "no_expansion":
        del payload["expansion"]
    elif tamper == "n_max_bool":   # true == 1: with the two period-1 records it read as n_max 1
        payload["n_max"], payload["orbits"] = True, payload["orbits"][:2]
    elif tamper == "re_z_string":
        payload["orbits"][3]["re_z"] = str(payload["orbits"][3]["re_z"])
    else:   # true == 1: a tolerance of 100 * true, or a certificate at depth true
        payload[tamper[:-5]] = True
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="malformed catalog cache"):
        load_catalog(str(path))


# Cache fuzz.  One header field, or one field of one record, of a small
# valid cache replaced by a JSON value of another type; every such file
# must be refused with ValueError.
_CACHE_FIELDS = [("version",), ("c",), ("c", 0), ("c", 1), ("mode",), ("n_max",),
                 ("tol_point",), ("n_cert",), ("expansion",), ("expansion", "a"),
                 ("expansion", "b"), ("orbits",)] + \
    [("orbits", k, key) for k in (0, 2, 4)
     for key in ("word", "re_z", "im_z", "re_multiplier", "im_multiplier")]
_CACHE_VALUES = st.sampled_from([None, True, False, "", "x", "3.0", [], [True], [0.5],
                                 {}, {"a": 1.0}])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(field=st.sampled_from(_CACHE_FIELDS), value=_CACHE_VALUES)
def test_catalog_cache_fuzz_refuses_other_types(field, value):
    import tempfile
    cat = build_orbit_catalog(MapSpec(c=-6), 3)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/catalog.json"
        save_catalog(cat, path)
        with open(path) as fh:
            payload = json.load(fh)
        parent = payload
        for key in field[:-1]:
            parent = parent[key]
        parent[field[-1]] = value
        with open(path, "w") as fh:
            json.dump(payload, fh)
        with pytest.raises(ValueError):
            load_catalog(path)


def test_catalog_cache_loads_without_a_build(tmp_path, monkeypatch):
    path, _payload = _saved(tmp_path, 8)
    cat = build_orbit_catalog(MapSpec(c=-6), 8)

    def no_build(*args, **kwargs):
        raise AssertionError("load_catalog built a catalog")

    monkeypatch.setattr(dynamics, "build_orbit_catalog", no_build)
    loaded = load_catalog(str(path))
    assert [(o.word, o.z, o.multiplier, o.length, o.prime) for o in loaded.orbits] == \
        [(o.word, o.z, o.multiplier, o.length, o.prime) for o in cat.orbits]
    for a, b in zip(cat.orbits, loaded.orbits):   # the pass's orbit points
        assert all(abs(z - w) <= 100.0 * cat.system.tol_point for z, w in zip(a.orbit, b.orbit))


def test_catalog_cache_resaves_byte_identical(tmp_path):
    path, _payload = _saved(tmp_path, 8)
    again = tmp_path / "again.json"
    save_catalog(load_catalog(str(path)), str(again))
    assert again.read_bytes() == path.read_bytes()


def test_ledger_catalog_memory(tmp_path):
    # the n = 16 catalog as arrays: at most 4 MiB held once built, and at
    # most 6 MiB more while it is saved (per-orbit records took 8.4 and 11.7)
    import gc
    import tracemalloc
    spec = MapSpec(c=-6, tol_point=5e-13)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cat = build_orbit_catalog(spec, 16)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        save_catalog(cat, str(tmp_path / "catalog.json"))
        saving = tracemalloc.get_traced_memory()[1] - base - held
    finally:
        tracemalloc.stop()
    assert held <= 4 * 2 ** 20
    assert saving <= 6 * 2 ** 20


def test_prime_words_are_the_lyndon_words():
    for n in range(1, 17):
        assert dynamics._prime_words(n).tolist() == [int(w, 2) for w in lyndon_words(n)]


def test_prime_words_count_the_aperiodic_necklaces():
    for n in range(1, dynamics.N_MAX_CAP + 1):
        assert len(dynamics._prime_words(n)) == aperiodic_necklace_count(n)


def test_prime_count_mismatch_raises(monkeypatch):
    monkeypatch.setattr(dynamics, "aperiodic_necklace_count", lambda n: 0)
    with pytest.raises(DegeneracyError, match="prime-orbit count"):
        build_orbit_catalog(MapSpec(c=-6), 3)


# catalog.json for c = -6, n_max = 12, its points as the scalar reference
# loops below make them (test_catalog_matches_scalar_locator).  Re-pinned
# when the non-canonical points came to be derived by the inverse-branch
# pass, not located: only re_multiplier digits moved (476 of 747 records)
CATALOG12_SHA256 = "06b428b3d8e655ccaf8570267686f993f181c1c962bfe432d4ce094ba4c6d315"


def test_catalog_bytes_pinned(cat12, tmp_path):
    path = tmp_path / "catalog.json"
    save_catalog(cat12, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CATALOG12_SHA256


def test_separation_guard_trips_at_depth_17():
    # known defect: at this tolerance the guard 10 * tol_point = 5e-12 rules
    # out depth 17, whose closest fixed points of f^17 sit 1.58e-12 apart
    with pytest.raises(DegeneracyError, match=r"iterate 17 .* min separation 1\.58\d*e-12"):
        build_orbit_catalog(MapSpec(c=-6, tol_point=5e-13), 17)


def _scalar_locate(spec, letters):
    """Reference loop: one itinerary at a time, contraction then Newton."""
    real = spec.mode is Mode.REAL_1D
    c, sqrt = (spec.c.real, math.sqrt) if real else (spec.c, cmath.sqrt)
    z, prev = (0.0 if real else 0.0j), math.inf
    for _ in range(400):
        w = z
        for ch in reversed(letters):
            w = (1.0 if ch == "0" else -1.0) * sqrt(w - c)
        step = abs(w - z)
        z = w
        if step <= 1e-14 * (1.0 + abs(z)) or step >= prev and step < 1e-10:
            break
        prev = step
    for _ in range(3):
        x, lam = z, 1.0
        for _ in letters:
            lam *= 2.0 * x
            x = x * x + c
        if lam == 1.0:
            break
        step = (x - z) / (lam - 1.0)
        z -= step
        if abs(step) <= 1e-16 * (1.0 + abs(z)):
            break
    return z


def _scalar_pass(spec, letters, z):
    """Reference loop: the orbit z, f(z), ..., f^(n-1)(z), by one pass of
    the inverse branches from z, last letter first."""
    real = spec.mode is Mode.REAL_1D
    c, sqrt = (spec.c.real, math.sqrt) if real else (spec.c, cmath.sqrt)
    visited, w = [], z
    for ch in reversed(letters):
        w = (1.0 if ch == "0" else -1.0) * sqrt(w - c)
        visited.append(w)
    return [z] + visited[-2::-1]


@pytest.mark.parametrize("spec, rel", [(MapSpec(c=-6), 0.0),
                                       (MapSpec(c=-6 + 0.3j, mode=Mode.COMPLEX_2D), 1e-14)])
def test_catalog_matches_scalar_locator(spec, rel):
    # Real1D goes through the scalar loops' exact operations; complex
    # products and moduli round differently in numpy, within a few ulps
    for o in build_orbit_catalog(spec, 8).orbits:
        ref = _scalar_pass(spec, o.word.letters, _scalar_locate(spec, o.word.letters))
        assert all(abs(z - r) <= rel * abs(r) for z, r in zip(o.orbit, ref))
        lam = 1.0
        for r in ref:
            lam *= 2.0 * r
        assert abs(o.multiplier - lam) <= 8 * o.n * rel * abs(lam)


@pytest.mark.parametrize("spec", [MapSpec(c=-3), MapSpec(c=-6), MapSpec(c=-20),
                                  MapSpec(c=-6 + 0.3j, mode=Mode.COMPLEX_2D)])
def test_derived_orbit_points_match_independent_location(spec):
    # each point the pass derives lies within 4 ulps of the point located
    # from its own rotation (measured at most 3.0 ulps up to n = 16)
    for o in build_orbit_catalog(spec, 8).orbits:
        for k, z in enumerate(o.orbit):
            r = _scalar_locate(spec, o.word.rotated(k).letters)
            assert abs(z - r) <= 4 * np.spacing(abs(r)), (o.word, k)


def test_build_refuses_an_orbit_that_does_not_return(monkeypatch):
    locate, moved = dynamics._locate, []

    def shifted(spec, n, idx):
        z, residual = locate(spec, n, idx)
        if n == 5:   # one canonical point off its orbit, its residual kept small
            z[1] += 1e-9
            moved.append(format(int(idx[1]), "05b"))
        return z, residual

    monkeypatch.setattr(dynamics, "_locate", shifted)
    with pytest.raises(ConvergenceError, match="word 00011 is not periodic"):
        build_orbit_catalog(MapSpec(c=-6), 6)
    assert moved == ["00011"]


@pytest.mark.parametrize("spec, n_max", [(MapSpec(c=-6), 12), (MapSpec(c=-3), 12),
                                         (MapSpec(c=-6 + 0.3j, mode=Mode.COMPLEX_2D), 8)])
def test_loaded_catalog_equals_the_build(tmp_path, spec, n_max):
    cat = build_orbit_catalog(spec, n_max)
    save_catalog(cat, str(tmp_path / "catalog.json"))
    loaded = load_catalog(str(tmp_path / "catalog.json"))
    for name in ("words", "points", "multipliers", "lengths"):
        got, want = getattr(loaded, name), getattr(cat, name)
        assert all(map(np.array_equal, got, want)), name


def test_build_locates_one_point_per_prime_orbit(monkeypatch):
    locate, sizes = dynamics._locate, []

    def counted(spec, n, idx):
        sizes.append(idx.size)
        return locate(spec, n, idx)

    monkeypatch.setattr(dynamics, "_locate", counted)
    build_orbit_catalog(MapSpec(c=-6), 12)
    # the prime orbits of periods 1..12, not the 2^13 - 2 fixed points
    assert sizes == [aperiodic_necklace_count(n) for n in range(1, 13)]
    assert sum(sizes) == 747


def test_min_separation_matches_pairwise_minimum():
    rng = np.random.default_rng(7)
    # three lines Im = 0, 10, 20 whose Re interleave (lines 0 and 20 tie in
    # Re), so the closest pair sits three apart in (Re, Im) order
    a = np.sort(rng.uniform(size=100))
    re = np.concatenate([a, (a[1:] + a[:-1]) / 2.0, a])
    pts = re + 1j * np.repeat([0.0, 10.0, 20.0], [100, 99, 100])
    brute = min(abs(p - q) for i, p in enumerate(pts.tolist()) for q in pts[i + 1:].tolist())
    assert dynamics._min_separation(pts) == brute
    real = rng.normal(size=300)
    assert dynamics._min_separation(real) == np.diff(np.sort(real)).min()
