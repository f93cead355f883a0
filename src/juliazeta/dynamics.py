"""Quadratic family f(z) = z^2 + c: inverse branches, certified expansion
bounds, and periodic-orbit catalogs with multipliers.

Periodic points are located as fixed points of composed inverse branches
(a guaranteed contraction once the expansion certificate holds), then
polished by Newton on f^n(z) - z.  One vectorised locator does this for
the canonical words of period n at once (a word's letters are the bits of
its index, a prime orbit's canonical word the least of its rotations);
one more inverse-branch pass gives the orbit's other points, in the
period check a build and a cache load share.  The catalog holds each
period's prime orbits as arrays, one row per orbit; fixed points of
every iterate are reconstructed from them.
"""

from __future__ import annotations

import enum
import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BranchPointError, ConvergenceError, DegeneracyError,
                     HyperbolicityError)
from .intervals import DISK_SLACK, Disk, Interval
from .util import is_real
from .words import Word, aperiodic_necklace_count
from .words import enumerate_words  # noqa: F401  (module attribute perfbench/tracing.py wraps)

N_MAX_CAP = 20
CATALOG_VERSION = 1
_MAX_CONTRACTION_APPLICATIONS = 400
_NEWTON_STEPS = 3


class Mode(enum.Enum):
    """Denominator convention for cycle weights (see the zeta module)."""

    REAL_1D = "real1d"
    COMPLEX_2D = "complex2d"


@dataclass(frozen=True)
class MapSpec:
    """Parameters of one quadratic map z -> z^2 + c.

    Real1D mode is the real Cantor regime (c real, c <= -2; the boundary
    point c = -2 is admitted but always fails certification).  Complex2D
    admits any complex c and lets the certificate decide.
    """

    c: complex
    mode: Mode = Mode.REAL_1D
    tol_point: float = 1e-12
    n_cert: int = 1

    def __post_init__(self):
        object.__setattr__(self, "c", complex(self.c))
        if self.tol_point <= 0.0:
            raise ValueError("tol_point must be positive")
        if not (1 <= self.n_cert <= 14):
            raise ValueError("n_cert must lie in 1..14")
        if self.mode is Mode.REAL_1D:
            if self.c.imag != 0.0:
                raise ValueError("Real1D mode requires a real parameter c")
            if self.c.real > -2.0:
                raise ValueError("Real1D mode requires c <= -2 (Cantor regime)")

    @property
    def trap_radius(self) -> float:
        """Radius of the closed trapping ball: the escape radius
        (1 + sqrt(1 + 4|c|)) / 2; for real c < -2 this is the largest
        fixed point beta."""
        return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * abs(self.c)))

    def trap_interval(self) -> Interval:
        r = self.trap_radius
        r = math.nextafter(r, math.inf)
        return Interval(-r, r)

    def trap_disk(self) -> Disk:
        r = self.trap_radius
        return Disk(0.0 + 0.0j, math.nextafter(r, math.inf))


@dataclass(frozen=True)
class ExpansionBounds:
    """Certified a <= min_J |f'| and b >= max_J |f'|."""

    a: float
    b: float


def backward_images(system, first: np.ndarray, second: np.ndarray):
    """Enclosures of both inverse-branch images of every element of a
    cover, branch 0 images first, then branch 1 images, each in element
    order.  Elements are (lo, hi) arrays of intervals for an AffinePair or
    a Real1D MapSpec, (center, radius) arrays of disks in Complex2D mode.

    Elementwise these are the floating-point operations of
    AffinePair.branch_interval, of Interval.shift(-c).sqrt() (negated for
    branch 1), and of Disk.sqrt_shift, so the arrays hold the same bits.
    Raises HyperbolicityError when a shifted interval reaches below zero,
    BranchPointError when a shifted disk meets the branch point or cut.
    """
    if isinstance(system, AffinePair):
        a, b = system.ratios
        lo = np.concatenate((first / a, 1.0 - (1.0 - first) / b))
        hi = np.concatenate((second / a, 1.0 - (1.0 - second) / b))
        return np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    if system.mode is Mode.REAL_1D:
        c = system.c.real
        lo, hi = np.nextafter(first - c, -np.inf), np.nextafter(second - c, np.inf)
        if lo.min() < 0.0:
            raise HyperbolicityError(
                f"backward interval iteration failed: an element shifted by {-c} "
                f"reaches below zero ({float(lo.min())}), off the square root's domain")
        lo = np.where(lo > 0.0, np.nextafter(np.sqrt(lo), -np.inf), 0.0)
        hi = np.nextafter(np.sqrt(hi), np.inf)
        return np.concatenate((lo, -hi)), np.concatenate((hi, -lo))
    root, rad = sqrt_disks(system.c, first, second)
    return np.concatenate((root, -root)), np.concatenate((rad, rad))


def sqrt_disks(c: complex, center: np.ndarray, radius: np.ndarray):
    """Enclosures (center, radius) of sqrt(z - c) over the disks: the
    operations of Disk.sqrt_shift(c, 0), elementwise.  Raises
    BranchPointError when a shifted disk meets the branch point or cut."""
    w = center - c
    d = np.hypot(w.real, w.imag)     # abs(complex), bit for bit
    encloses = d <= radius
    # the cut is hit when the shifted disk meets the non-positive real axis
    bad = encloses | ((w.real <= 0.0) & (np.abs(w.imag) <= radius))
    if bad.any():
        k = int(np.argmax(bad))
        if encloses[k]:
            raise BranchPointError(
                f"disk around {complex(center[k])} encloses the branch point {c}")
        raise BranchPointError(
            f"disk around {complex(center[k])} shifted by {-c} straddles the sqrt cut")
    return np.sqrt(w), radius * (0.5 / np.sqrt(d - radius)) * (1.0 + DISK_SLACK) + 1e-300


def expansion_bounds(spec: MapSpec) -> ExpansionBounds:
    """Certify expansion by backward-iterating the trap n_cert times.

    The level-n_cert backward images enclose J, so 2 * min |z| over them
    bounds min_J |f'| from below (and symmetrically for the max).  Raises
    HyperbolicityError when the certified lower bound is not > 1.
    """
    if spec.mode is Mode.REAL_1D:
        trap = spec.trap_interval()
        lo, hi = np.array([trap.lo]), np.array([trap.hi])
        for _ in range(spec.n_cert):
            lo, hi = backward_images(spec, lo, hi)
        # min and max of |x| over each interval: a square-root image
        # meets 0 only at an end that is 0
        size_lo, size_hi = np.abs(lo), np.abs(hi)
        low = float(np.minimum(size_lo, size_hi).min())
        high = float(np.maximum(size_lo, size_hi).max())
    else:
        trap = spec.trap_disk()
        center, radius = np.array([trap.center]), np.array([trap.radius])
        try:
            for _ in range(spec.n_cert):
                center, radius = backward_images(spec, center, radius)
        except BranchPointError as exc:
            raise HyperbolicityError(
                f"certificate failed: {exc} (parameter outside the Cantor regime?)") from exc
        dist = np.hypot(center.real, center.imag)
        low = float(np.maximum(dist - radius, 0.0).min())
        high = float((dist + radius).max())
    a, b = 2.0 * low, 2.0 * high
    if not a > 1.0:
        raise HyperbolicityError(
            f"expansion certificate failed at depth {spec.n_cert}: "
            f"certified min |f'| = {a} <= 1")
    return ExpansionBounds(a=a, b=b)


@dataclass(frozen=True)
class PeriodicOrbitPoint:
    """One prime orbit: canonical word, the corresponding fixed point of
    the composed inverse branches, and the cycle multiplier."""

    word: Word
    z: complex
    multiplier: complex
    length: float          # log |multiplier|
    prime: bool
    residual: float = 0.0
    orbit: tuple = ()      # all period points, orbit[k] = f^k(z)

    @property
    def n(self) -> int:
        return len(self.word)


def _forward(z: np.ndarray, n: int, c) -> tuple[np.ndarray, np.ndarray]:
    """f^n(z) and the running multiplier (f^n)'(z), elementwise."""
    x, lam = z, np.ones_like(z)
    for _ in range(n):
        lam = lam * (2.0 * x)
        x = x * x + c
    return x, lam


def _inverse_pass(z: np.ndarray, words: np.ndarray, n: int, c, pts: np.ndarray | None = None):
    """g_{w1} o ... o g_{wn}(z) for the word index words[r] of each z[r],
    the last letter's branch first (step j takes -sqrt(. - c) where bit j
    is 1).  With `pts`, column n-1-j receives the image after step j,
    which is f^(n-1-j) of the result when z is periodic."""
    w = z
    for j in range(n):
        w = np.sqrt(w - c)
        np.negative(w, out=w, where=(words >> j) & 1 == 1)
        if pts is not None:
            pts[:, n - 1 - j] = w
    return w


def _locate(spec: MapSpec, n: int, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed points of f^n for the itineraries `idx`, all at once.

    Letter k of an index's word is bit n-1-k (most significant first), so
    integer order is lexicographic order.  Each point is the fixed point
    of g_{w1} o ... o g_{wn}, reached by `_inverse_pass` from 0 and
    polished by Newton on f^n(z) - z.  Every element stops on its own
    criterion, so it goes through exactly the floating-point operations a
    scalar loop would.  Returns the points (float in Real1D, complex in
    Complex2D) and residuals estimating |z - z*| via the Newton step, each
    at most tol_point, or raises ConvergenceError.
    """
    real = spec.mode is Mode.REAL_1D
    c = spec.c.real if real else spec.c
    z = np.zeros(idx.shape, float if real else complex)
    prev = np.full(idx.shape, math.inf)
    live = np.arange(idx.size)
    for _ in range(_MAX_CONTRACTION_APPLICATIONS):
        # a slice while every element is live: views, not copies
        at = live if live.size < idx.size else slice(None)
        zl = z[at]
        w = _inverse_pass(zl, idx[at], n, c)
        step = np.abs(w - zl)
        z[at] = w
        done = (step <= 1e-14 * (1.0 + np.abs(w))) | ((step >= prev[at]) & (step < 1e-10))
        prev[at] = step
        live = live[~done]
        if not live.size:
            break
    else:
        raise ConvergenceError(f"contraction failed for {live.size} words of length {n} "
                               f"(c = {c})")
    # Newton polish on f^n(z) - z; the derivative is the running multiplier - 1
    live = np.arange(idx.size)
    for _ in range(_NEWTON_STEPS):
        zl = z[live]
        x, lam = _forward(zl, n, c)
        dval = lam - 1.0
        keep = dval != 0.0
        live, zl = live[keep], zl[keep]
        step = (x[keep] - zl) / dval[keep]
        zl = zl - step
        z[live] = zl
        live = live[~(np.abs(step) <= 1e-16 * (1.0 + np.abs(zl)))]
        if not live.size:
            break
    x, lam = _forward(z, n, c)
    residual = np.abs(x - z) / np.maximum(1.0, np.abs(lam - 1.0))
    if not np.all(residual <= spec.tol_point):
        k = int(np.argmin(residual <= spec.tol_point))
        raise ConvergenceError(f"periodic point for word {format(int(idx[k]), f'0{n}b')} has "
                               f"residual {residual[k]} > {spec.tol_point}")
    return z, residual


def _checked_period(spec: MapSpec, bounds: ExpansionBounds, n: int, words: np.ndarray,
                    z: np.ndarray, error: type[Exception], lams: np.ndarray | None = None) -> tuple:
    """Points (in z's dtype), multipliers, lengths and landing distances
    of the orbits of words[r] through z[r].  One `_inverse_pass` from z
    gives the orbit and must land within 100 * tol_point of z.  The
    multiplier is the chain product of f' over the orbit, whose points the
    contracting pass keeps within a few ulps (a forward orbit loses
    ~|Lambda| * eps); given `lams` must match it within 100 * tol_point
    relative, and are kept.  Raises `error` unless every orbit is also
    repelling with its length inside the certified `bounds`.
    """
    c = spec.c if np.iscomplexobj(z) else spec.c.real
    pts, tol = np.empty((z.size, n), z.dtype), 100.0 * spec.tol_point
    back = np.abs(_inverse_pass(z, words, n, c, pts) - z)
    pts[:, 0] = z

    def refuse(good, values, message):
        if not np.all(good):
            k = int(np.argmin(good))
            raise error(message.format(word=format(int(words[k]), f"0{n}b"), value=values[k]))

    refuse(back <= tol, back, "point for word {word} is not periodic: its inverse-branch "
           f"pass lands {{value}} > {tol} from it")
    chain = functools.reduce(np.multiply, 2.0 * pts.T).astype(complex)
    if lams is None:
        lams = chain
    else:
        refuse(np.abs(chain - lams) <= tol * np.abs(chain), lams,
               "cached multiplier for word {word} disagrees with its orbit")
    sizes = np.hypot(lams.real, lams.imag)   # abs(complex), bit for bit, unlike np.abs
    refuse(sizes > 1.0, sizes, "point for word {word} is not repelling (|multiplier| = {value})")
    # math.log: numpy's vectorised log can round differently
    lengths = np.array([math.log(size) for size in sizes.tolist()])
    lo, hi = n * math.log(bounds.a), n * math.log(bounds.b)
    refuse((lo - 1e-9 <= lengths) & (lengths <= hi + 1e-9), lengths,
           f"length {{value}} for word {{word}} violates certified bounds [{lo}, {hi}]")
    return pts, lams, lengths, back


@dataclass(frozen=True, eq=False)
class OrbitCatalog:
    """The prime orbits up to period n_max of a system (a MapSpec or an
    AffinePair), with its certified expansion bounds, used for tail
    estimates.  The orbit fields hold an array per period n (at index
    n - 1), a row per prime orbit in word order: the word's index (its n
    bits), points (column k is f^k of column 0), multiplier, length
    log |multiplier| and residual."""

    system: MapSpec | AffinePair
    bounds: ExpansionBounds
    words: tuple[np.ndarray, ...]
    points: tuple[np.ndarray, ...]
    multipliers: tuple[np.ndarray, ...]
    lengths: tuple[np.ndarray, ...]
    residuals: tuple[np.ndarray, ...]

    @property
    def n_max(self) -> int:
        return len(self.words)

    @property
    def mode(self) -> Mode:
        """The system's denominator convention."""
        return self.system.mode

    @property
    def a(self) -> float:
        return self.bounds.a

    @property
    def b(self) -> float:
        return self.bounds.b

    @property
    def log_a(self) -> float:
        return math.log(self.bounds.a)

    @property
    def orbits(self) -> tuple[PeriodicOrbitPoint, ...]:
        """One record per prime orbit, by period, then word; made from the
        arrays on each read."""
        out = []
        for n, (words, pts, lams, lengths, res) in enumerate(zip(
                self.words, self.points, self.multipliers, self.lengths, self.residuals), 1):
            out += [PeriodicOrbitPoint(word=Word(w), z=o[0], multiplier=m, length=length,
                                       prime=True, residual=r, orbit=tuple(o))
                    for w, o, m, length, r in zip(_letters(words, n), pts.tolist(), lams.tolist(),
                                                  lengths.tolist(), res.tolist())]
        return tuple(out)


def _prime_words(n: int) -> np.ndarray:
    """The word index of each prime orbit of period n, in lexicographic
    order: the index strictly smaller than those of the word's other
    rotations.  For n >= 2 such a word starts with 0 and ends with 1, so
    only the odd indices below 2^(n-1) are tried."""
    idx, top = (np.arange(2) if n == 1 else np.arange(1, 2 ** (n - 1), 2)), 2 ** n - 1
    prime = np.ones(idx.size, bool)
    for k in range(1, n):
        prime &= idx < ((idx << k | idx >> (n - k)) & top)
    return idx[prime]


def _letters(words: np.ndarray, n: int) -> list[str]:
    """The n letters of each word index."""
    return [format(i, f"0{n}b") for i in words.tolist()]


def _min_separation(points: np.ndarray) -> float:
    """Minimum pairwise distance.  After a sort by (Re, Im), pairs k apart
    are compared for k = 1, 2, ... until no such pair is closer in Re
    than the best distance so far."""
    pts = np.sort(points)
    best = math.inf
    for k in range(1, pts.size):
        near = pts[k:].real - pts[:-k].real < best
        if not near.any():
            break
        best = min(best, float(np.abs(pts[k:][near] - pts[:-k][near]).min()))
    return best


def build_orbit_catalog(spec: MapSpec, n_max: int = 12) -> OrbitCatalog:
    """Locate every prime orbit of period <= n_max.

    One point per prime orbit, its canonical word's, is located by one
    `_locate` call per period, and the rest by `_checked_period`, the
    check `load_catalog` makes.  Validates the prime-orbit and 2^n fixed-point
    counts and the per-iterate pairwise separation guard 10 * tol_point.
    """
    if not (1 <= n_max <= N_MAX_CAP):
        raise ValueError(f"n_max must lie in 1..{N_MAX_CAP}")
    bounds = expansion_bounds(spec)
    periods, points = [], {}
    for n in range(1, n_max + 1):
        words = _prime_words(n)
        if len(words) != aperiodic_necklace_count(n):
            raise DegeneracyError(f"prime-orbit count mismatch at n = {n}: found {len(words)}, "
                                  f"expected {aperiodic_necklace_count(n)}")
        z, residual = _locate(spec, n, words)
        points[n], lams, lengths, _ = _checked_period(spec, bounds, n, words, z,
                                                      ConvergenceError)
        # Separation is checked per iterate: the 2^n fixed points of f^n must
        # be pairwise distinct for each n <= n_max.  (Orbit pairs of coprime
        # periods p, q can agree to itinerary depth p + q - 2 and sit closer
        # than double precision resolves, but no computation ever compares
        # across iterates.)
        sharing = np.concatenate([points[p].ravel() for p in points if n % p == 0])
        if sharing.size != 2 ** n:
            raise DegeneracyError(f"fixed-point count mismatch at n = {n}: "
                                  f"reconstructed {sharing.size}, expected {2 ** n}")
        best = _min_separation(sharing)
        if best <= 10.0 * spec.tol_point:
            raise DegeneracyError(f"fixed points of iterate {n} collide: min separation "
                                  f"{best} <= guard {10.0 * spec.tol_point}")
        del sharing   # freed before this period's orbit arrays are made
        periods.append((words, points[n].astype(complex), lams, lengths, residual))
    return OrbitCatalog(spec, bounds, *zip(*periods))


# ---------------------------------------------------------------------------
# two-branch affine fixture (exact orbits; test oracle for the model zeta)

@dataclass(frozen=True)
class AffinePair:
    """Expanding two-branch affine system on [0, 1].

    Branch derivatives are the constants (a, b), so period-n orbits have
    L_n = k log a + (n-k) log b with multiplicity C(n, k): the binomial
    length model realized by an actual dynamical system.
    """

    ratios: tuple[float, float]
    mode = Mode.REAL_1D   # interval-based, as a Real1D MapSpec (not a field)

    def __post_init__(self):
        a, b = self.ratios
        if not (a > 1.0 and b > 1.0):
            raise ValueError("affine ratios must exceed 1")
        if 1.0 / a + 1.0 / b >= 1.0:
            raise ValueError("branch images must be disjoint: 1/a + 1/b < 1")

    def inverse(self, branch: int, x: float) -> float:
        a, b = self.ratios
        return x / a if branch == 0 else 1.0 - (1.0 - x) / b

    def branch_interval(self, branch: int, iv: Interval) -> Interval:
        lo = self.inverse(branch, iv.lo)
        hi = self.inverse(branch, iv.hi)
        return Interval(math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))

    def trap_interval(self) -> Interval:
        return Interval(0.0, 1.0)

    def orbit_catalog(self, n_max: int = 12) -> OrbitCatalog:
        """Exact prime-orbit catalog: affine compositions solve in closed
        form, with no iteration.

        Each period is one numpy pass over the rotations of the word
        indices of `_prime_words`, as in the quadratic catalog.  The point
        of a rotation is the fixed point off / (1 - slope) of its composed
        branch, built over the index bits last letter first, and the
        multiplier is the product of the branch ratios, first letter
        first: every element goes through the floating-point operations
        of a scalar loop over the word's letters.
        """
        if not (1 <= n_max <= N_MAX_CAP):
            raise ValueError(f"n_max must lie in 1..{N_MAX_CAP}")
        a, b = self.ratios
        periods = []
        for n in range(1, n_max + 1):
            words, top = _prime_words(n), 2 ** n - 1
            rows = np.stack([(words << k | words >> (n - k)) & top for k in range(n)], axis=1)
            slope, off = np.ones(rows.shape), np.zeros(rows.shape)
            for j in range(n):   # g(x) = x/r + t, composed outside-in
                one = (rows >> j) & 1 == 1
                slope = np.where(one, slope / b, slope / a)
                off = np.where(one, 1.0 - (1.0 - off) / b, off / a)
            pts = off / (1.0 - slope)
            lams = np.ones(len(rows))
            for j in reversed(range(n)):
                lams = lams * np.where((words >> j) & 1 == 1, b, a)
            lengths = np.array([math.log(lam) for lam in lams.tolist()])
            periods.append((words, pts.astype(complex), lams.astype(complex), lengths,
                            np.zeros(len(rows))))
        return OrbitCatalog(self, ExpansionBounds(min(a, b), max(a, b)), *zip(*periods))


# ---------------------------------------------------------------------------
# catalog cache file

# an orbit record as json.dumps(..., indent=1) writes it (finite floats as %r)
_RECORD = ('  {\n   "word": "%s",\n   "re_z": %r,\n   "im_z": %r,\n'
           '   "re_multiplier": %r,\n   "im_multiplier": %r\n  }')


def save_catalog(catalog: OrbitCatalog, path: str) -> None:
    """Versioned JSON cache of a quadratic catalog: the bytes of
    json.dumps(payload, indent=1), its records written from the arrays."""
    spec = catalog.system
    if not isinstance(spec, MapSpec):
        raise ValueError("only quadratic catalogs are cached")
    header = json.dumps({
        "version": CATALOG_VERSION,
        "c": [spec.c.real, spec.c.imag],
        "mode": spec.mode.value,
        "n_max": catalog.n_max,
        "tol_point": spec.tol_point,
        "n_cert": spec.n_cert,
        "expansion": {"a": catalog.a, "b": catalog.b},
    }, indent=1)
    records = []
    for n, (words, pts, lam) in enumerate(zip(catalog.words, catalog.points,
                                              catalog.multipliers), 1):
        records += map(_RECORD.__mod__, zip(_letters(words, n), pts[:, 0].real.tolist(),
                                            pts[:, 0].imag.tolist(), lam.real.tolist(),
                                            lam.imag.tolist()))
    from .util import atomic_write_text
    atomic_write_text(path, header[:-2] + ',\n "orbits": [\n' + ",\n".join(records)
                      + "\n ]\n}\n")


def load_catalog(path: str) -> OrbitCatalog:
    """Read a catalog from its cache and check it, without rebuilding it.

    The words must be a build's, in its order, and the expansion bounds
    those of `expansion_bounds`.  Per period, a build's `_checked_period`
    runs on the cached points and multipliers: its pass checks each
    point's periodicity and itinerary, the chain product the multiplier,
    and each orbit must be repelling with a certified length.  The
    catalog keeps the cached points and
    multipliers and the pass's other points, so all but its residuals
    (the landing distances) equal a build's bit for bit.  Raises
    ValueError when a check fails or a field is missing or of the wrong
    type (n_max and n_cert are integers, other numbers finite; JSON true
    and false are not numbers).
    """
    with open(path) as fh:
        payload = json.load(fh)
    try:
        return _checked_catalog(payload)
    except (AttributeError, IndexError, KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed catalog cache: {exc!r}") from exc


def _checked_catalog(payload) -> OrbitCatalog:
    version = payload.get("version")
    if type(version) is not int or version != CATALOG_VERSION:
        raise ValueError(f"unsupported catalog cache version: {version}")
    c, expansion, n_max = payload["c"], payload["expansion"], payload["n_max"]
    if not (all(map(is_real, (c[0], c[1], payload["tol_point"], *expansion.values())))
            and type(n_max) is int and type(payload["n_cert"]) is int):
        raise ValueError("malformed catalog cache: c, tol_point and the expansion bounds "
                         "must be finite numbers, n_max and n_cert integers")
    spec = MapSpec(c=complex(c[0], c[1]), mode=Mode(payload["mode"]),
                   tol_point=payload["tol_point"], n_cert=payload["n_cert"])
    records, bounds = payload["orbits"], expansion_bounds(spec)
    if not (1 <= n_max <= N_MAX_CAP):
        raise ValueError(f"catalog cache n_max {n_max} is outside 1..{N_MAX_CAP}")
    if expansion != {"a": bounds.a, "b": bounds.b}:
        raise ValueError("catalog cache expansion bounds differ from the certificate")
    periods, start = [], 0
    for n in range(1, n_max + 1):
        words = _prime_words(n)
        batch = records[start:start + len(words)]
        start += len(words)
        if [rec["word"] for rec in batch] != _letters(words, n):
            raise ValueError(f"catalog cache words of period {n} differ from a build's")
        values = [rec[key] for rec in batch
                  for key in ("re_z", "im_z", "re_multiplier", "im_multiplier")]
        if not ({type(v) for v in values} <= {int, float}
                and np.isfinite(parts := np.array(values, float)).all()):
            raise ValueError(f"malformed catalog cache: a record of period {n} holds other "
                             f"than four finite numbers")
        z, lams = np.ascontiguousarray(parts.view(complex).reshape(-1, 2).T)
        periods.append((words, *_checked_period(spec, bounds, n, words, z, ValueError, lams)))
    if start != len(records):
        raise ValueError(f"catalog cache lists words beyond period {n_max}")
    return OrbitCatalog(spec, bounds, *zip(*periods))
