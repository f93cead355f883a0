"""Backward-iterated covers of the Julia set, component statistics of
their inflations, and the box-counting dimension fit.

A level-n cover is the family g_w(trap) over the 2^n branch words w,
enclosed in certified intervals (Real1D) or disks (Complex2D).  Counting
components of the cover inflated by h tracks P(h), the component count of
the h-neighbourhood of J, once the cover is deep enough relative to h;
the dimension is the slope of log P against log(1/h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import Mode, backward_images
from .errors import HyperbolicityError, ResolutionError
from .intervals import Disk, Interval
from .util import write_csv

DEPTH_CAP = 20
_DEPTH_FACTOR = 4.0   # a profile's cover for scale h has diameters <= h / this


@dataclass(frozen=True, eq=False)
class DiskCover:
    """Level-n backward cover as arrays in word order: element k encloses
    g_w(trap) for the word w = format(k, f"0{n}b"), whose letters are the
    bits of k, most significant first.  The interval kind holds endpoint
    arrays lo and hi, the disk kind a complex center array and a radius
    array; the other kind's fields are None."""

    level: int
    kind: str                # "interval" | "disk"
    trap_diameter: float
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: np.ndarray | None = None

    @property
    def words(self) -> tuple[str, ...]:
        n = self.level
        return tuple(format(k, f"0{n}b") for k in range(2 ** n)) if n else ("",)

    @property
    def elements(self) -> tuple:
        """The elements as Interval or Disk objects, built on each access."""
        if self.kind == "interval":
            return tuple(map(Interval, self.lo.tolist(), self.hi.tolist()))
        return tuple(map(Disk, self.center.tolist(), self.radius.tolist()))

    def max_diameter(self) -> float:
        if self.kind == "interval":
            return float((self.hi - self.lo).max())
        return float((2.0 * self.radius).max())


def _trap_cover(system) -> DiskCover:
    """The level-0 cover: the trap interval of a Real1D system (an
    AffinePair or a Real1D MapSpec), the trap disk of a Complex2D MapSpec."""
    if system.mode is Mode.REAL_1D:
        trap = system.trap_interval()
        return DiskCover(level=0, kind="interval", trap_diameter=trap.width,
                         lo=np.array([trap.lo]), hi=np.array([trap.hi]))
    trap = system.trap_disk()
    return DiskCover(level=0, kind="disk", trap_diameter=trap.diameter(),
                     center=np.array([trap.center]), radius=np.array([trap.radius]))


def backward_cover(system, n: int) -> DiskCover:
    """The 2^n certified enclosures of g_w(trap) over words of length n."""
    if not (0 <= n <= DEPTH_CAP):
        raise ValueError(f"cover level must lie in 0..{DEPTH_CAP}")
    cover = _trap_cover(system)
    for _ in range(n):
        cover = _deeper(system, cover)
    return cover


def _deeper(system, cover: DiskCover) -> DiskCover:
    """The cover one level deeper, in word order: the words b + w for
    b = 0, then b = 1, each over the cover's own words in their order.
    Raises HyperbolicityError unless the largest enclosure shrinks."""
    if cover.kind == "interval":
        lo, hi = backward_images(system, cover.lo, cover.hi)
        deeper = replace(cover, level=cover.level + 1, lo=lo, hi=hi)
    else:
        center, radius = backward_images(system, cover.center, cover.radius)
        deeper = replace(cover, level=cover.level + 1, center=center, radius=radius)
    diam, new_diam = cover.max_diameter(), deeper.max_diameter()
    if new_diam >= diam:
        raise HyperbolicityError(
            f"backward enclosures stopped contracting at level {deeper.level}: "
            f"{new_diam} >= {diam}")
    return deeper


@dataclass(frozen=True)
class CoverStats:
    """Table of (scale, component count, max component diameter)."""

    hs: tuple[float, ...]
    counts: tuple[int, ...]
    maxdiams: tuple[float, ...]

    @property
    def count(self) -> int:
        return self.counts[0]

    @property
    def maxdiam(self) -> float:
        return self.maxdiams[0]

    def to_csv(self, path: str) -> None:
        write_csv(path, "h,P,maxdiam", zip(self.hs, self.counts, self.maxdiams))


def _count_intervals(lo: np.ndarray, hi: np.ndarray, h: float) -> tuple[int, float]:
    """(components, max component width) of the intervals inflated by h.
    After a sort by (lo, hi), a component ends where the next interval
    starts beyond the running maximum of the upper ends so far."""
    a, b = lo - h, hi + h
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    reach = np.maximum.accumulate(b)
    breaks = np.flatnonzero(a[1:] > reach[:-1])
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(a) - 1]))
    return len(starts), float((reach[ends] - a[starts]).max())


def _near_pairs(order: np.ndarray, near):
    """Element pairs (order[p], order[p + d]) for d = 1, 2, ... while
    near(p, p + d) holds, as two index arrays per d.  Once near(p, p + d)
    fails, it must fail for every larger d."""
    live, d = np.arange(len(order) - 1), 1
    while True:
        live = live[near(live, live + d)]
        if not live.size:
            return
        yield order[live], order[live + d]
        d += 1
        live = live[live + d < len(order)]


def _count_disks(center: np.ndarray, radius: np.ndarray, h: float) -> tuple[int, float]:
    """(components, max component diameter) of the disks inflated by h.

    Disks i and j touch when |c_i - c_j| <= r_i + r_j, which needs their
    gap in Re to be at most twice the largest radius: candidates are the
    pairs within that gap after a sort on Re.  Components are labelled by
    hooking every root onto the smallest root it touches, then jumping
    pointers until every label is a root.  A component's diameter is the
    largest (|c_i - c_j| + r_i) + r_j over its members i < j, or 2 r_i.
    Every array is O(k) long; none is k x k.
    """
    k = len(radius)
    x, y, r = center.real, center.imag, radius + h

    def dist(i, j):
        return np.hypot(x[i] - x[j], y[i] - y[j])   # abs(complex), bit for bit

    cut = 2.0 * float(r.max())
    by_re = np.argsort(x, kind="stable")
    xs = x[by_re]
    ii, jj = [np.empty(0, int)], [np.empty(0, int)]
    for i, j in _near_pairs(by_re, lambda p, q: xs[q] - xs[p] <= cut):
        touch = dist(i, j) <= r[i] + r[j]
        ii.append(i[touch])
        jj.append(j[touch])
    i, j = np.concatenate(ii), np.concatenate(jj)
    label = np.arange(k)
    while True:
        li, lj = label[i], label[j]
        if np.array_equal(li, lj):
            break
        low = np.minimum(li, lj)
        np.minimum.at(label, li, low)
        np.minimum.at(label, lj, low)
        while not np.array_equal(label[label], label):
            label = label[label]
    # members of each component side by side, in element order
    by_label = np.argsort(label, kind="stable")
    lab = label[by_label]
    best = float((2.0 * r).max())
    for i, j in _near_pairs(by_label, lambda p, q: lab[p] == lab[q]):
        best = max(best, float(((dist(i, j) + r[i]) + r[j]).max()))
    return int(np.count_nonzero(label == np.arange(k))), best


def component_stats(cover: DiskCover, h: float) -> CoverStats:
    """Component count and max component diameter of the cover inflated
    by h.  Inflation beyond the trap scale is rejected: everything merges
    and the count carries no information."""
    if h < 0.0:
        raise ValueError("inflation scale must be nonnegative")
    if h > 0.5 * cover.trap_diameter:
        raise ResolutionError(
            f"h = {h} exceeds half the trap diameter {cover.trap_diameter}")
    if cover.kind == "interval":
        count, diam = _count_intervals(cover.lo, cover.hi, h)
    else:
        count, diam = _count_disks(cover.center, cover.radius, h)
    return CoverStats(hs=(h,), counts=(count,), maxdiams=(diam,))


def cover_profile(system, hs) -> CoverStats:
    """P(h) across scales, with the cover depth coupled to h: each h uses
    the shallowest cover whose elements have diameter <= h / _DEPTH_FACTOR,
    so the inflated cover has the same components as the inflated set.
    Scales run coarse to fine, and only the deepest cover so far is kept
    and extended a level at a time."""
    hs = sorted(set(float(h) for h in hs), reverse=True)
    if not hs:
        raise ValueError("empty scale list")
    cover = backward_cover(system, 0)
    rows = []
    for h in hs:
        while cover.max_diameter() > h / _DEPTH_FACTOR:
            if cover.level >= DEPTH_CAP:
                raise ResolutionError(
                    f"scale h = {h} needs a cover deeper than level {DEPTH_CAP}")
            cover = _deeper(system, cover)
        st = component_stats(cover, h)
        rows.append((h, st.count, st.maxdiam))
    rows.sort()
    h_list, counts, diams = zip(*rows)
    return CoverStats(hs=h_list, counts=counts, maxdiams=diams)


@dataclass(frozen=True)
class BoxFit:
    delta_box: float
    r2: float
    k_max: float          # max of maxdiam / h over the fitted scales
    reliable: bool        # r2 >= 0.95


def fit_box_dimension(stats: CoverStats, h_range: tuple[float, float]) -> BoxFit:
    """Least-squares slope of log P against log(1/h) over the given range.

    Requires at least five scales; a fit with r^2 < 0.95 is returned with
    the `reliable` flag cleared rather than raised.
    """
    h_min, h_max = h_range
    rows = [(h, p, d) for h, p, d in zip(stats.hs, stats.counts, stats.maxdiams)
            if h_min <= h <= h_max]
    if len(rows) < 5:
        raise ValueError(f"need >= 5 scales in range, got {len(rows)}")
    x = np.array([math.log(1.0 / h) for h, _, _ in rows])
    y = np.array([math.log(p) for _, p, _ in rows])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 0.0
    k_max = max(d / h for h, _, d in rows)
    return BoxFit(delta_box=float(slope), r2=r2, k_max=k_max, reliable=r2 >= 0.95)


def box_dimension(system, h_max: float | None = None, n_scales: int = 25,
                  decades: float = 3.0) -> tuple[BoxFit, CoverStats]:
    """Convenience pipeline: geometric h grid spanning `decades` below
    h_max (default: a safe fraction of the trap), profile, fit.

    Three decades with ~25 scales averages out the log-periodic staircase
    of Cantor component counts; single-decade fits can be off by 0.05.
    """
    if h_max is None:
        h_max = _trap_cover(system).trap_diameter / 120.0
    hs = [h_max * 10.0 ** (-decades * k / (n_scales - 1)) for k in range(n_scales)]
    stats = cover_profile(system, hs)
    fit = fit_box_dimension(stats, (min(hs) * 0.999, max(hs) * 1.001))
    return fit, stats
