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
from dataclasses import dataclass

import numpy as np

from .dynamics import AffinePair, MapSpec, Mode, _branch_disk, _branch_interval
from .errors import HyperbolicityError, ResolutionError
from .util import write_csv

DEPTH_CAP = 20


@dataclass(frozen=True)
class DiskCover:
    """Level-n backward cover; elements are ordered by their branch word."""

    level: int
    words: tuple[str, ...]
    elements: tuple          # Interval or Disk per word
    kind: str                # "interval" | "disk"
    trap_diameter: float

    def max_diameter(self) -> float:
        if self.kind == "interval":
            return max(e.width for e in self.elements)
        return max(e.diameter() for e in self.elements)

    def contains_point(self, z: complex) -> bool:
        if self.kind == "interval":
            return any(z.imag == 0.0 and z.real in e for e in self.elements)
        return any(z in e for e in self.elements)


def _system_trap(system):
    if isinstance(system, MapSpec):
        if system.mode is Mode.REAL_1D:
            return system.trap_interval(), "interval"
        return system.trap_disk(), "disk"
    if isinstance(system, AffinePair):
        return system.trap_interval(), "interval"
    raise TypeError(f"unsupported system: {system!r}")


def _apply_branch(system, kind: str, branch: int, element):
    if isinstance(system, MapSpec):
        if kind == "interval":
            return _branch_interval(system, branch, element)
        return _branch_disk(system, branch, element)
    return system.branch_interval(branch, element)


def backward_cover(system, n: int) -> DiskCover:
    """The 2^n certified enclosures of g_w(trap) over words of length n."""
    if not (0 <= n <= DEPTH_CAP):
        raise ValueError(f"cover level must lie in 0..{DEPTH_CAP}")
    trap, kind = _system_trap(system)
    cover = DiskCover(level=0, words=("",), elements=(trap,), kind=kind,
                      trap_diameter=trap.width if kind == "interval" else trap.diameter())
    for _ in range(n):
        cover = _deeper(system, cover)
    return cover


def _deeper(system, cover: DiskCover) -> DiskCover:
    """The cover one level deeper, in word order: the words b + w for
    b = 0, then b = 1, each over the cover's own words in their order.
    Raises HyperbolicityError unless the largest enclosure shrinks."""
    kind = cover.kind
    deeper = DiskCover(level=cover.level + 1,
                       words=tuple(str(b) + w for b in (0, 1) for w in cover.words),
                       elements=tuple(_apply_branch(system, kind, b, e)
                                      for b in (0, 1) for e in cover.elements),
                       kind=kind,
                       trap_diameter=cover.trap_diameter)
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
    def h(self) -> float:
        return self.hs[0]

    @property
    def count(self) -> int:
        return self.counts[0]

    @property
    def maxdiam(self) -> float:
        return self.maxdiams[0]

    def merged(self, other: "CoverStats") -> "CoverStats":
        rows = sorted(zip(self.hs + other.hs, self.counts + other.counts,
                          self.maxdiams + other.maxdiams))
        hs, cs, ds = zip(*rows)
        return CoverStats(hs, cs, ds)

    def to_csv(self, path: str) -> None:
        write_csv(path, "h,P,maxdiam", zip(self.hs, self.counts, self.maxdiams))


def _interval_components(elements, h: float):
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


def _disk_components(elements, h: float):
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
    groups: dict[int, list[int]] = {}
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
        comps = _interval_components(cover.elements, h)
    else:
        comps = _disk_components(cover.elements, h)
    return CoverStats(hs=(h,), counts=(len(comps),), maxdiams=(max(comps),))


def cover_profile(system, hs, depth_factor: float = 4.0,
                  max_level: int = DEPTH_CAP) -> CoverStats:
    """P(h) across scales, with the cover depth coupled to h: each h uses
    the shallowest cover whose elements have diameter <= h / depth_factor,
    so the inflated cover has the same components as the inflated set.
    Scales run coarse to fine, and only the deepest cover so far is kept
    and extended a level at a time."""
    hs = sorted(set(float(h) for h in hs), reverse=True)
    if not hs:
        raise ValueError("empty scale list")
    max_level = min(max_level, DEPTH_CAP)
    cover = backward_cover(system, 0)
    rows = []
    for h in hs:
        while cover.max_diameter() > h / depth_factor:
            if cover.level >= max_level:
                raise ResolutionError(
                    f"scale h = {h} needs a cover deeper than level {max_level}")
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
    n_scales: int
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
    return BoxFit(delta_box=float(slope), r2=r2, k_max=k_max,
                  n_scales=len(rows), reliable=r2 >= 0.95)


def box_dimension(system, h_max: float | None = None, n_scales: int = 25,
                  decades: float = 3.0) -> tuple[BoxFit, CoverStats]:
    """Convenience pipeline: geometric h grid spanning `decades` below
    h_max (default: a safe fraction of the trap), profile, fit.

    Three decades with ~25 scales averages out the log-periodic staircase
    of Cantor component counts; single-decade fits can be off by 0.05.
    """
    if h_max is None:
        trap, kind = _system_trap(system)
        diam = trap.width if kind == "interval" else trap.diameter()
        h_max = diam / 120.0
    hs = [h_max * 10.0 ** (-decades * k / (n_scales - 1)) for k in range(n_scales)]
    stats = cover_profile(system, hs)
    fit = fit_box_dimension(stats, (min(hs) * 0.999, max(hs) * 1.001))
    return fit, stats
