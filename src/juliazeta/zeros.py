"""Zero location and counting via the argument principle.

Winding numbers are computed by adaptive phase tracking along contours:
every accepted segment keeps its phase increment below pi/2 and is
verified against its own midpoint, so branch aliasing is detected and
refined away.  A contour's winding is the sum of its edge phases.  An
edge is sampled by recursive halving, and the verified phase of every
dyadic sub-edge is memoised on the scan's evaluator cache, so a child of
a 0.5 quadrisection reuses its parent's edge halves and two siblings
share their common edge.  Regions are split until each cell winds at
most 5 times: quadrisected, or, for a conjugate-symmetric Z and a cell
symmetric about the real axis, cut into its axis strip and the band
above it (whose mirror is not scanned) or into two such cells in Re, so
that no split runs along the axis.  Then Newton, with secant slopes at
one evaluation a step, polishes the cell's zeros from the roots of the
polynomial that the Hankel system of the trapezoid moments of 1/Z over
the cell's cached boundary values gives.  For a conjugate-symmetric Z,
a zero that converges onto the real axis is bracketed by a sign change
of Re Z and shrunk to adjacent floats by Illinois regula falsi, so it
comes out exactly real; delta, the leading real zero, is so found from
a grid.

Each zero has one certificate: the argument-principle count of a region
that holds it, and a residual |Z(s)| <= _RESIDUAL_FACTOR |Z'| r_loc.  A
scan's region is the cell whose verified winding seeded the zero (which
assumes Z has no pole there); delta's is the adjacent-float bracket of
its sign change, as Z is real and continuous on the axis.  A scan or
solve memoises Z in one `_CachedEvaluator`, which calls Z at a point
when first asked for it, and for a conjugate-symmetric Z serves every
point below the axis as the conjugate of its mirror.
Counting reports fit the growth exponents the theory bounds.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (BoundaryZeroError, ClusterWarning, CompletenessError,
                     ConvergenceError, NoZeroError)
from .util import write_csv

_PHASE_CAP = 0.5 * math.pi
_MIN_PARAM = 1e-10
_NODES_PER_EDGE = 16      # a contour edge has at least this many segments,
_BOUNDARY_STEP = 0.5      # at most this far apart
_MAX_NEWTON = 60          # Newton steps, which stop at a step of
_STEP_TOL = 5e-13         # at most _STEP_TOL (1 + |s|)
_R_LOC = 0.05             # a zero's local radius r_loc; the residual must be at
_RESIDUAL_FACTOR = 1e-8   # most this times |Z'| r_loc, |Z| at that distance
_DEPTH_LIMIT = 42         # a scan's split depth
_JITTER_ATTEMPTS = 3      # a scan's retries of an outer contour that grazes a zero
_MOMENT_WINDING = 5       # a scan's cells winding at most this often seed Newton
_COARSE_STRIDE = 8        # grid cells per coarse cell of the leading real zero's walk


@dataclass(frozen=True)
class Rectangle:
    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    def __post_init__(self):
        if not (self.re_lo < self.re_hi and self.im_lo < self.im_hi):
            raise ValueError(f"degenerate rectangle {self}")

    @property
    def width(self) -> float:
        return self.re_hi - self.re_lo

    @property
    def height(self) -> float:
        return self.im_hi - self.im_lo

    @property
    def center(self) -> complex:
        return complex(0.5 * (self.re_lo + self.re_hi), 0.5 * (self.im_lo + self.im_hi))

    @property
    def diag(self) -> float:
        return math.hypot(self.width, self.height)

    def corners(self) -> list[complex]:
        return [complex(self.re_lo, self.im_lo), complex(self.re_hi, self.im_lo),
                complex(self.re_hi, self.im_hi), complex(self.re_lo, self.im_hi)]

    def contains(self, s: complex, slack: float = 0.0) -> bool:
        return (self.re_lo - slack <= s.real <= self.re_hi + slack and
                self.im_lo - slack <= s.imag <= self.im_hi + slack)

    def shifted(self, dz: complex) -> "Rectangle":
        return Rectangle(self.re_lo + dz.real, self.re_hi + dz.real,
                         self.im_lo + dz.imag, self.im_hi + dz.imag)

    def split(self, frac: float = 0.5) -> list["Rectangle"]:
        mr = self.re_lo + frac * self.width
        mi = self.im_lo + frac * self.height
        return [Rectangle(self.re_lo, mr, self.im_lo, mi),
                Rectangle(mr, self.re_hi, self.im_lo, mi),
                Rectangle(self.re_lo, mr, mi, self.im_hi),
                Rectangle(mr, self.re_hi, mi, self.im_hi)]


class _CachedEvaluator:
    """The memo of Z for one scan or solve: a point is evaluated by the
    evaluator's call when first asked for.  For an evaluator that reports
    `conjugate_symmetric` (Z(conj s) = conj Z(s)), a point below the real
    axis is served as the exact conjugate of the value at its mirror; the
    requested point is stored too, since moment seeds look points up in
    `cache` by key."""

    def __init__(self, ev):
        self.ev = ev
        self.method = getattr(ev, "method", "")
        self.conjugate_symmetric = getattr(ev, "conjugate_symmetric", False)
        self.cache: dict[complex, complex] = {}
        # verified phase of Z along each dyadic sub-edge of a contour,
        # keyed by (low end, high end, boundary step)
        self.edges: dict[tuple[complex, complex, float], float] = {}

    def __call__(self, s: complex) -> complex:
        s = complex(s)
        v = self.cache.get(s)
        if v is None:
            if self.conjugate_symmetric and s.imag < 0.0:
                v = self(s.conjugate()).conjugate()
            else:
                v = complex(self.ev(s))
            self.cache[s] = v
        return v


def _segment_phase(ev: _CachedEvaluator, pa: complex, pb: complex,
                   va: complex, vb: complex, scale: float,
                   depth: int = 64) -> float:
    """Verified phase increment of Z from pa to pb.

    Accepts a segment only when both half-increments stay below pi/2 and
    their sum is consistent with the principal increment of the whole
    segment (a 2 pi mismatch is exactly a missed loop)."""
    if va == 0 or vb == 0:
        raise BoundaryZeroError(f"Z vanishes on the contour near {pa}")
    floor = max(_MIN_PARAM * scale, 64.0 * 2.3e-16 * (1.0 + abs(pa)))
    if depth <= 0 or abs(pb - pa) < floor:
        raise BoundaryZeroError(
            f"phase step cannot be refined below minimum near {pa}")
    pm = 0.5 * (pa + pb)
    if pm == pa or pm == pb:
        raise BoundaryZeroError(f"contour refinement hit float resolution at {pa}")
    vm = ev(pm)
    if vm == 0:
        raise BoundaryZeroError(f"Z vanishes on the contour at {pm}")
    whole = cmath.phase(vb / va)
    left = cmath.phase(vm / va)
    right = cmath.phase(vb / vm)
    if abs(left) < _PHASE_CAP and abs(right) < _PHASE_CAP and \
            abs(left + right - whole) < 1e-6:
        return left + right
    return (_segment_phase(ev, pa, pm, va, vm, scale, depth - 1) +
            _segment_phase(ev, pm, pb, vm, vb, scale, depth - 1))


def _halve(p: complex, q: complex) -> complex:
    # Rectangle.split's expression at fraction 0.5, so that every corner
    # a 0.5 quadrisection creates is already a node of its parent's edges
    return complex(p.real + 0.5 * (q.real - p.real), p.imag + 0.5 * (q.imag - p.imag))


def _reversed(p: complex, q: complex) -> bool:
    return (q.real, q.imag) < (p.real, p.imag)


def _edge_phase(ev: _CachedEvaluator, p: complex, q: complex, step: float,
                depth: int, scale: float) -> float:
    """Verified phase increment of Z from p to q over 2**depth leaf
    segments of recursive halving.

    Every sub-edge's phase is memoised on `ev` under (low end, high end,
    step): a reversed edge returns the exact negation, and a sub-edge
    already verified costs nothing."""
    if _reversed(p, q):
        return -_edge_phase(ev, q, p, step, depth, scale)
    key = (p, q, step)
    phase = ev.edges.get(key)
    if phase is None:
        if depth == 0:
            phase = _segment_phase(ev, p, q, ev(p), ev(q), scale)
        else:
            m = _halve(p, q)
            phase = (_edge_phase(ev, p, m, step, depth - 1, scale) +
                     _edge_phase(ev, m, q, step, depth - 1, scale))
        ev.edges[key] = phase
    return phase


def _winding(ev: _CachedEvaluator, paths: list, step: float, where: Rectangle) -> int:
    """Winding of Z about the contour made of the polylines `paths`, from
    their edge phases (see `winding_number`); the Rectangle `where` names
    the contour, and its diagonal scales the refinement floor."""
    phase = 0.0
    for path in paths:
        for a, b in zip(path, path[1:]):
            n = max(_NODES_PER_EDGE, math.ceil(abs(b - a) / step))
            phase += _edge_phase(ev, a, b, step, (n - 1).bit_length(), where.diag)
    w = phase / (2.0 * math.pi)
    if abs(w - round(w)) > 0.01:
        raise ConvergenceError(f"non-integer winding {w} on {where}")
    return int(round(w))


def winding_number(evaluator, rect: Rectangle,
                   boundary_step: float = _BOUNDARY_STEP) -> int:
    """Argument-principle count of zeros (with multiplicity) inside the
    rectangle, from the total phase change along its boundary.

    The boundary is four edge phases.  An edge is split by recursive
    halving into the next power of two of at least _NODES_PER_EDGE
    segments, spaced at most `boundary_step` apart; midpoint verification
    then refines every segment whose phase increment is in doubt.  The
    phase of every halving sub-edge is memoised on the evaluator cache
    per `boundary_step`, so the windings of a scan reuse each other's
    edges: a 0.5 quadrisection's children get their outer edges from the
    parent, and two siblings compute their common edge once.  A node is
    evaluated when the walk reaches it, so a winding that stops at a
    zero on its boundary evaluates no node beyond it.
    """
    ev = evaluator if isinstance(evaluator, _CachedEvaluator) else _CachedEvaluator(evaluator)
    corners = rect.corners()
    return _winding(ev, [corners + corners[:1]], boundary_step, rect)


@dataclass(frozen=True)
class ZeroRecord:
    s: complex
    multiplicity: int
    residual: float
    method: str = ""
    resolved: bool = True


def _newton(evaluator, seed: complex, max_step: float) -> tuple[complex, complex]:
    """Newton's limit from a seed, and the slope dz of its last step.

    The first slope is a forward difference with step h = 1e-7 (1 + |s|),
    at one extra evaluation; each later one is the secant through the
    last two iterates, so a step costs one evaluation, that of its
    iterate.  When those are closer than h, the last slope is kept: their
    difference quotient would be rounding noise.  Steps are clamped to
    `max_step` so a distant seed cannot fling the iteration out of its
    basin; an iteration that does not converge raises ConvergenceError."""
    s = complex(seed)
    best_step, best_s, stale = math.inf, s, 0
    try:
        z = complex(evaluator(s))
        h = 1e-7 * (1.0 + abs(s))
        dz = (complex(evaluator(s + h)) - z) / h
        for _ in range(_MAX_NEWTON):
            if dz == 0:
                break
            step = z / dz
            if abs(step) > max_step:
                step *= max_step / abs(step)
            s -= step
            if abs(step) < best_step:
                best_step, best_s, stale = abs(step), s, 0
            else:
                stale += 1
            if abs(step) <= _STEP_TOL * (1.0 + abs(s)):
                return s, dz
            # chattering at the evaluator noise floor: accept the best iterate
            if stale >= 4 and best_step <= 1e-8 * (1.0 + abs(s)):
                return best_s, dz
            z, z_last = complex(evaluator(s)), z
            if abs(step) >= 1e-7 * (1.0 + abs(s)):
                dz = (z_last - z) / step
    except OverflowError as exc:
        raise ConvergenceError(f"Newton overflowed from seed {seed}") from exc
    except Exception as exc:
        # the iteration wandered out of the evaluator's validity region
        raise ConvergenceError(f"Newton left the valid region from seed {seed}") from exc
    raise ConvergenceError(f"Newton did not converge from seed {seed}")


def _placed(evaluator, s: complex, region: Rectangle) -> complex:
    """A Newton limit checked to lie in `region` (up to 1e-12 of its
    diagonal), else NoZeroError; with a `conjugate_symmetric` evaluator
    and a region that meets the real axis, a limit within 1e-8 (1 + |s|)
    of the axis is solved on the axis (`_axis_zero`)."""
    if not region.contains(s, slack=1e-12 * region.diag):
        raise NoZeroError(f"Newton converged to {s}, outside {region}")
    if getattr(evaluator, "conjugate_symmetric", False) and \
            region.im_lo <= 0.0 <= region.im_hi and abs(s.imag) <= 1e-8 * (1.0 + abs(s)):
        x = _axis_zero(evaluator, s.real, region.re_lo, region.re_hi)
        if x is not None:
            s = complex(x)
    return s


# no library path calls this; it is kept because the benchmark's tracer patches it
def refine_zero(evaluator, seed: complex, max_step: float = math.inf,
                region: Rectangle | None = None) -> ZeroRecord:
    """Newton-polish a zero from a seed (`_newton`) and certify it as a
    scan does, with the square of half-side r_loc about it as its cell:
    the square's winding is its multiplicity, and |dz| of Newton's last
    step stands for |Z'|.  A Newton iteration that does not converge
    raises NoZeroError when the square about the seed winds 0, and
    ConvergenceError otherwise.  With a `region`, the limit is placed by
    `_placed` before the certificate is paid for.
    """
    ev = _CachedEvaluator(evaluator)

    def winding_about(s: complex) -> int:
        r = _r_loc(s)
        return winding_number(ev, Rectangle(-r, r, -r, r).shifted(s))

    try:
        s, dz = _newton(ev, seed, max_step)
    except ConvergenceError:
        # distinguish a bad seed from a hard iteration failure
        try:
            if winding_about(complex(seed)) == 0:
                raise NoZeroError(f"winding 0 around seed {seed}")
        except BoundaryZeroError:
            pass
        raise
    if region is not None:
        s = _placed(ev, s, region)
    w = winding_about(s)
    if w == 0:
        raise NoZeroError(f"no zero within {_r_loc(s)} of refined seed {s}")
    return _checked(ev, s, w, abs(dz) * _r_loc(s))


def _r_loc(s: complex) -> float:
    return max(_R_LOC, 1e-7 * (1.0 + abs(s)))


def _checked(ev: _CachedEvaluator, s: complex, multiplicity: int,
             scale: float) -> ZeroRecord:
    """The record of s, once its residual |Z(s)| is at most
    _RESIDUAL_FACTOR times the local scale of Z."""
    residual = abs(ev(s))
    if residual > _RESIDUAL_FACTOR * scale:
        raise ConvergenceError(
            f"residual {residual} exceeds {_RESIDUAL_FACTOR} * local scale {scale}")
    return ZeroRecord(s=s, multiplicity=multiplicity, residual=residual, method=ev.method)


def _cell_zeros(ev: _CachedEvaluator, cell: Rectangle, w: int) -> list[ZeroRecord]:
    """The zeros of a cell whose verified winding is w: Newton from each
    of its moment seeds ([] when it has none), placed in the cell by
    `_placed`, with |dz| of Newton's last step as |Z'|.  A limit within
    1e-8 (1 + |s|) of an earlier one raises ConvergenceError, as a failed
    Newton run does."""
    found: list[ZeroRecord] = []
    for seed in _moment_seeds(ev, cell, w):
        s, dz = _newton(ev, seed, cell.diag)
        s = _placed(ev, s, cell)
        if any(abs(s - r.s) <= 1e-8 * (1.0 + abs(s)) for r in found):
            raise ConvergenceError(f"two seeds in {cell} reach the zero {s}")
        found.append(_checked(ev, s, 1, abs(dz) * _r_loc(s)))
    return found


def _cached_walk(ev: _CachedEvaluator, p: complex, q: complex, out: list) -> None:
    """Appends to `out` the nodes from p up to, not including, q of the
    dyadic halvings of [p, q] whose midpoints are already evaluated."""
    m = _halve(p, q)
    if m != p and m != q and m in ev.cache:
        _cached_walk(ev, p, m, out)
        _cached_walk(ev, m, q, out)
    else:
        out.append(p)


def _moment_seeds(ev: _CachedEvaluator, cell: Rectangle, w: int) -> list[complex]:
    """Seeds for the w zeros z_j of a cell that winds w times, from the
    moments mu_k of 1/Z, k < 2w, by the trapezoid rule over the boundary
    nodes the windings evaluated, so at no cost (Delves & Lyness, Math.
    Comp. 21 (1967) 543-560; Kravanja & Van Barel, LNM 1727 (2000)).  If
    Z has no pole in the cell, mu_k = 2 pi i sum_j z_j^k / Z'(z_j), and
    the z_j are the roots of the monic polynomial whose coefficients
    solve the Hankel system of the mu_k.  For w = 1 the seed is mu_1 /
    mu_0 in s itself, or the cell centre when a corner was never
    evaluated, a node value is 0, mu_0 vanishes, or the seed lies outside
    the cell; for w > 1, in u = (s - centre) / (diag / 2), [] is returned
    in those cases, or when `_solve` refuses the system."""
    corners = cell.corners()
    nodes = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        edge: list[complex] = []
        if _reversed(a, b):
            _cached_walk(ev, b, a, edge)
            edge = [a] + edge[:0:-1]
        else:
            _cached_walk(ev, a, b, edge)
        nodes += edge
    values = [ev.cache.get(s) for s in nodes]
    if None in values or 0 in values:
        return [cell.center] if w == 1 else []
    half = 0.5 * cell.diag
    u = np.array(nodes) if w == 1 else (np.array(nodes) - cell.center) / half
    with np.errstate(all="ignore"):
        f, du, mu = 1.0 / np.array(values), np.roll(u, -1) - u, []
        for _ in range(2 * w):
            mu.append(np.sum(0.5 * (f + np.roll(f, -1)) * du))
            f = u * f
        if w == 1:
            seed = complex(mu[1] / mu[0]) if mu[0] != 0 else cell.center
            return [seed if cell.contains(seed) else cell.center]
    coef = _solve([[complex(m) for m in mu[i:i + w]] for i in range(w)],
                  [-complex(m) for m in mu[w:]])
    seeds = [cell.center + half * r for r in _roots(coef)] if coef else []
    return seeds if all(cell.contains(s) for s in seeds) else []


def _solve(a: list[list[complex]], b: list[complex]) -> list[complex] | None:
    """x with a x = b, by elimination with partial pivoting; None when a
    pivot is below 1e-10 of the largest entry of a, or that is not finite."""
    n, big = len(b), max(abs(x) for row in a for x in row)
    rows = [row + [y] for row, y in zip(a, b)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[p] = rows[p], rows[k]
        if not (math.isfinite(big) and abs(rows[k][k]) >= 1e-10 * big):
            return None
        for i in range(k + 1, n):
            m = rows[i][k] / rows[k][k]
            rows[i] = [x - m * y for x, y in zip(rows[i], rows[k])]
    x = [0j] * n
    for k in reversed(range(n)):
        x[k] = (rows[k][n] - sum(rows[k][j] * x[j] for j in range(k + 1, n))) / rows[k][k]
    return x


def _roots(coef: list[complex]) -> list[complex]:
    """The roots of u^n + coef[n-1] u^(n-1) + ... + coef[0], by the
    Durand-Kerner iteration from the fixed start (0.4 + 0.9i)^k."""
    n = len(coef)
    z = [(0.4 + 0.9j) ** k for k in range(n)]
    for _ in range(100):
        moved = 0.0
        for k in range(n):
            p = z[k] ** n + sum(c * z[k] ** i for i, c in enumerate(coef))
            d = math.prod(z[k] - z[j] for j in range(n) if j != k)
            step = p / d if d else 0.0
            z[k] -= step
            moved = max(moved, abs(step))
        if moved <= 1e-15:
            break
    return z


def _axis_zero(ev, x0: float, lo: float, hi: float) -> float | None:
    """An exactly real zero of Z near x0 within [lo, hi], for a Z that is
    real on the axis: Re Z is bracketed about x0 on steps from 1e-12 (1 +
    |x0|) widening 16-fold, and `_sign_change` closes the bracket.  None
    when no sign change is found."""
    def re_z(x: float) -> float:
        return complex(ev(complex(x))).real

    x0 = min(max(x0, lo), hi)
    f0 = re_z(x0)
    if f0 == 0.0:
        return x0
    h = 1e-12 * (1.0 + abs(x0))
    while True:
        a, b = max(x0 - h, lo), min(x0 + h, hi)
        fa = re_z(a)
        if fa * f0 <= 0.0:
            return a if fa == 0.0 else _sign_change(re_z, a, x0, fa, f0)
        fb = re_z(b)
        if fb * f0 <= 0.0:
            return b if fb == 0.0 else _sign_change(re_z, x0, b, f0, fb)
        if a == lo and b == hi:
            return None
        h *= 16.0


# split fractions of a cell, tried in turn when a split line grazes a zero
_SPLIT_FRACTIONS = (0.5, 0.5231, 0.4593, 0.5417, 0.4381, 0.5639)
# strip half-heights of a tall axis cell, as fractions of im_hi, likewise
_STRIP_FRACTIONS = (0.025, 0.05, 0.065)


def _mirrored(rec: ZeroRecord) -> ZeroRecord:
    return replace(rec, s=rec.s.conjugate())


def scan_region(evaluator, rect: Rectangle) -> list[ZeroRecord]:
    """All zeros in the rectangle: recursive subdivision until a cell
    winds w <= _MOMENT_WINDING times, then Newton refinement of its w
    zeros from its moment seeds, which cost no evaluation (`_cell_zeros`),
    certified by the cell's winding (no route's Z has a pole in a cell).
    A cell with no seeds, or whose iterates converge outside it, do not
    converge, fail the residual or find a zero twice, is split; after
    such failed runs at w > 1, its children of winding w run none.  With
    a `conjugate_symmetric` evaluator, a zero within 1e-8 (1 + |s|) of
    the real axis in a cell that meets the axis is solved on the axis and
    returned exactly real (see `_placed`).  Records are sorted by Im s,
    and each run of records whose Im lies within 1e-8 (1 + |s|) of the
    run's first by decreasing Re s: zeros of one height, whose Im parts
    differ by rounding, so come in a fixed order, and the real zeros come
    with the leading one, delta, first.

    A cell is split one of three ways, tried at the next fraction when a
    split line grazes a zero; no split runs along the real axis.  An axis
    cell is symmetric about the axis (im_lo == -im_hi), with a
    `conjugate_symmetric` Z (Z(conj s) = conj Z(s)).  One taller than
    wide is cut into its strip |Im s| <= eta, eta in _STRIP_FRACTIONS
    times im_hi, and the band above it, which counts twice in the winding
    and whose records are mirrored for the band below; any other axis
    cell is cut in Re into two axis cells, and any other cell
    quadrisected, at _SPLIT_FRACTIONS.  A tall axis rectangle's outer
    winding runs through its first strip's corners, so the band's winding
    then evaluates nothing and the strip's only its line Im s = eta,
    which the check w = w(strip) + 2 w(band) tests.

    The multiplicities sum to the whole-rectangle winding, and no two
    resolved records lie within 1e-8 (1 + |s|), as one zero that two cells
    report would; a cell still winding > 1 at the depth limit is returned
    unresolved with a ClusterWarning.  When the outer contour, or every
    split of a cell up to the root, grazes a zero, the rectangle is
    jittered and scanned again.  Children's windings are checked to add
    up to their parent's, re-sampled more densely on mismatch.  Each
    failed check is a completeness error.
    """
    ev = _CachedEvaluator(evaluator)

    def on_axis(cell: Rectangle) -> bool:
        return ev.conjugate_symmetric and cell.im_lo == -cell.im_hi

    def splits(cell: Rectangle):
        """(children, copies) per split, in the order tried; child k counts copies[k] times."""
        x0, x1, top = cell.re_lo, cell.re_hi, cell.im_hi
        if not on_axis(cell):
            for frac in _SPLIT_FRACTIONS:
                yield cell.split(frac), (1, 1, 1, 1)
        elif cell.height > cell.width:
            for eta in (frac * top for frac in _STRIP_FRACTIONS):
                yield [Rectangle(x0, x1, -eta, eta), Rectangle(x0, x1, eta, top)], (1, 2)
        else:
            for mr in (x0 + frac * cell.width for frac in _SPLIT_FRACTIONS):
                yield [Rectangle(x0, mr, -top, top), Rectangle(mr, x1, -top, top)], (1, 1)

    def outer_winding(cell: Rectangle) -> int:
        if not (on_axis(cell) and cell.height > cell.width):
            return winding_number(ev, cell)
        # the contour through the first strip's corners; its lower half
        # mirrors the band's sides and top, so it has their phase
        x0, x1, top, eta = cell.re_lo, cell.re_hi, cell.im_hi, _STRIP_FRACTIONS[0] * cell.im_hi
        path = [complex(x1, -eta), complex(x1, eta), complex(x1, top),
                complex(x0, top), complex(x0, eta), complex(x0, -eta)]
        return _winding(ev, [path, path[1:5]], _BOUNDARY_STEP, cell)

    def windings_consistently(cell: Rectangle, w: int, children, copies):
        """Windings of the children, verified to add up (child k counted
        copies[k] times) to the cell's winding, tightening the boundary
        sampling (and re-verifying the parent) on mismatch."""
        step = _BOUNDARY_STEP
        for _ in range(3):
            ws = [winding_number(ev, child, boundary_step=step) for child in children]
            total = sum(k * cw for k, cw in zip(copies, ws))
            if total == w:
                return ws, w
            w_again = winding_number(ev, cell, boundary_step=step / 2.0)
            if total == w_again:
                return ws, w_again
            step /= 2.0
        raise CompletenessError(
            f"children of {cell} wind {total}, parent winds {w}")

    def handle(cell: Rectangle, w: int, depth: int, failed: int = 0):
        """Returns (records, verified winding) for the cell.  A
        BoundaryZeroError from a descendant bubbles up to the level whose
        split line grazed the zero, which then re-splits elsewhere.
        `failed` is the winding w > 1 of the parents whose Newton runs
        failed; a cell of the same winding does not run them again."""
        if w == 0:
            return [], 0
        if 0 < w <= _MOMENT_WINDING and w != failed:
            try:
                found = _cell_zeros(ev, cell, w)
                if found:
                    return found, w
            except (ConvergenceError, NoZeroError, BoundaryZeroError):
                failed = w if w > 1 else 0
            # no seeds, or Newton escaped the cell, stalled, missed the
            # residual or found a zero twice: keep subdividing
        if depth >= _DEPTH_LIMIT or cell.diag < 1e-8 * (1.0 + abs(cell.center)):
            warnings.warn(f"cell {cell} unresolved with winding {w}", ClusterWarning)
            return [ZeroRecord(s=cell.center, multiplicity=w, residual=abs(ev(cell.center)),
                               method=ev.method, resolved=False)], w
        last: BaseException | None = None
        for children, copies in splits(cell):
            try:
                ws, w2 = windings_consistently(cell, w, children, copies)
                out = []
                for child, cw, k in zip(children, ws, copies):
                    sub, _ = handle(child, cw, depth + 1, failed)
                    out += sub if k == 1 else sub + [_mirrored(r) for r in sub]
                return out, w2
            except BoundaryZeroError as exc:
                last = exc
        raise last if last is not None else AssertionError("unreachable")

    outer = rect
    for attempt in range(_JITTER_ATTEMPTS + 1):
        try:
            records, w_total = handle(outer, outer_winding(outer), 0)
            break
        except BoundaryZeroError:
            if attempt == _JITTER_ATTEMPTS:
                raise
            outer = rect.shifted(complex(1e-6 * rect.width * (attempt + 1),
                                         1.3e-6 * rect.height * (attempt + 1)))
    if sum(r.multiplicity for r in records) != w_total:
        raise CompletenessError(
            f"found multiplicities sum {sum(r.multiplicity for r in records)}, "
            f"rectangle winds {w_total}")
    records.sort(key=lambda r: (r.s.imag, -r.s.real))
    for i, a in enumerate(records):
        tol = 1e-8 * (1.0 + abs(a.s))
        for b in records[i + 1:]:
            if b.s.imag - a.s.imag > tol:
                break
            if a.resolved and b.resolved and abs(b.s - a.s) <= tol:
                raise CompletenessError(f"two cells report the zero {a.s} ({b.s})")
    rows: list[list[ZeroRecord]] = []
    for r in records:
        if rows and r.s.imag - rows[-1][0].s.imag <= 1e-8 * (1.0 + abs(rows[-1][0].s)):
            rows[-1].append(r)
        else:
            rows.append([r])
    return [r for row in rows for r in sorted(row, key=lambda r: -r.s.real)]


def export_zeros(path: str, records) -> None:
    write_csv(path, "re_s,im_s,multiplicity,residual",
              [(r.s.real, r.s.imag, r.multiplicity, r.residual) for r in records])


DELTA_BRACKET = (0.05, 0.95)   # where jobs and scripts seek delta on the real axis


def leading_real_zero(evaluator, bracket: tuple[float, float]) -> ZeroRecord:
    """The zero of largest real part on the real axis within the bracket
    (Z is real there for real parameters).

    Re Z is read on a 64-point grid over the bracket from the right, coarse
    to fine: first at every _COARSE_STRIDE-th node (and the left end),
    stopping at the first coarse cell whose left node is 0 or changes
    sign, then at that cell's nodes, stopping at the first sign change.
    That is the grid cell the walk over every node finds, so the record
    is the same to the bit, as long as no coarse cell right of the zero
    holds two: for the transfer operator Z > 0 for real s > delta.  No
    point left of the coarse cell that holds the zero is evaluated.
    `_sign_change` shrinks the grid cell to adjacent
    floats and returns an exactly real zero, certified by that sign change
    with the grid cell's secant as |Z'|; delta is simple, since the
    pressure P(-s log|f'|) is strictly decreasing.  Both walks and the
    regula falsi share one cache.
    """
    ev = _CachedEvaluator(evaluator)

    def re_z(x: float) -> float:
        return ev(complex(x)).real

    def walk(ks) -> tuple[int, int] | None:
        """(k, j) of the first j after ks[0] in the descending grid
        indices ks whose value is 0 or has the sign opposite to that at
        k, its predecessor in ks."""
        right = re_z(xs[ks[0]])
        for k, j in zip(ks, ks[1:]):
            v = re_z(xs[j])
            if v == 0.0 or v * right < 0.0:
                return k, j
            right = v
        return None

    lo, hi = bracket
    xs = np.linspace(lo, hi, 64)
    coarse = walk(list(range(len(xs) - 1, 0, -_COARSE_STRIDE)) + [0])
    fine = coarse and walk(range(coarse[0], coarse[1] - 1, -1))
    if not fine:
        raise NoZeroError(f"no sign change of Z on [{lo}, {hi}]")
    k, j = fine
    right, v = re_z(xs[k]), re_z(xs[j])
    root = float(xs[j]) if v == 0.0 else _sign_change(re_z, float(xs[j]), float(xs[k]), v, right)
    slope = (right - v) / (xs[k] - xs[j])
    return _checked(ev, complex(root), 1, abs(slope) * _r_loc(complex(root)))


def _sign_change(f, a: float, b: float, fa: float, fb: float) -> float:
    """A zero of f between a < b, where fa and fb have opposite signs:
    an exact zero, or else the end of the final adjacent-float bracket
    with the smaller |f|.

    Illinois regula falsi (Dowell & Jarratt, BIT 11 (1971) 168-174): the
    secant through the bracket ends, with the value of an end halved each
    further step that keeps it.  Brent's safeguards (Algorithms for
    Minimization without Derivatives, 1973): a trial point that rounds
    onto an end moves one float inside, and one outside the open bracket,
    or after three steps in a row that failed to halve the bracket, is
    replaced by the midpoint.  Every step keeps the sign change.
    """
    ga, gb = fa, fb     # interpolation weights of the ends
    kept = 0            # +1: b was kept by the last step, -1: a was
    slow = 0
    while True:
        mid = a + 0.5 * (b - a)
        if not a < mid < b:
            return a if abs(fa) <= abs(fb) else b
        width = b - a
        x = a - ga * width / (gb - ga)
        if x == a or x == b:
            x = math.nextafter(x, b if x == a else a)
        if slow >= 3 or not a < x < b:
            x = mid
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a, fa, ga = x, fx, fx
            if kept == 1:
                gb *= 0.5
            kept = 1
        else:
            b, fb, gb = x, fx, fx
            if kept == -1:
                ga *= 0.5
            kept = -1
        slow = slow + 1 if b - a > 0.5 * width else 0


# ---------------------------------------------------------------------------
# counting reports

@dataclass(frozen=True)
class StripFamily:
    """{ Re s > -c0, |Im s| <= r }"""
    c0: float
    name: str = field(default="strip", init=False)

    def member(self, s: complex, r: float) -> bool:
        return s.real > -self.c0 and abs(s.imag) <= r

    def params(self) -> dict:
        return {"c0": self.c0}


@dataclass(frozen=True)
class PolyFamily:
    """{ |Re s| <= |Im s|^alpha, |s| >= 1, |s| <= r }"""
    alpha: float
    name: str = field(default="poly", init=False)

    def member(self, s: complex, r: float) -> bool:
        if abs(s) < 1.0 or abs(s) > r:
            return False
        return abs(s.real) <= abs(s.imag) ** self.alpha

    def params(self) -> dict:
        return {"alpha": self.alpha}


@dataclass(frozen=True)
class LogFamily:
    """Logarithmic neighbourhood in the rotated variable lambda =
    i (delta - s): { Im lambda < rho log |lambda|, |lambda| <= r }."""
    rho: float
    delta: float
    name: str = field(default="log", init=False)

    def member(self, s: complex, r: float) -> bool:
        lam = 1j * (self.delta - s)
        if abs(lam) > r or abs(lam) <= 1.0:
            return False
        return lam.imag < self.rho * math.log(abs(lam))

    def params(self) -> dict:
        return {"rho": self.rho, "delta": self.delta}


@dataclass(frozen=True)
class CountingReport:
    family: str
    params: dict
    rs: tuple[float, ...]
    counts: tuple[int, ...]
    exponent: float
    r2: float

    def to_csv(self, path: str) -> None:
        write_csv(path, "r,count", zip(self.rs, self.counts))

    def summary(self) -> dict:
        return {"family": self.family, "params": self.params,
                "exponent": self.exponent, "r2": self.r2}


def _loglog_fit(xs, ys) -> tuple[float, float]:
    """(slope, r2) of the least-squares line through (xs, ys); a series
    with no spread in ys fits with r2 = 1."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    tot = float(np.sum((ys - ys.mean()) ** 2))
    return float(slope), 1.0 - float(np.sum(resid ** 2)) / tot if tot > 0 else 1.0


def counting_report(zeros, family, rs) -> CountingReport:
    """Counts (with multiplicity) per radius plus a log-log fitted
    exponent over the radii with nonzero count."""
    rs = sorted(float(r) for r in rs)
    counts = []
    for r in rs:
        counts.append(sum(z.multiplicity for z in zeros if family.member(z.s, r)))
    xs = [math.log(r) for r, c in zip(rs, counts) if c > 0]
    ys = [math.log(c) for c in counts if c > 0]
    slope, r2 = _loglog_fit(xs, ys) if len(xs) >= 2 else (math.nan, math.nan)
    return CountingReport(family=family.name, params=family.params(),
                          rs=tuple(rs), counts=tuple(counts), exponent=slope, r2=r2)


# ---------------------------------------------------------------------------
# growth probe

@dataclass(frozen=True)
class GrowthFit:
    exponent: float
    r2: float
    rs: tuple[float, ...]
    max_log_abs: tuple[float, ...]
    skipped: tuple[float, ...]


def growth_exponent_probe(evaluator, c0: float, rs, re_samples: int = 33) -> GrowthFit:
    """Fit of log max log|Z| against log r, sampling |Z| on the segments
    { |Re s| <= c0, Im s = r }.

    Radii where max log|Z| <= 0 carry no exponent information and are
    skipped (reported in `skipped`).
    """
    res = np.linspace(-c0, c0, re_samples)
    rows, skipped = [], []
    for r in sorted(float(r) for r in rs):
        vals = np.abs(evaluator.batch(res + 1j * r))
        m = float(np.max(np.log(np.maximum(vals, 1e-300))))
        if m <= 0.0:
            skipped.append(r)
        else:
            rows.append((r, m))
    if len(rows) < 2:
        raise ConvergenceError("growth probe has fewer than two usable radii")
    slope, r2 = _loglog_fit(np.log([r for r, _ in rows]), np.log([m for _, m in rows]))
    return GrowthFit(exponent=slope, r2=r2,
                     rs=tuple(r for r, _ in rows),
                     max_log_abs=tuple(m for _, m in rows),
                     skipped=tuple(skipped))
