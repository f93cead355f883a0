"""Three routes to Z(s) = det(I - L(s)) for a two-branch expanding system.

* Cycle expansion: the dynamical formula
      log Z(s) = - sum_{n<=N} (1/n) sum_{f^n(z)=z} e^{-s L_n(z)} / den(z)
  over the periodic-orbit catalog, valid to the right of the convergence
  abscissa.  The denominator convention is a mode switch:
      Real1D      den = |1 - 1/Lambda|        (one complex variable)
      Complex2D   den = |1 - 1/Lambda|^2      (conformal 2x2 differential)
  The numerator uses e^{-s L_n} with the real length L_n = log |Lambda|.

* Fredholm determinant: det(I - L_M(s)) for the transfer operator
  discretized over a backward cover in per-element monomial bases, with
  Taylor coefficients extracted by trapezoidal quadrature of Cauchy
  integrals.  Entire in s; the route that sees zeros left of delta.

* Model product: prod_k (1 - A^{-(s+k)} - B^{-(s+k)}), the binomial
  length-model zeta; exact for two-branch affine systems.

Every evaluation reports a truncation-error estimate on the value scale.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .cover import backward_cover
from .dynamics import MapSpec, Mode, OrbitCatalog
from .errors import (CatalogError, CoverError, DivergenceRegionError,
                     PoleError, RadiusCapError)
from .intervals import Disk
from .util import write_csv


class Method(enum.Enum):
    CYCLE = "cycle"
    FREDHOLM = "fredholm"
    MODEL = "model"


@dataclass(frozen=True)
class ZetaValue:
    value: complex
    log_value: complex | None
    tail_bound: float
    method: Method

    def __post_init__(self):
        if not math.isfinite(self.tail_bound):
            raise ValueError("tail bound must be finite")


class Law(enum.Enum):
    POWER_OF_L = "rho^l"            # one-variable discretizations
    POWER_OF_SQRT_L = "rho^sqrt(l)"  # two-variable discretizations


@dataclass(frozen=True)
class TruncationModel:
    """Characteristic-value decay model nu_l <= C * rate^phi(l); used to
    pick the basis order and to report determinant tails.  An error model
    calibrated from the cover geometry, not a certificate."""

    C: float
    rate: float
    law: Law = Law.POWER_OF_L

    def __post_init__(self):
        if not (0.0 < self.rate < 1.0):
            raise ValueError("rate must lie in (0, 1)")
        if self.C <= 0.0:
            raise ValueError("C must be positive")

    def tail(self, m: int) -> float:
        """Predicted sum_{l >= m} nu_l."""
        if self.law is Law.POWER_OF_L:
            return self.C * self.rate ** m / (1.0 - self.rate)
        # integral bound for sum rho^sqrt(l): substitute u = sqrt(x)
        a = -math.log(self.rate)
        u = math.sqrt(max(m - 1, 0))
        return self.C * 2.0 * math.exp(-a * u) * (u / a + 1.0 / (a * a))

    def select_order(self, target: float, cap: int = 80) -> int:
        m = 1
        while m < cap and self.tail(m) > target:
            m += 1
        return m


# ---------------------------------------------------------------------------
# cycle expansion

def _cycle_arrays(catalog: OrbitCatalog, n_trunc: int, mode: Mode):
    """(lengths, denominators, weights) of the 2^n fixed points of f^n for
    n <= n_trunc, kept on the catalog so they live exactly as long as it."""
    key = (n_trunc, mode)
    hit = catalog.cycle_arrays.get(key)
    if hit is not None:
        return hit
    lengths, dens, weights = [], [], []
    for n in range(1, n_trunc + 1):
        for length, lam, p in catalog.fixed_point_data(n):
            base = abs(1.0 - 1.0 / lam)
            lengths.append(length)
            dens.append(base if mode is Mode.REAL_1D else base * base)
            weights.append(p / n)
    arrays = (np.array(lengths), np.array(dens), np.array(weights))
    catalog.cycle_arrays[key] = arrays
    return arrays


def cycle_convergence_abscissa(catalog: OrbitCatalog) -> float:
    """Right edge of the certified convergence region: the closed-form
    tail uses 2^n orbits of length >= n log A, so it is finite exactly
    for Re s > log 2 / log A (an upper bound for delta)."""
    return math.log(2.0) / catalog.log_a


def _cycle_log_tail(catalog: OrbitCatalog, n_trunc: int, re_s: float) -> float:
    """Closed form for sum_{n > N} 2^n e^{-Re s * n log A} / (n (1 - 1/A))."""
    q = 2.0 * math.exp(-re_s * catalog.log_a)
    if q >= 1.0:
        raise DivergenceRegionError(
            f"Re s = {re_s} is at or below the certified convergence "
            f"abscissa {cycle_convergence_abscissa(catalog)}")
    partial = sum(q ** n / n for n in range(1, n_trunc + 1))
    return (-math.log1p(-q) - partial) / (1.0 - 1.0 / catalog.a)


def cycle_log_zeta(s: complex, catalog: OrbitCatalog, n_trunc: int | None = None,
                   mode: Mode | None = None) -> ZetaValue:
    """Truncated cycle expansion of log Z(s) over the catalog.

    Valid for Re s above the certified convergence abscissa; refuses to
    extrapolate left of it.  tail_bound is the closed-form geometric tail
    transported to the value scale.
    """
    s = complex(s)
    if n_trunc is None:
        n_trunc = catalog.n_max
    if n_trunc > catalog.n_max:
        raise CatalogError(f"truncation {n_trunc} exceeds catalog depth {catalog.n_max}")
    if mode is None:
        mode = catalog.mode
    log_tail = _cycle_log_tail(catalog, n_trunc, s.real)
    lengths, dens, weights = _cycle_arrays(catalog, n_trunc, mode)
    log_z = -complex(np.sum(weights * np.exp(-s * lengths) / dens))
    value = cmath.exp(log_z)
    return ZetaValue(value=value, log_value=log_z,
                     tail_bound=abs(value) * math.expm1(log_tail),
                     method=Method.CYCLE)


def zero_free_abscissa(catalog: OrbitCatalog) -> float:
    """C0 with |log Z| <= log 2 (hence |Z| >= 1/2) for Re s >= C0, from
    the closed-form tail of the full cycle sum."""
    q = 1.0 - 2.0 ** (-(1.0 - 1.0 / catalog.a))
    return math.log(2.0 / q) / catalog.log_a


class CycleEvaluator:
    """Fast callable wrapper around the cycle expansion."""

    method = Method.CYCLE

    def __init__(self, catalog: OrbitCatalog, n_trunc: int | None = None,
                 mode: Mode | None = None):
        self.catalog = catalog
        self.n_trunc = catalog.n_max if n_trunc is None else n_trunc
        if self.n_trunc > catalog.n_max:
            raise CatalogError(f"truncation {self.n_trunc} exceeds catalog depth")
        self.mode = catalog.mode if mode is None else mode
        self._arrays = _cycle_arrays(catalog, self.n_trunc, self.mode)
        self.min_re = cycle_convergence_abscissa(catalog)

    @property
    def conjugate_symmetric(self) -> bool:
        """Z(conj s) = conj Z(s): the catalog's map has a real parameter
        (affine catalogs always do)."""
        meta = self.catalog.meta
        return meta.get("system") == "affine" or (
            meta.get("system") == "quadratic" and complex(meta["c"]).imag == 0.0)

    def valid_at(self, s: complex) -> bool:
        return s.real > self.min_re

    def log(self, s: complex) -> complex:
        if not self.valid_at(complex(s)):
            raise DivergenceRegionError(
                f"cycle expansion invalid at Re s = {complex(s).real} "
                f"<= {self.min_re}")
        lengths, dens, weights = self._arrays
        return -complex(np.sum(weights * np.exp(-complex(s) * lengths) / dens))

    def dlog(self, s: complex) -> complex:
        lengths, dens, weights = self._arrays
        return complex(np.sum(weights * lengths * np.exp(-complex(s) * lengths) / dens))

    def __call__(self, s: complex) -> complex:
        return cmath.exp(self.log(s))

    def batch(self, ss) -> np.ndarray:
        lengths, dens, weights = self._arrays
        ss = np.asarray(ss, dtype=complex)
        if np.any(ss.real <= self.min_re):
            raise DivergenceRegionError("batch contains points left of the convergence abscissa")
        return np.exp(-(np.exp(-np.outer(ss, lengths)) * (weights / dens)).sum(axis=1))

    def zeta_value(self, s: complex) -> ZetaValue:
        return cycle_log_zeta(s, self.catalog, self.n_trunc, self.mode)


# ---------------------------------------------------------------------------
# model product

def model_zeta(s: complex, a: float, b: float, k_max: int) -> ZetaValue:
    """Finite model product prod_{k=0..K} (1 - a^{-(s+k)} - b^{-(s+k)})."""
    if not (a > 1.0 and b > 1.0):
        raise ValueError("model bases must exceed 1")
    if k_max < 0:
        raise ValueError("K must be >= 0")
    s = complex(s)
    value = 1.0 + 0.0j
    log_value: complex | None = 0.0 + 0.0j
    for k in range(k_max + 1):
        factor = 1.0 - a ** (-(s + k)) - b ** (-(s + k))
        value *= factor
        log_value = None if (log_value is None or factor == 0.0) \
            else log_value + cmath.log(factor)
    ra, rb = a ** (-(s.real + k_max + 1)), b ** (-(s.real + k_max + 1))
    log_tail = ra / (1.0 - 1.0 / a) + rb / (1.0 - 1.0 / b)
    return ZetaValue(value=value, log_value=log_value,
                     tail_bound=abs(value) * math.expm1(log_tail),
                     method=Method.MODEL)


def model_dimension(a: float, b: float) -> float:
    """The positive root of a^(-x) + b^(-x) = 1 (the model's leading
    zero, its stand-in for the dimension)."""
    if not (a > 1.0 and b > 1.0):
        raise ValueError("model bases must exceed 1")
    lo, hi = 1e-12, 1.0
    while a ** (-hi) + b ** (-hi) > 1.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if a ** (-mid) + b ** (-mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class ModelEvaluator:
    """Entire model zeta; analytic derivative available everywhere."""

    method = Method.MODEL

    def __init__(self, a: float, b: float, k_max: int):
        if not (a > 1.0 and b > 1.0):
            raise ValueError("model bases must exceed 1")
        self.a, self.b, self.k_max = float(a), float(b), int(k_max)

    @property
    def conjugate_symmetric(self) -> bool:
        """Z(conj s) = conj Z(s): the bases are real."""
        return True

    def valid_at(self, s: complex) -> bool:
        return True

    def __call__(self, s: complex) -> complex:
        s = complex(s)
        value = 1.0 + 0.0j
        for k in range(self.k_max + 1):
            value *= 1.0 - self.a ** (-(s + k)) - self.b ** (-(s + k))
        return value

    def batch(self, ss) -> np.ndarray:
        ss = np.asarray(ss, dtype=complex)
        out = np.ones_like(ss)
        for k in range(self.k_max + 1):
            out = out * (1.0 - self.a ** (-(ss + k)) - self.b ** (-(ss + k)))
        return out

    def log(self, s: complex) -> complex:
        total = 0.0 + 0.0j
        for k in range(self.k_max + 1):
            total += cmath.log(1.0 - self.a ** (-(complex(s) + k)) - self.b ** (-(complex(s) + k)))
        return total

    def dlog(self, s: complex) -> complex:
        s = complex(s)
        la, lb = math.log(self.a), math.log(self.b)
        total = 0.0 + 0.0j
        for k in range(self.k_max + 1):
            xa = self.a ** (-(s + k))
            xb = self.b ** (-(s + k))
            total += (xa * la + xb * lb) / (1.0 - xa - xb)
        return total

    def zeta_value(self, s: complex) -> ZetaValue:
        return model_zeta(s, self.a, self.b, self.k_max)


# ---------------------------------------------------------------------------
# Fredholm determinant

@dataclass(frozen=True)
class TransferMatrix:
    """Discretized L(s): dense block matrix over cover elements in
    normalized monomial bases of order M per element."""

    s: complex
    entries: np.ndarray
    element_words: tuple[str, ...]
    order: int
    blocks: tuple          # (target index, source index, branch) triples


class _Block:
    """Precomputed geometry of one (target element, branch) pair."""

    __slots__ = ("target", "source", "branch", "logw", "basis", "dft", "ratio", "wsup")

    def __init__(self, target, source, branch, logw, basis, dft, ratio):
        self.target = target
        self.source = source
        self.branch = branch
        self.logw = logw      # log(4 (z_t - c)) at the quadrature nodes
        self.basis = basis    # basis[t, beta] = ((g_i(z_t) - x_j) / R_j)^beta
        self.dft = dft        # dft[alpha, t]: trapezoidal Cauchy extraction
        self.ratio = ratio    # containment ratio of the image enclosure
        self.wsup = None


class FredholmEvaluator:
    """det(I - L_M(s)) over a disk cover of the real Cantor set.

    One complex variable: cover intervals are padded to disks, the branch
    weight is [g'(z)]^s = exp(-(s/2) Log(4 (z - c))) with the principal
    logarithm (element radii are capped so the argument stays off the
    cut), and matrix entries are Taylor coefficients of the image of each
    basis monomial, extracted by a 4M-node trapezoidal rule on circles of
    relative radius theta.
    """

    method = Method.FREDHOLM

    def __init__(self, spec: MapSpec, level: int = 3, order: int | None = None,
                 pad: float = 1.25, theta: float = 0.7,
                 tail_target: float = 1e-12, order_cap: int = 80,
                 containment_margin: float = 0.02):
        if spec.mode is not Mode.REAL_1D:
            raise CoverError("the Fredholm discretization supports Real1D mode only")
        if not (0.0 < theta < 1.0):
            raise ValueError("theta must lie in (0, 1)")
        self.spec = spec
        self.level = level
        self.theta = theta
        cover = backward_cover(spec, level)
        c = spec.c.real
        disks = []
        for iv in cover.elements:
            disk = Disk(complex(iv.mid), iv.rad * pad)
            if not disk.center.real - disk.radius - c > 0.0:
                raise RadiusCapError(
                    f"element at {disk.center} with radius {disk.radius} reaches "
                    f"the branch-weight cut (c = {c})")
            disks.append(disk)
        self.cover = cover
        self.disks = disks
        index = {w: i for i, w in enumerate(cover.words)}

        # wiring and containment checks first: the truncation model picks M
        # from the cover contraction ratio (image radius / target radius)
        wiring = []
        rho_max = 0.0
        from .dynamics import _branch_disk
        for k, w in enumerate(cover.words):
            for branch in (0, 1):
                j = index[(str(branch) + w)[:level]] if level > 0 else 0
                img = _branch_disk(spec, branch, disks[k])
                reach = (abs(img.center - disks[j].center) + img.radius) / disks[j].radius
                if reach > 1.0 - containment_margin:
                    raise CoverError(
                        f"branch {branch} image of element {w!r} is not strictly "
                        f"inside element {cover.words[j]!r} (ratio {reach:.3f})")
                wiring.append((k, j, branch, reach))
                rho_max = max(rho_max, img.radius / disks[j].radius)

        self.truncation = TruncationModel(C=4.0 * len(disks), rate=rho_max,
                                          law=Law.POWER_OF_L)
        self.order = order if order is not None else \
            self.truncation.select_order(tail_target, cap=order_cap)
        m = self.order
        nodes = 4 * m
        omega = np.exp(2j * np.pi * np.arange(nodes) / nodes)
        alphas = np.arange(m)
        # dft[alpha, t] = theta^{-alpha} omega^{-alpha t} / nodes
        dft = (theta ** (-alphas))[:, None] * \
            np.exp(-2j * np.pi * np.outer(alphas, np.arange(nodes)) / nodes) / nodes

        self.blocks = []
        for k, j, branch, ratio in wiring:
            dk, dj = disks[k], disks[j]
            z_nodes = dk.center + theta * dk.radius * omega
            sign = 1.0 if branch == 0 else -1.0
            images = sign * np.sqrt(z_nodes - c)
            rel = (images - dj.center) / dj.radius
            basis = rel[:, None] ** alphas[None, :]
            logw = np.log(4.0 * (z_nodes - c))
            self.blocks.append(_Block(k, j, branch, logw, basis, dft, ratio))
        self.size = len(disks) * m
        self._cache: dict[complex, complex] = {}

    def matrix(self, s: complex) -> np.ndarray:
        s = complex(s)
        m = self.order
        out = np.zeros((self.size, self.size), dtype=complex)
        for blk in self.blocks:
            weights = np.exp(-(s / 2.0) * blk.logw)
            entries = blk.dft @ (weights[:, None] * blk.basis)
            out[blk.target * m:(blk.target + 1) * m,
                blk.source * m:(blk.source + 1) * m] += entries
        return out

    def transfer_matrix(self, s: complex) -> TransferMatrix:
        return TransferMatrix(s=complex(s), entries=self.matrix(s),
                              element_words=self.cover.words, order=self.order,
                              blocks=tuple((b.target, b.source, b.branch)
                                           for b in self.blocks))

    @property
    def conjugate_symmetric(self) -> bool:
        """Z(conj s) = conj Z(s): Real1D mode has a real parameter c."""
        return True

    def valid_at(self, s: complex) -> bool:
        return True

    def __call__(self, s: complex) -> complex:
        s = complex(s)
        if s.imag < 0.0:
            # c is real, so Z(conj s) = conj Z(s); reflecting makes the
            # symmetry exact in floating point and lets a point below the
            # axis reuse the determinant of its conjugate (scan_region
            # mirrors symmetric scans instead of relying on this)
            return self(s.conjugate()).conjugate()
        hit = self._cache.get(s)
        if hit is None:
            # I - L formed in place: no identity or difference matrix
            a = self.matrix(s)
            np.negative(a, out=a)
            a.flat[::self.size + 1] += 1.0
            hit = complex(np.linalg.det(a))
            self._cache[s] = hit
        return hit

    def batch(self, ss) -> np.ndarray:
        return np.array([self(complex(s)) for s in np.asarray(ss).ravel()])

    def tail_bound(self, s: complex) -> float:
        """Determinant truncation estimate: predicted discarded singular
        values, scaled by the weight sup and a det perturbation factor."""
        wsup = max(float(np.max(np.abs(np.exp(-(complex(s) / 2.0) * blk.logw))))
                   for blk in self.blocks)
        nu_tail = wsup * self.truncation.tail(self.order)
        nu_all = wsup * self.truncation.tail(0)
        return nu_tail * math.exp(1.0 + nu_all)

    def zeta_value(self, s: complex) -> ZetaValue:
        return ZetaValue(value=self(s), log_value=None,
                         tail_bound=self.tail_bound(s), method=Method.FREDHOLM)

    def leading_eigenvalue(self, s: complex) -> complex:
        eig = np.linalg.eigvals(self.matrix(s))
        return complex(eig[np.argmax(np.abs(eig))])


def fredholm_det(s: complex, spec_or_evaluator, order: int | None = None,
                 level: int = 3) -> ZetaValue:
    """det(I - L_M(s)); accepts a MapSpec (evaluator built on the fly) or
    a prebuilt FredholmEvaluator."""
    if isinstance(spec_or_evaluator, FredholmEvaluator):
        ev = spec_or_evaluator
    else:
        ev = FredholmEvaluator(spec_or_evaluator, level=level, order=order)
    return ev.zeta_value(s)


# ---------------------------------------------------------------------------
# derivative of log Z

def zeta_derivative(s: complex, evaluator, fd_step: float = 1e-5) -> complex:
    """d/ds log Z.  Analytic term-wise for cycle and model evaluators; a
    Richardson-checked central difference on the log determinant for the
    Fredholm route."""
    s = complex(s)
    if hasattr(evaluator, "dlog"):
        return evaluator.dlog(s)

    def diff(h: float) -> complex:
        zp, zm = evaluator(s + h), evaluator(s - h)
        if zp == 0 or zm == 0:
            raise PoleError(f"log-derivative stencil hit a zero of Z near {s}")
        return cmath.log(zp / zm) / (2.0 * h)

    d1 = diff(fd_step)
    d2 = diff(fd_step / 2.0)
    if abs(d2 - d1) > 0.1 * max(1.0, abs(d2)):
        raise PoleError(
            f"central difference for d/ds log Z unstable at {s}: {d1} vs {d2}")
    return (4.0 * d2 - d1) / 3.0


def export_grid(path: str, evaluator, ss) -> None:
    """CSV of evaluations: re_s,im_s,re_Z,im_Z,tail_bound,method."""
    rows = []
    for s in ss:
        zv = evaluator.zeta_value(s)
        rows.append((complex(s).real, complex(s).imag, zv.value.real,
                     zv.value.imag, zv.tail_bound, zv.method.value))
    write_csv(path, "re_s,im_s,re_Z,im_Z,tail_bound,method", rows)
