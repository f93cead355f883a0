"""Distribution-identity test: the zero side against the periodic-orbit
side, paired with compactly supported test functions.

With w(s) = Z(i s + delta) and lambda_j = i (delta - mu_j) over the zeros
mu_j of Z, the two distributions

    u1 = sum_j e^{i t lambda_j}
    u2 = t e^{-delta t} sum_n (1/n) sum_{f^n(z)=z} delta_0(t - L_n) / den

agree on the positive axis.  Pairing both with a bump phi_hat supported
in [d - gamma, d + gamma] in R_+ gives, per window,

    orbit side:  sum_n (1/n) sum_z   L_n e^{-delta L_n} phi_hat(L_n) / den
    zero side:   sum_j  I(lambda_j),   I(lam) = int phi_hat(t) e^{i lam t} dt

computable up to a zero-side truncation tail that decays like
e^{-(d - gamma) Im lambda} in the depth of the discarded zeros.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import OrbitCatalog
from .errors import ConvergenceError, CoverageError
from .util import atomic_write_text, write_csv
from .zeros import Rectangle, scan_region
from .zeta import _cycle_arrays

_MIN_QUAD_NODES = 64      # a transform doubles its rule from this many
_MAX_QUAD_NODES = 4096    # nodes, up to this many, until two sums agree
_TRANSFORM_RTOL = 1e-12   # to this relative tolerance
_ROUNDING_BUDGET = 1e-9   # orbit-side rounding allowance, times max(1, |orbit side|)


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1].

    A pure function of n, built once and shared by every test function:
    the arrays are read-only, so no caller can alter another's rule.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class TestFunction:
    """Bump profile on the hat side: exp(-1/(1-u^2)) with u=(t-d)/gamma,
    supported in [d-gamma, d+gamma], which must sit inside R_+."""

    __test__ = False  # not a pytest class, despite the name

    d: float
    gamma: float

    def __post_init__(self):
        if not (self.d > 0.0 and 0.0 < self.gamma < self.d):
            raise ValueError("need 0 < gamma < d so the support stays positive")

    def hat(self, t):
        """phi_hat(t); vectorized, zero outside the support."""
        t = np.asarray(t, dtype=float)
        u = (t - self.d) / self.gamma
        inside = np.abs(u) < 1.0
        out = np.zeros_like(t)
        usq = np.where(inside, u * u, 0.0)
        out[inside] = np.exp(-1.0 / (1.0 - usq[inside]))
        return out if out.ndim else float(out)

    @functools.cached_property
    def _mass(self) -> float:
        x, w = _gauss_legendre(256)
        t = self.d + self.gamma * x
        return float(np.sum(w * self.hat(t)) * self.gamma)

    def hat_mass(self) -> float:
        """L1 norm of the hat profile (the support integral), by 256-node
        Gauss-Legendre; computed once per test function."""
        return self._mass

    def transform(self, lam: complex) -> complex:
        """I(lam) = int phi_hat(t) e^{i lam t} dt: the one-point `transforms`."""
        return self.transforms([lam])[0]

    def transforms(self, lams) -> list[complex]:
        """I(lam) for each lam, by Gauss-Legendre with node doubling from
        _MIN_QUAD_NODES until two refinements agree.  Each cached rule meets
        every lam not yet converged in one array pass; a lam keeps its own
        doubling and stopping test, so its value is its one-point call's.
        Raises ConvergenceError for the first lam with no two agreeing
        refinements up to 4096 nodes (|lam| too large for the profile)."""
        lams = np.array([complex(lam) for lam in lams])
        out, prev = [None] * len(lams), [None] * len(lams)
        todo = list(range(len(lams)))
        n = _MIN_QUAD_NODES
        while n <= _MAX_QUAD_NODES and todo:
            x, w = _gauss_legendre(n)
            t = self.d + self.gamma * x
            vals = self.hat(t) * np.exp((1j * lams[todo])[:, None] * t)
            for k, cur in zip(todo, (np.sum(w * vals, axis=1) * self.gamma).tolist()):
                if prev[k] is not None and abs(cur - prev[k]) <= \
                        _TRANSFORM_RTOL * max(1.0, abs(cur)):
                    out[k] = cur
                prev[k] = cur
            todo = [k for k in todo if out[k] is None]
            n *= 2
        if todo:
            raise ConvergenceError(
                f"transform at lambda = {complex(lams[todo[0]])} did not converge with "
                f"{_MAX_QUAD_NODES} quadrature nodes (d = {self.d}, gamma = {self.gamma})")
        return out

    def transform_bound(self, im_lam: float) -> float:
        """|I| <= ||phi_hat||_1 e^{-(d-gamma) Im lam} for Im lam >= 0."""
        return self.hat_mass() * math.exp(-(self.d - self.gamma) * im_lam)


def orbit_side_pairing(catalog: OrbitCatalog, delta: float, phi: TestFunction,
                       arrays=None) -> float:
    """sum_n (1/n) sum_{f^n(z)=z} L_n e^{-delta L_n} phi_hat(L_n) / den.

    All terms are nonnegative.  The catalog must exhaust the support:
    orbits of period beyond n_max have lengths > n log A past d + gamma.
    `arrays` is the catalog's `_cycle_arrays`, when a caller pairing
    several windows has formed them once.
    """
    if (catalog.n_max + 1) * catalog.log_a <= phi.d + phi.gamma:
        raise CoverageError(
            f"catalog depth {catalog.n_max} does not exhaust the support "
            f"(need (n_max+1) log A > {phi.d + phi.gamma})")
    lengths, dens, weights = _cycle_arrays(catalog) if arrays is None else arrays
    return float(np.sum(weights * lengths * np.exp(-delta * lengths)
                        * phi.hat(lengths) / dens))


def zero_side_pairing(zeros, delta: float, phi: TestFunction,
                      region: Rectangle, density_per_unit: float) -> tuple[float, float]:
    """(value, tail): sum of I(lambda_j) over the region's zeros, plus an
    estimate for what the region misses.

    The tail sums the strip-density estimate times the transform decay
    bound over excluded heights (zeros left of the region) and adds the
    lateral leakage at the region's top |Im mu| edge.  An estimate using
    the fitted strip density, not a certificate.
    """
    x_edge = max(abs(region.im_lo), abs(region.im_hi))
    y_min = max(delta - region.re_hi, 0.0)
    *values, lateral = phi.transforms([1j * (delta - rec.s) for rec in zeros] +
                                      [complex(x_edge, y_min)])
    total = 0.0 + 0.0j
    for rec, value in zip(zeros, values):
        total += rec.multiplicity * value
    y_deep = delta - region.re_lo     # smallest excluded Im lambda (left edge)
    tail = 0.0
    step = 1.0
    for k in range(200):
        inc = density_per_unit * phi.transform_bound(y_deep + k * step) * step
        tail += inc
        if inc < 1e-16 * max(tail, 1.0):
            break
    tail += 2.0 * density_per_unit * (y_deep - y_min + 1.0) * abs(lateral)
    return float(total.real), float(tail)


@dataclass(frozen=True)
class PairingResult:
    orbit_side: float
    zero_side: float
    zero_tail_estimate: float
    residual: float
    d: float
    gamma: float
    passed: bool

    def to_json(self, path: str) -> None:
        import json
        payload = {"orbit_side": self.orbit_side, "zero_side": self.zero_side,
                   "tail": self.zero_tail_estimate, "residual": self.residual,
                   "d": self.d, "gamma": self.gamma}
        atomic_write_text(path, json.dumps(payload, indent=1) + "\n")


def _local_strip_density(zeros, delta: float, region: Rectangle) -> float:
    """Zeros per unit height of Im lambda near the deep (left) edge of the
    region; extrapolation density for the tail estimate."""
    ys = sorted(delta - rec.s.real for rec in zeros for _ in range(rec.multiplicity))
    if not ys:
        return 1.0
    y_deep = delta - region.re_lo
    band = [y for y in ys if y >= y_deep - 1.5]
    return max(len(band) / 1.5, len(ys) / max(y_deep - ys[0], 1.0))


def identity_residual(catalog: OrbitCatalog, evaluator, delta: float,
                      phi: TestFunction, region: Rectangle,
                      zeros=None, arrays=None) -> PairingResult:
    """Assemble both pairings and compare.

    Passes when the residual is within the zero-side tail estimate plus
    an orbit-side rounding budget.  `zeros` may carry a pre-scanned,
    winding-validated list for the region; otherwise the region is
    scanned here.  `arrays` is as in `orbit_side_pairing`.
    """
    orbit = orbit_side_pairing(catalog, delta, phi, arrays)
    if zeros is None:
        zeros = scan_region(evaluator, region)
    density = _local_strip_density(zeros, delta, region)
    zside, tail = zero_side_pairing(zeros, delta, phi, region, density)
    residual = abs(orbit - zside)
    budget = _ROUNDING_BUDGET * max(1.0, abs(orbit))
    return PairingResult(orbit_side=orbit, zero_side=zside,
                         zero_tail_estimate=tail, residual=residual,
                         d=phi.d, gamma=phi.gamma,
                         passed=residual <= tail + budget)


# ---------------------------------------------------------------------------
# length-spectrum statistics

@dataclass(frozen=True)
class LengthHistogram:
    edges: tuple[float, ...]
    weights: tuple[float, ...]
    mean: float
    n: int

    def to_csv(self, path: str) -> None:
        rows = [(self.edges[i], self.edges[i + 1], self.weights[i])
                for i in range(len(self.weights))]
        write_csv(path, "bin_lo,bin_hi,weight", rows)


def orbit_length_histogram(catalog: OrbitCatalog, n: int, bins=24) -> LengthHistogram:
    """Distribution of L_n(z)/n over the 2^n fixed points of f^n.

    The sample mean is reported descriptively; the binomial length model
    predicts concentration at (log A + log B)/2 but that is not asserted
    here.
    """
    if n > catalog.n_max:
        raise ValueError(f"n = {n} exceeds catalog depth {catalog.n_max}")
    values, weights = [], []
    for p in range(1, n + 1):
        if n % p == 0:   # each prime orbit of period p stands for p fixed points
            values.append((n // p) * catalog.lengths[p - 1] / n)
            weights.append(np.full(len(values[-1]), float(p)))
    values, weights = np.concatenate(values), np.concatenate(weights)
    mean = float(np.average(values, weights=weights))
    hist, edges = np.histogram(values, bins=bins, weights=weights)
    return LengthHistogram(edges=tuple(float(e) for e in edges),
                           weights=tuple(float(w) for w in hist),
                           mean=mean, n=n)
