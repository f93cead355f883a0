"""Three routes to Z(s) = det(I - L(s)) for a two-branch expanding system.

* Cycle expansion: the dynamical formula
      log Z(s) = - sum_{n<=N} (1/n) sum_{f^n(z)=z} e^{-s L_n(z)} / den(z)
  over the periodic-orbit catalog, valid to the right of the convergence
  abscissa.  The denominator convention is a mode switch:
      Real1D      den = |1 - 1/Lambda|        (one complex variable)
      Complex2D   den = |1 - 1/Lambda|^2      (conformal 2x2 differential)
  The numerator uses e^{-s L_n} with the real length L_n = log |Lambda|.

* Fredholm determinant: det(I - L_M(s)) for the transfer operator in
  per-element monomial bases over a backward cover, with Taylor
  coefficients by trapezoidal Cauchy quadrature (on the real axis: exact,
  from binomial series).  Entire in s; it sees zeros left of delta.

* Model product: prod_k (1 - A^{-(s+k)} - B^{-(s+k)}), the binomial
  length-model zeta; exact for two-branch affine systems.

Each route is one evaluator class with the same protocol: Z(s) by a
call, and a `ZetaValue` by `zeta_value`, whose tail_bound is a
truncation-error estimate on the value scale.  The shared `batch` of
`_Route` evaluates an array point by point through the call, so every
route has one arithmetic and batch(ss)[k] == Z(ss[k]) to the bit; so too
`zeta_grid`, the values on a tensor grid, which the cycle route forms from
moduli once per Re column and phases once per Im row.  The
cycle and model routes also give d/ds log Z by `dlog`.  Every route
reports `conjugate_symmetric`, true for all three: their coefficients
are real, so Z(conj s) = conj Z(s).  An evaluator holds no per-point
state; a zero scan memoises its values (`zeros._CachedEvaluator`), and
serves the lower half-plane from the conjugates of the upper.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cover import backward_cover
from .dynamics import MapSpec, Mode, OrbitCatalog, sqrt_disks
from .errors import CoverError, DivergenceRegionError, RadiusCapError, TruncationError
from .util import write_csv


@dataclass(frozen=True)
class ZetaValue:
    value: complex
    log_value: complex | None
    tail_bound: float
    method: str   # the evaluator's route: "cycle", "fredholm" or "model"

    def __post_init__(self):
        if not math.isfinite(self.tail_bound):
            raise ValueError("tail bound must be finite")


class _Route:
    """The protocol every route's class shares."""

    def batch(self, ss) -> np.ndarray:
        """Z at each point of ss, by the call, one point at a time."""
        return np.array([self(s) for s in np.ravel(ss).tolist()], dtype=complex)

    def zeta_grid(self, res, ims) -> list[ZetaValue]:
        """zeta_value at each point of the grid res x ims, by rows of
        constant Im s, Re s varying fastest."""
        return [self.zeta_value(complex(a, b)) for b in ims for a in res]


# ---------------------------------------------------------------------------
# cycle expansion

def _cycle_arrays(catalog: OrbitCatalog):
    """(lengths, denominators, weights) of the 2^n fixed points of f^n for
    n <= n_max, by n, then prime period p | n, then word.  A prime orbit
    stands for its p points, with length k L and multiplier Lambda^k for
    k = n / p, and weight p / n.  The denominators are formed per point in
    Python's complex arithmetic, as numpy's complex division and power may
    round differently, and squared in the catalog's Complex2D mode."""
    multipliers = [lam.tolist() for lam in catalog.multipliers]
    lengths, dens, weights = [], [], []
    for n in range(1, catalog.n_max + 1):
        for p in range(1, n + 1):
            if n % p == 0:
                k = n // p
                lengths.append(k * catalog.lengths[p - 1])
                dens.append([abs(1.0 - 1.0 / lam ** k) for lam in multipliers[p - 1]])
                weights.append(np.full(len(dens[-1]), p / n))
    dens = np.concatenate(dens)
    return (np.concatenate(lengths), dens if catalog.mode is Mode.REAL_1D else dens * dens,
            np.concatenate(weights))


def cycle_convergence_abscissa(catalog: OrbitCatalog) -> float:
    """Right edge of the certified convergence region: the closed-form
    tail uses 2^n orbits of length >= n log A, so it is finite exactly
    for Re s > log 2 / log A (an upper bound for delta)."""
    return math.log(2.0) / catalog.log_a


def _cycle_log_tail(catalog: OrbitCatalog, re_s: float) -> float:
    """Closed form for sum_{n > N} 2^n e^{-Re s * n log A} / (n (1 - 1/A))."""
    q = 2.0 * math.exp(-re_s * catalog.log_a)
    if q >= 1.0:
        raise DivergenceRegionError(
            f"Re s = {re_s} is at or below the certified convergence "
            f"abscissa {cycle_convergence_abscissa(catalog)}")
    partial = sum(q ** n / n for n in range(1, catalog.n_max + 1))
    return (-math.log1p(-q) - partial) / (1.0 - 1.0 / catalog.a)


def zero_free_abscissa(catalog: OrbitCatalog) -> float:
    """C0 with |log Z| <= log 2 (hence |Z| >= 1/2) for Re s >= C0, from
    the closed-form tail of the full cycle sum."""
    q = 1.0 - 2.0 ** (-(1.0 - 1.0 / catalog.a))
    return math.log(2.0 / q) / catalog.log_a


class CycleEvaluator(_Route):
    """Truncated cycle expansion of Z(s) over the catalog.

    Valid for Re s above the certified convergence abscissa; refuses to
    extrapolate left of it."""

    method = "cycle"
    # Z(conj s) = conj Z(s): the lengths log |Lambda|, the denominators and
    # the weights are real for every catalog, complex c included
    conjugate_symmetric = True

    def __init__(self, catalog: OrbitCatalog):
        self.catalog = catalog
        self._arrays = lengths, dens, weights = _cycle_arrays(catalog)
        self._coef = weights / dens
        self.min_re = cycle_convergence_abscissa(catalog)

    def _log_grid(self, res: list[float], ims: list[float]) -> list[list[complex]]:
        """log Z on the grid res x ims, one list per Im s.  With e^{-sL} =
        e^{-Re s L} (cos tL - i sin tL), t = Im s, the moduli coef e^{-Re s L}
        are formed once per column and the phases once per row, so a point
        costs two real sums; every temporary is one row of the arrays."""
        for re in res:
            if not re > self.min_re:
                raise DivergenceRegionError(
                    f"cycle expansion invalid at Re s = {re} <= {self.min_re}")
        lengths = self._arrays[0]
        columns = [self._coef * np.exp(-re * lengths) for re in res]
        rows = []
        for t in ims:
            phase = t * lengths
            cos, sin = np.cos(phase), np.sin(phase)
            rows.append([complex(-np.sum(a * cos), np.sum(a * sin)) for a in columns])
        return rows

    def log(self, s: complex) -> complex:
        s = complex(s)
        return self._log_grid([s.real], [s.imag])[0][0]

    def dlog(self, s: complex) -> complex:
        lengths, dens, weights = self._arrays
        return complex(np.sum(weights * lengths * np.exp(-complex(s) * lengths) / dens))

    def __call__(self, s: complex) -> complex:
        return cmath.exp(self.log(s))

    def zeta_value(self, s: complex) -> ZetaValue:
        s = complex(s)
        return self.zeta_grid([s.real], [s.imag])[0]

    def zeta_grid(self, res, ims) -> list[ZetaValue]:
        """Z(s) and log Z(s) on the grid, as `_Route.zeta_grid` orders it;
        tail_bound is the closed-form geometric tail, which depends on
        Re s only, transported to the value scale."""
        res, ims = [float(x) for x in res], [float(x) for x in ims]
        tails = [math.expm1(_cycle_log_tail(self.catalog, re)) for re in res]
        out = []
        for row in self._log_grid(res, ims):
            for log_z, tail in zip(row, tails):
                value = cmath.exp(log_z)
                out.append(ZetaValue(value=value, log_value=log_z,
                                     tail_bound=abs(value) * tail, method=self.method))
        return out


# ---------------------------------------------------------------------------
# model product

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


class ModelEvaluator(_Route):
    """The finite model product prod_{k=0..K} (1 - a^{-(s+k)} - b^{-(s+k)}):
    entire, with an analytic derivative everywhere."""

    method = "model"
    conjugate_symmetric = True   # the bases are real

    def __init__(self, a: float, b: float, k_max: int):
        if not (a > 1.0 and b > 1.0):
            raise ValueError("model bases must exceed 1")
        if k_max < 0:
            raise ValueError("K must be >= 0")
        self.a, self.b, self.k_max = float(a), float(b), int(k_max)
        self._powers = np.array([[self.a ** -k, self.b ** -k] for k in range(self.k_max + 1)]).T

    def _terms(self, s: complex) -> tuple[np.ndarray, np.ndarray]:
        """a^{-s} a^{-k} and b^{-s} b^{-k}; TruncationError as a^{-s} overflows."""
        try:
            xa, xb = self.a ** (-s), self.b ** (-s)
        except OverflowError:
            raise TruncationError(f"model powers a^-s, b^-s at s = {s} overflow") from None
        return xa * self._powers[0], xb * self._powers[1]

    def __call__(self, s: complex) -> complex:
        xa, xb = self._terms(complex(s))
        z = math.prod((1.0 - xa - xb).tolist(), start=1.0 + 0.0j)
        if not cmath.isfinite(z):
            raise TruncationError(f"model product at s = {complex(s)} is not finite ({z})")
        return z

    def dlog(self, s: complex) -> complex:
        xa, xb = self._terms(complex(s))
        return complex(np.sum((xa * math.log(self.a) + xb * math.log(self.b)) / (1.0 - xa - xb)))

    def zeta_value(self, s: complex) -> ZetaValue:
        """Z(s) and log Z(s) (None when a factor is exactly 0); tail_bound
        covers the factors k > K."""
        s = complex(s)
        xa, xb = self._terms(s)
        factors = (1.0 - xa - xb).tolist()
        value = math.prod(factors, start=1.0 + 0.0j)
        log_value = None if 0.0 in factors else sum(map(cmath.log, factors), 0.0 + 0.0j)
        n = -(s.real + self.k_max + 1)
        try:
            log_tail = self.a ** n / (1.0 - 1.0 / self.a) + self.b ** n / (1.0 - 1.0 / self.b)
            bound = abs(value) * math.expm1(log_tail)
        except OverflowError:
            bound = math.inf
        if not math.isfinite(bound):
            raise TruncationError(f"model value or tail at s = {s} is not finite (Z = {value})")
        return ZetaValue(value=value, log_value=log_value, tail_bound=bound,
                         method=self.method)


# ---------------------------------------------------------------------------
# Fredholm determinant

ORDER_CAP = 80   # the most basis monomials per element the order selection picks
_THETA = 0.7                # relative radius of the Cauchy-integral circles
_TAIL_TARGET = 1e-12        # the determinant tail the order selection aims for
_CONTAINMENT_MARGIN = 0.02  # a branch image reaches at most 1 - this of its target
_PAD = 1.25                 # an element's disk radius, in half-widths of its interval


def folded_size(level: int, order: int) -> int:
    """Side of the folded Fredholm matrix F: half the 2^level * order
    unknowns of L, or the even degrees of the one level-0 element."""
    return (order + 1) // 2 if level == 0 else 2 ** (level - 1) * order


class FredholmEvaluator(_Route):
    """det(I - L_M(s)) over a disk cover of the real Cantor set.

    One complex variable: cover intervals are padded to disks, the branch
    weight is [g'(z)]^s = exp(-(s/2) Log(4 (z - c))) with the principal
    logarithm (element radii are capped so the argument stays off the
    cut), and matrix entries are Taylor coefficients of the image of each
    basis monomial, off the real axis by a 4M-node trapezoidal rule on
    circles of relative radius _THETA.  All of it is formed on the cover's
    arrays, its checks included (branch-0 images by `sqrt_disks`).

    The determinant is taken at half the size, by the z -> -z symmetry of
    z^2 + c.  The branches are g_1 = -g_0 with equal weights, and the
    element of word 1u is the exact negation of that of 0u.  So the
    branch-1 block of every row equals its branch-0 block times
    D = diag((-1)^beta), and L = A Q: A holds the branch-0 blocks, whose
    columns all lie on 0-words, and Q = [I | D] maps the pair (0u, 1u) to
    0u.  Sylvester's identity gives det(I - A Q) = det(I - Q A), and
    F = Q A adds the rows of 1u, times D, to the rows of 0u: `matrix`
    takes the blocks of the 0u rows and the 1u rows against the stack of
    the quadrature weights and D times them, in one product.  F has the
    trace and nonzero spectrum of L.  The one level-0 element is centred
    at 0, so there L = A (I + D) and F is the even-degree block of 2A.

    On the real axis the coefficients are exact and F is real: a block is
    A_k diag(eps_k^alpha (+-1)^alpha) T G_k, T the Toeplitz matrix of the
    weight's binomial series, summed in numpy's own loops, not BLAS, so its
    bits do not depend on the kernel (off the axis the Cauchy sums' are kept).
    """

    method = "fredholm"
    conjugate_symmetric = True   # Real1D mode has a real parameter c

    def __init__(self, spec: MapSpec, level: int = 3):
        if spec.mode is not Mode.REAL_1D:
            raise CoverError("the Fredholm discretization supports Real1D mode only")
        self.spec = spec
        self.level = level
        self.cover = cover = backward_cover(spec, level)
        c = spec.c.real
        # element k as the disk (x_k, R_k); branch 0 maps it into element
        # cols[k] = k >> 1, that of ("0" + w)[:level] for k's word w
        x, radius = 0.5 * (cover.lo + cover.hi), 0.5 * (cover.hi - cover.lo) * _PAD
        cols = np.arange(len(x)) >> 1
        bad = ~(x - radius - c > 0.0)
        if bad.any():
            k = int(np.argmax(bad))
            raise RadiusCapError(f"element at {complex(x[k])} with radius {float(radius[k])} "
                                 f"reaches the branch-weight cut (c = {c})")
        # the fold needs element 1u to be the exact mirror of element 0u
        half = len(x) // 2
        bad = (np.roll(x, -half) != -x) | (np.roll(radius, -half) != radius)
        if bad.any():
            k = int(np.argmax(bad))
            raise CoverError(f"element {cover.words[k]!r} is not the mirror image of "
                             f"element {cover.words[(k + half) % len(x)]!r}")

        # containment first: the order M comes from the cover contraction
        # ratio (image radius / target radius).  The branch-1
        # image and its target mirror the branch-0 ones: the same ratios
        root, root_radius = sqrt_disks(spec.c, x, radius)
        reach = (np.abs(root - x[cols]) + root_radius) / radius[cols]
        bad = reach > 1.0 - _CONTAINMENT_MARGIN
        if bad.any():
            k = int(np.argmax(bad))
            raise CoverError(f"branch 0 image of element {cover.words[k]!r} is not strictly "
                             f"inside element {cover.words[cols[k]]!r} (ratio {reach[k]:.3f})")
        self._rate = float((root_radius / radius[cols]).max())
        self._scale = 4.0 * len(x)
        # the fewest monomials, at most ORDER_CAP, whose predicted tail is at most _TAIL_TARGET
        m = 1
        while m < ORDER_CAP and self._tail(m) > _TAIL_TARGET:
            m += 1
        self.order = m
        nodes = 4 * m
        omega = np.exp(2j * np.pi * np.arange(nodes) / nodes)
        alphas = np.arange(m)
        # dft[alpha, t] = _THETA^{-alpha} omega^{-alpha t} / nodes
        dft = (_THETA ** (-alphas))[:, None] * \
            np.exp(-2j * np.pi * np.outer(alphas, np.arange(nodes)) / nodes) / nodes

        # one branch-0 block per row element k, its column element cols[k]:
        # logw[k, t] = log(4 (z_t - c)) at the quadrature nodes z_t of k,
        # basis[k, beta, t] = ((g_0(z_t) - x_j) / R_j)^beta for j = cols[k]
        z_nodes = x[:, None] + (_THETA * radius)[:, None] * omega
        rel = (np.sqrt(z_nodes - c) - x[cols, None]) / radius[cols, None]
        basis = rel[:, None, :] ** alphas[:, None]
        self._logw = np.log(4.0 * (z_nodes - c))
        # the axis's exact coefficients: with v = (z - x_k) / (x_k - c) = eps_k u,
        # 4 (z - c) = 4 (x_k - c) (1 + v) and g_0(z) = sqrt(x_k - c) (1 + v)^(1/2).
        # g[gamma, k, beta] is the v^gamma coefficient of ((g_0 - x_j) / R_j)^beta,
        # by truncated products with the Toeplitz matrix of its base's series; a
        # Toeplitz matrix indexes a series by lag, the negative lags its zero tail
        eps, j, lag = radius / (x - c), np.arange(1, m), np.subtract.outer(alphas, alphas)
        p = np.sqrt(x - c)[:, None] * np.cumprod(np.r_[1.0, (1.5 - j) / j])
        p = (np.c_[p - np.eye(1, m) * x[cols, None], 0.0 * p[:, 1:]] / radius[cols, None])[:, lag]
        g = np.zeros((len(x), m, m)) + np.eye(m, 1)   # column 0 is p^0 = 1; the loop sets the rest
        for b in j:
            g[:, :, b] = np.einsum("kag,kg->ka", p, g[:, :, b - 1], optimize=False)
        # F_k = A_k diag(eps_k^alpha (+-1)^alpha) T G_k, A_k = exp(-(s/2) logw0_k)
        self._logw0 = np.log(4.0 * (x - c))
        epow = np.where(np.arange(len(x)) < max(half, 1), eps, -eps)[:, None] ** alphas
        if level == 0:
            dft, basis, g, epow = 2.0 * dft[::2], basis[:, ::2], g[..., ::2], 2.0 * epow[:, ::2]
            lag = lag[::2]
        self._basis, self._g, self._epow = basis, np.ascontiguousarray(g.transpose(1, 0, 2)), epow
        # [dft, D dft], D = diag((-1)^beta), for the 0u and the 1u rows: their
        # products with the rows' terms are F's blocks, signs included
        signs = (-1.0) ** np.arange(len(dft))[:, None]
        self._dft, self._lag = np.stack((dft, signs * dft))[:, None], lag
        # a weight exponent at most cap keeps F finite.  Off the axis an entry is
        # at most 4 e^exponent times a row sum of |dft|, the exponent bounded by
        # the nodes' range of Re log w and largest |Im log w|.  On the axis it is
        # at most 2m times the weight's maximum over a disk, at x_k -+ R_k, and
        # (T G_k)[alpha] at most m eps_k^{-alpha} times that of |1 + v|^{-s/2}
        # (Cauchy's estimate; the basis is at most 1): lines offset - (s/2) slope
        log_max, rim = math.log(np.finfo(float).max), np.log1p(np.r_[-eps, eps])
        self._node_bound = (float(self._logw.real.min()), float(self._logw.real.max()),
                            float(np.abs(self._logw.imag).max()), log_max - math.log(
                                4.0 * float(np.abs(self._dft).sum(axis=-1).max())))
        self._axis_bound = (np.r_[0.0 * rim, np.tile(-(m - 1) * np.log(eps), 2)],
                            np.r_[np.tile(self._logw0, 2) + rim, rim], log_max - math.log(2 * m))
        # F's block grid: row k mod half, column cols[k]; the 1u rows
        # (k >= half) are added onto the 0u rows
        self._half = max(half, 1)
        self._rows, self._cols = np.arange(len(x)) % self._half, cols
        self.size = folded_size(level, m)

    def _tail(self, m: int) -> float:
        """Predicted sum_{l >= m} nu_l, for nu_l <= 4 * 2^level * rate^l: an
        error model from the cover's contraction, not a certificate."""
        return self._scale * self._rate ** m / (1.0 - self._rate)

    def _check_weights(self, s: complex) -> None:
        """TruncationError when an entry of F(s) may overflow (a branch
        weight, or on the axis a product T G_k), decided from the bound on
        its exponent before any array is formed."""
        if s.imag == 0.0:
            offset, slope, cap = self._axis_bound
            top = float(np.max(offset - 0.5 * s.real * slope))
        else:
            lo, hi, im, cap = self._node_bound
            top = max(-0.5 * s.real * lo, -0.5 * s.real * hi) + 0.5 * abs(s.imag) * im
        if not top <= cap:
            raise TruncationError(
                f"branch weights at s = {s} overflow (weight exponent up to "
                f"{top:.3g}, above {cap:.3g})")

    def matrix(self, s: complex) -> np.ndarray:
        """The folded matrix F(s), with det(I - F) = det(I - L)."""
        s = complex(s)
        self._check_weights(s)
        h, mb = self._half, self._dft.shape[2]
        if s.imag == 0.0:   # T from the series binom(-s/2, j)
            j = np.arange(1.0, self._lag.shape[1])
            series = np.concatenate(([1.0], np.cumprod((1.0 - 0.5 * s.real - j) / j), 0.0 * j))
            blocks = np.einsum("ag,gkb->kab", series[self._lag], self._g, optimize=False)
            blocks *= (np.exp(-0.5 * s.real * self._logw0)[:, None] * self._epow)[:, :, None]
        else:
            weights = np.exp(-(s / 2.0) * self._logw)
            # the terms of the 0u rows and of the 1u rows, one stack each; the
            # one level-0 element has no 1u rows
            n = min(len(weights), 2)
            terms = (weights[:, None, :] * self._basis).reshape(n, -1, mb, weights.shape[1])
            blocks = (self._dft[:n] @ terms.transpose(0, 1, 3, 2)).reshape(-1, mb, mb)
        out = np.zeros((h, mb, h, mb), dtype=blocks.dtype)
        rows, cols = self._rows, self._cols
        out[rows[:h], :, cols[:h], :] = blocks[:h]
        # added, not assigned: at level 1 both rows land in the same block
        out[rows[h:], :, cols[h:], :] += blocks[h:]
        return out.reshape(self.size, self.size)

    def __call__(self, s: complex) -> complex:
        s = complex(s)
        if s.imag < 0.0:
            # c is real, so Z(conj s) = conj Z(s); reflecting makes the
            # symmetry exact in floating point for a direct call (a scan's
            # cache in `zeros` serves the lower half-plane itself)
            return self(s.conjugate()).conjugate()
        # I - F formed in place: no identity or difference matrix
        a = self.matrix(s)
        np.negative(a, out=a)
        a.flat[::self.size + 1] += 1.0
        sign, logdet = np.linalg.slogdet(a)   # numpy's det is sign * exp(logdet)
        try:
            z = complex(sign * math.exp(logdet))
        except OverflowError:   # where numpy's det warns
            z = complex(math.inf)
        if not cmath.isfinite(z):
            raise TruncationError(f"determinant at s = {s} is not finite ({z})")
        return z

    def tail_bound(self, s: complex) -> float:
        """Determinant truncation estimate: predicted discarded singular
        values, scaled by the weight sup and a det perturbation factor.  The
        sup is exp of the largest Re(-(s/2) log w), from one real pass."""
        s = complex(s)
        self._check_weights(s)
        wsup = math.exp(float(np.max(0.5 * s.imag * self._logw.imag -
                                     0.5 * s.real * self._logw.real)))
        nu_tail = wsup * self._tail(self.order)
        nu_all = wsup * self._tail(0)
        try:
            bound = nu_tail * math.exp(1.0 + nu_all)
        except OverflowError:
            bound = math.inf
        if not math.isfinite(bound):
            raise TruncationError(
                f"determinant tail estimate at s = {s} overflows "
                f"(weight sup {wsup:.3g} over the cover)")
        return bound

    def zeta_value(self, s: complex) -> ZetaValue:
        return ZetaValue(value=self(s), log_value=None,
                         tail_bound=self.tail_bound(s), method=self.method)


# ---------------------------------------------------------------------------
# export

def export_grid(path: str, ss, values) -> None:
    """CSV of evaluations, one ZetaValue per point of ss:
    re_s,im_s,re_Z,im_Z,tail_bound,method."""
    rows = [(complex(s).real, complex(s).imag, zv.value.real, zv.value.imag,
             zv.tail_bound, zv.method) for s, zv in zip(ss, values)]
    write_csv(path, "re_s,im_s,re_Z,im_Z,tail_bound,method", rows)
