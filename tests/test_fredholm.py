import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import juliazeta.zeta
from juliazeta.cover import backward_cover
from juliazeta.dynamics import MapSpec, Mode
from juliazeta.errors import CoverError, RadiusCapError, TruncationError
from juliazeta.intervals import Disk
from juliazeta.zeros import Rectangle, scan_region
from juliazeta.zeta import CycleEvaluator, FredholmEvaluator, folded_size


def leading_eigenvalue(ev, s):
    """The eigenvalue of largest modulus of the folded matrix F(s)."""
    eig = np.linalg.eigvals(ev.matrix(s))
    return complex(eig[np.argmax(np.abs(eig))])


def test_single_affine_branch_determinant():
    # one contracting branch g(z) = z/2 with constant weight [g']^s at
    # s = 1: eigenvalues 2^-(1+l), so det(I - L) is the q-product
    # prod_l (1 - 2^-(1+l)); oracle computed as the truncated product
    from juliazeta.tracecheck import ContractionSpec, pullback_matrix_1d
    oracle = 1.0
    for level in range(300):
        oracle *= 1.0 - 2.0 ** -(1 + level)
    assert oracle == pytest.approx(0.2887880951, abs=1e-10)
    mat = 0.5 * pullback_matrix_1d(ContractionSpec(mu=0.5), 60)
    det = complex(np.linalg.det(np.eye(60) - mat))
    assert abs(det - oracle) < 1e-12


def test_trace_matches_first_cycle_term(fredholm6):
    # tr L(s) = sum over branch fixed points of |f'|^-s / (1 - 1/Lambda)
    for s in (0.9, 1.7, 2.4):
        tr = complex(np.trace(fredholm6.matrix(s)))
        want = 6.0 ** -s / (1.0 - 1.0 / 6.0) + 4.0 ** -s / (1.0 + 1.0 / 4.0)
        assert tr == pytest.approx(want, abs=5e-12)


def test_agrees_with_cycle_expansion(fredholm6, cat12):
    cyc = CycleEvaluator(cat12)
    s = 1.5 + 2.0j
    zc, zf = cyc(s), fredholm6(s)
    assert abs(zc - zf) <= 1e-9 * abs(zc)


def test_order_refinement_stability(spec6, monkeypatch):
    base = FredholmEvaluator(spec6, level=2)
    # the order is set by the level: a tail target 1e6 times smaller gives
    # a finer one at the same level
    monkeypatch.setattr(juliazeta.zeta, "_TAIL_TARGET", 1e-18)
    finer = FredholmEvaluator(spec6, level=2)
    assert finer.order >= base.order + 10
    for s in (0.7, 1.0 + 3.0j, -0.5 + 5.0j):
        assert abs(base(complex(s)) - finer(complex(s))) < 1e-10


def test_tail_honesty_under_halving(spec6, monkeypatch):
    base = FredholmEvaluator(spec6, level=2)
    monkeypatch.setattr(juliazeta.zeta, "ORDER_CAP", base.order // 2)
    half = FredholmEvaluator(spec6, level=2)
    assert half.order == base.order // 2
    for s in (0.8, 1.3 + 2.0j):
        change = abs(base(complex(s)) - half(complex(s)))
        assert change <= half.zeta_value(s).tail_bound


def test_perron_leading_eigenvalue(fredholm6):
    for s in (0.6, 1.0, 1.8):
        lam = leading_eigenvalue(fredholm6, s)
        assert abs(lam.imag) <= 1e-10 * abs(lam)
        assert lam.real > 0.0


def test_leading_eigenvalue_crosses_one_at_delta(fredholm6, delta6):
    assert abs(leading_eigenvalue(fredholm6, delta6) - 1.0) < 1e-9
    assert abs(leading_eigenvalue(fredholm6, delta6 + 0.2)) < 1.0
    assert abs(leading_eigenvalue(fredholm6, delta6 - 0.2)) > 1.0


def test_conjugate_symmetry(fredholm6):
    for s in (0.8 + 2.0j, -1.0 + 7.0j, 1.4 + 0.3j):
        a = fredholm6(s)
        b = fredholm6(s.conjugate())
        assert abs(b - a.conjugate()) <= 1e-12 * max(1.0, abs(a))


def test_evaluator_holds_no_per_point_state():
    # memoising Z is the scan's business: a scan leaves every attribute
    # of the evaluator as it was, and adds none
    ev = FredholmEvaluator(MapSpec(c=-6.0), level=1)

    def state():
        return {k: (id(v), len(v) if isinstance(v, (dict, list, set)) else None)
                for k, v in vars(ev).items()}

    before = state()
    assert len(scan_region(ev, Rectangle(-2.0, 1.4, -3.0, 3.0))) == 4
    ev(0.5 - 2.0j)
    assert state() == before


def test_real_axis_values_nearly_real(fredholm6):
    for s in (0.3, 0.9, 1.5):
        z = fredholm6(complex(s))
        assert abs(z.imag) <= 1e-10 * max(1.0, abs(z))


def test_in_place_determinant_keeps_the_bits():
    # I - L is formed in place; the reference subtracts from an identity
    ev = FredholmEvaluator(MapSpec(c=-6.0), level=1)
    rng = np.random.default_rng(5)
    points = rng.uniform(-2.0, 1.5, 256) + 1j * rng.uniform(0.0, 40.0, 256)
    points[:32] = rng.uniform(0.05, 0.95, 32)
    for s in points:
        want = complex(np.linalg.det(np.eye(ev.size) - ev.matrix(s)))
        assert repr(ev(complex(s))) == repr(want)


def test_batch_matches_scalar(spec6):
    ev = FredholmEvaluator(spec6, level=2)
    ss = np.array([0.5 + 1.0j, -0.7 + 4.0j, 2.0 + 0.1j, 1.1 - 2.0j])
    vals = ev.batch(ss)
    fresh = FredholmEvaluator(spec6, level=2)
    for s, v in zip(ss, vals):
        assert v == fresh(complex(s))  # identical assembly, identical floats


def test_block_structure(fredholm6):
    # F is (2^level M / 2)^2; row element k contributes its branch-0 block
    # to pair row k mod 2^(level-1), in the column of word ("0" + word)[:level]
    ev, m = fredholm6, fredholm6.order
    words = ev.cover.words
    half = len(words) // 2
    f = ev.matrix(1.0)
    assert f.shape == (half * m,) * 2 == (folded_size(ev.level, m),) * 2
    assert len(ev._rows) == len(ev._cols) == len(words)
    index = {w: i for i, w in enumerate(words)}
    for k, word in enumerate(words):
        assert ev._rows[k] == k % half
        assert ev._cols[k] == index[("0" + word)[:ev.level]]
    # blocks outside the wiring are zero, and wired blocks are not
    wired = set(zip(ev._rows, ev._cols))
    for t in range(half):
        for u in range(half):
            block = f[t * m:(t + 1) * m, u * m:(u + 1) * m]
            assert np.all(block == 0.0) == ((t, u) not in wired)


def test_rejects_complex_mode():
    with pytest.raises(CoverError):
        FredholmEvaluator(MapSpec(c=-6, mode=Mode.COMPLEX_2D))


def test_radius_cap_guard(monkeypatch):
    # huge padding pushes an element across the branch-weight cut
    monkeypatch.setattr(juliazeta.zeta, "_PAD", 20.0)
    with pytest.raises(RadiusCapError, match="branch-weight cut"):
        FredholmEvaluator(MapSpec(c=-6), level=1)


def test_containment_margin_guard(monkeypatch, spec6):
    monkeypatch.setattr(juliazeta.zeta, "_PAD", 0.6)
    with pytest.raises(CoverError, match="not strictly inside"):
        FredholmEvaluator(spec6, level=1)


def test_mirror_guard(monkeypatch, spec6):
    # the fold needs element 1u to be the exact negation of element 0u: a
    # cover with one endpoint moved by an ulp is refused
    def moved(spec, level):
        cover = backward_cover(spec, level)
        hi = cover.hi.copy()
        hi[5] = math.nextafter(hi[5], math.inf)
        return replace(cover, hi=hi)

    monkeypatch.setattr(juliazeta.zeta, "backward_cover", moved)
    with pytest.raises(CoverError, match="'001' is not the mirror image of element '101'"):
        FredholmEvaluator(spec6, level=3)


def test_zeta_value_wraps_the_determinant(fredholm6):
    zv = fredholm6.zeta_value(1.2)
    assert zv.method == "fredholm"
    assert zv.tail_bound > 0.0
    assert zv.value == fredholm6(1.2)


def test_log_derivative_richardson(fredholm6, cat12):
    # a central difference of the Fredholm route, against the cycle
    # route's analytic d/ds log Z
    cyc = CycleEvaluator(cat12)
    for s in (1.3, 1.8 + 2.0j):
        s, h = complex(s), 1e-7 * (1.0 + abs(s))
        dn = (fredholm6(s + h) - fredholm6(s - h)) / (2.0 * h) / fredholm6(s)
        da = cyc.dlog(complex(s))
        assert abs(dn - da) < 1e-6


# The fold against an independent reference: the full two-branch L(s),
# 2E blocks on the E * M unknowns of the cover, assembled block by block.
# Off the axis by Cauchy quadrature, as the evaluator does; on the axis
# from exact Taylor coefficients in u = (z - x_k) / R_k, by truncated
# products of the series of (1 + eps u)^e, eps = R_k / (x_k - c)

def _series(a, e, m):
    """The first m Taylor coefficients of (1 + a u)^e."""
    out = [1.0]
    for j in range(1, m):
        out.append(out[-1] * (e - j + 1) / j * a)
    return np.array(out)


def _full_matrix(ev, s):
    words, m, theta = ev.cover.words, ev.order, juliazeta.zeta._THETA
    c, pad = ev.spec.c.real, juliazeta.zeta._PAD
    disks = [Disk(complex(0.5 * (iv.lo + iv.hi)), 0.5 * iv.width * pad)
             for iv in ev.cover.elements]
    index = {w: i for i, w in enumerate(words)}
    nodes = 4 * m
    omega = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    alphas = np.arange(m)
    dft = (theta ** (-alphas))[:, None] * \
        np.exp(-2j * np.pi * np.outer(alphas, np.arange(nodes)) / nodes) / nodes
    out = np.zeros((len(words) * m,) * 2, dtype=float if s.imag == 0.0 else complex)
    for k, word in enumerate(words):
        x, r = disks[k].center.real, disks[k].radius
        z = disks[k].center + theta * disks[k].radius * omega
        weights = np.exp(-(s / 2.0) * np.log(4.0 * (z - c)))
        for branch in (0, 1):
            j = index[(str(branch) + word)[:ev.level]] if ev.level > 0 else 0
            sign = 1.0 if branch == 0 else -1.0
            if s.imag == 0.0:
                # column beta: the weight's series times beta copies of the
                # series of the basis's base, (sign g_0 - x_j) / R_j
                base = sign * math.sqrt(x - c) * _series(r / (x - c), 0.5, m)
                base[0] -= disks[j].center.real
                base /= disks[j].radius
                e = -s.real / 2.0
                column = (4.0 * (x - c)) ** e * _series(r / (x - c), e, m)
                for beta in range(m):
                    out[k * m:(k + 1) * m, j * m + beta] += column
                    column = np.convolve(column, base)[:m]
            else:
                rel = (sign * np.sqrt(z - c) - disks[j].center) / disks[j].radius
                out[k * m:(k + 1) * m, j * m:(j + 1) * m] += \
                    dft @ (weights[:, None] * rel[:, None] ** alphas[None, :])
    return out


def _sign_pass_matrix(ev, s, dft=None, basis=None):
    """F(s) assembled as before the signed product: every block against
    the plain quadrature weights dft, then the 1u rows' blocks times D."""
    dft = ev._dft[0, 0] if dft is None else dft
    basis = ev._basis if basis is None else basis
    h = ev._half
    mb = len(dft)
    terms = np.exp(-(s / 2.0) * ev._logw)[:, None, :] * basis
    blocks = dft @ terms.transpose(0, 2, 1)
    blocks[h:] *= (-1.0) ** np.arange(mb)[:, None]
    out = np.zeros((h, mb, h, mb), dtype=complex)
    out[ev._rows[:h], :, ev._cols[:h], :] = blocks[:h]
    out[ev._rows[h:], :, ev._cols[h:], :] += blocks[h:]
    return out.reshape(ev.size, ev.size)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_signed_product_keeps_the_bits(level):
    # off the axis the 1u rows' blocks against D dft are the sign pass's,
    # bit for bit (the axis sums are checked by test_axis_matrix_*)
    ev = FredholmEvaluator(MapSpec(c=-6.0), level=level)
    rng = np.random.default_rng(11)
    points = list(rng.uniform(-2.0, 1.4, 30) + 1j * rng.uniform(-40.0, 40.0, 30))
    for s in map(complex, points):
        assert ev.matrix(s).tobytes() == _sign_pass_matrix(ev, s).tobytes()


# the (c, level) pairs with a valid cover: c = -3 needs level 2, c = -6
# level 1; level 0 has an odd order (15) at c = -20
_VALID = [(-3.0, 2), (-3.0, 3), (-6.0, 1), (-6.0, 2), (-6.0, 3),
          (-20.0, 0), (-20.0, 1), (-20.0, 2), (-20.0, 3)]


@pytest.mark.parametrize("c, level", _VALID)
def test_fold_matches_the_full_matrix(c, level):
    ev = FredholmEvaluator(MapSpec(c=c), level=level)
    assert ev.size == folded_size(level, ev.order)
    rng = np.random.default_rng(7)
    points = list(rng.uniform(-2.0, 1.4, 50) + 1j * rng.uniform(0.0, 40.0, 50))
    # real points right of -1.5: further left the LU's conditioning takes
    # digits (at s = -2 fold and reference differ by up to 8.8e-11 of Z)
    points += [complex(x) for x in (-1.0, -0.5, 0.2, 0.6, 1.3)]
    for s in points:
        full = _full_matrix(ev, s)
        want = complex(np.linalg.det(np.eye(len(full)) - full))
        if s.imag == 0.0:
            # on the axis the fold and the reference are real
            assert ev(s).imag == 0.0
            want = want.real
        assert abs(ev(s) - want) <= 1e-10 * abs(want)
        trace = complex(np.trace(full))
        assert abs(complex(np.trace(ev.matrix(s))) - trace) <= 1e-12 * max(1.0, abs(trace))
    for s in (0.3, 0.8 + 2.0j, -1.0 + 15.0j):
        full = np.linalg.eigvals(_full_matrix(ev, s))
        lam = complex(full[np.argmax(np.abs(full))])
        assert abs(leading_eigenvalue(ev, s) - lam) <= 1e-10 * abs(lam)


def _reduced_dft(ev):
    """The quadrature weights with their phases alpha t reduced mod 4M."""
    m, nodes = ev.order, 4 * ev.order
    alphas = np.arange(m)
    phases = np.outer(alphas, np.arange(nodes)) % nodes
    dft = (juliazeta.zeta._THETA ** (-alphas))[:, None] * \
        np.exp(-2j * np.pi * phases / nodes) / nodes
    return 2.0 * dft[::2] if ev.level == 0 else dft


def _stable_basis(ev):
    """The node basis ((g_0(z_t) - x_j) / R_j)^beta with g_0(z_t) - x_j
    formed as (z_t - x_k) / (g_0(z_t) + g_0(x_k)) + (g_0(x_k) - x_j): no
    cancellation at the nodes; the evaluator's node basis takes the
    difference directly, with up to |g_0| / R_j times the rounding of g_0."""
    cover, c, m = ev.cover, ev.spec.c.real, ev.order
    x = 0.5 * (cover.lo + cover.hi)
    radius = 0.5 * (cover.hi - cover.lo) * juliazeta.zeta._PAD
    cols = np.arange(len(x)) >> 1
    omega = np.exp(2j * np.pi * np.arange(4 * m) / (4 * m))
    dz = (juliazeta.zeta._THETA * radius)[:, None] * omega
    root = np.sqrt(x - c)
    rel = (dz / (np.sqrt(x[:, None] + dz - c) + root[:, None]) + (root - x[cols])[:, None]) / \
        radius[cols, None]
    betas = np.arange(0, m, 2) if ev.level == 0 else np.arange(m)
    return rel[:, None, :] ** betas[:, None]


@pytest.mark.parametrize("c, level", _VALID)
def test_axis_matrix_matches_reduced_twiddles(c, level):
    # on the axis F holds exact Taylor coefficients; the complex Cauchy sum
    # over all 4M nodes with reduced phases and a basis formed without
    # cancellation is off by its rounding only, which the Cauchy integral
    # scales by up to _THETA^{-(M-1)}.  Measured: at most 0.56 eps
    # _THETA^{-(M-1)} max|F| (c = -3, level 2); with the evaluator's node
    # basis the sum is off by up to 59 times it (c = -20, level 3)
    ev = FredholmEvaluator(MapSpec(c=c), level=level)
    dft, basis = _reduced_dft(ev), _stable_basis(ev)
    bound = 2.0 * np.finfo(float).eps * juliazeta.zeta._THETA ** (1 - ev.order)
    for x in np.linspace(-2.0, 1.4, 12):
        f = ev.matrix(complex(x))
        want = _sign_pass_matrix(ev, complex(x), dft, basis).real
        assert f.dtype == np.float64
        assert np.abs(f - want).max() <= bound * np.abs(want).max()


# Z on the axis for the same discretization (the evaluator's disks, order
# and fold, with every Taylor coefficient and the determinant in 40-digit
# mpmath arithmetic), rounded to 17 digits.  Cauchy sums, as off the axis,
# are off by 3.8e-10, 9.8e-14, 2.0e-9 and 3.6e-11 of the first four.  Right
# of the zeros, at levels 0 and 3, the weight's binomial series alternates
# and Z tends to 1: the double Z is within 1.1e-16 of each, and at s = 1000
# the weights underflow (the guard refuses real s beyond 3,684 at c = -20,
# level 0, where T G_k could overflow)
_AXIS_40_DIGITS = {(-6.0, 3, -1.0): -0.76529588757049711,
                   (-6.0, 2, 0.5): 0.073631765574437217,
                   (-20.0, 2, -1.9): 659.14685047230873,
                   (-3.0, 3, -1.0): 3.7404550513077773,
                   (-20.0, 0, 5.0): 0.99996176197101294,
                   (-3.0, 3, 5.0): 0.99331996656584920,
                   (-3.0, 3, 20.0): 0.99999999652508549,
                   (-6.0, 3, 20.0): 0.99999999999927208,
                   (-20.0, 0, 1000.0): 1.0,
                   (-3.0, 3, 1000.0): 1.0}


@pytest.mark.parametrize("key", sorted(_AXIS_40_DIGITS))
def test_axis_values_match_40_digit_arithmetic(key):
    c, level, s = key
    want = _AXIS_40_DIGITS[key]
    z = FredholmEvaluator(MapSpec(c=c), level=level)(s)
    assert z.imag == 0.0
    assert abs(z.real - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("c, level", _VALID)
def test_axis_values_are_real_and_batch_is_the_call(c, level):
    ev = FredholmEvaluator(MapSpec(c=c), level=level)
    xs = np.linspace(-2.0, 1.4, 9)
    values = ev.batch(xs)
    for x, v in zip(xs, values):
        z = ev(float(x))
        assert type(z) is complex and z.imag == 0.0
        assert v == z


def _one_ulp(lo, hi, k, where):
    """Copies of the endpoint arrays with element k moved by one ulp: its
    lower end down, or both ends up."""
    lo, hi = lo.copy(), hi.copy()
    if where == "lo":
        lo[k] = math.nextafter(lo[k], -math.inf)
    else:
        lo[k], hi[k] = math.nextafter(lo[k], math.inf), math.nextafter(hi[k], math.inf)
    return lo, hi


@pytest.mark.parametrize("level, k, where", [(0, 0, "both"), (1, 1, "lo"),
                                             (2, 3, "both"), (3, 6, "lo")])
def test_a_cover_that_is_not_mirrored_is_refused(monkeypatch, level, k, where):
    spec = MapSpec(c=-20.0)
    cover = backward_cover(spec, level)
    lo, hi = _one_ulp(cover.lo, cover.hi, k, where)
    assert (0.5 * (lo[k] + hi[k]), 0.5 * (hi[k] - lo[k])) != \
        (0.5 * (cover.lo[k] + cover.hi[k]), 0.5 * (cover.hi[k] - cover.lo[k]))
    bad = replace(cover, lo=lo, hi=hi)
    monkeypatch.setattr(juliazeta.zeta, "backward_cover", lambda spec, level: bad)
    with pytest.raises(CoverError, match="mirror"):
        FredholmEvaluator(spec, level=level)


# order and tail_bound, bit for bit; they set the tail_bound column of
# zeta-eval.  The orders are the unfolded evaluator's.  These tails moved by at
# most 2.3e-13 relative when the weight sup became exp of the largest
# Re(-(s/2) log w), from the largest modulus of the complex weights
_TAIL_POINTS = (0.45, -1.5 + 12.0j, 1.2 - 3.0j)
_TAIL_PINS = {
    (-3.0, 3): (42, (331817901.84056634, 8.119590889614867e+255, 281.91490283513275)),
    (-6.0, 1): (25, (7.198048144163215e-10, 1.245467213690631e+92, 9.709110924812414e-12)),
    (-6.0, 2): (24, (3.3601283179605776e-07, 2.248357801229797e+138, 7.651397459568368e-11)),
    (-6.0, 3): (25, (0.04400302011333667, 3.542031082464875e+272, 4.396506193530902e-09)),
    (-20.0, 0): (15, (2.7187738034345233e-12, 1.4070403553132443e+190,
                      1.886707284954613e-13)),
}


@pytest.mark.parametrize("key", sorted(_TAIL_PINS))
def test_order_and_tail_bound_keep_their_bits(key):
    c, level = key
    ev = FredholmEvaluator(MapSpec(c=c), level=level)
    order, tails = _TAIL_PINS[key]
    assert ev.order == order
    assert tuple(ev.tail_bound(s) for s in _TAIL_POINTS) == tails


def test_weight_guard_refuses_exactly_the_overflowing_weights(fredholm6):
    # on the axis an entry's exponent is bounded by the largest of the
    # lines offset - (s/2) slope: left of the axis's zeros by the weight's
    # maximum over the disks, far right by the products T G_k.  A real s
    # just inside either edge forms a finite F without a numpy warning,
    # and one just outside is refused before any array is formed
    offset, slope, cap = fredholm6._axis_bound
    reach = -2.0 * (cap - offset) / slope   # where each line meets the cap
    edges = reach[slope > 0].max(), reach[slope < 0].min()
    assert edges[0] < -300.0 and edges[1] > 1e4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for edge in edges:
            assert np.isfinite(fredholm6.matrix(edge * (1.0 - 1e-12))).all()
            with pytest.raises(TruncationError, match="branch weights at s = "):
                fredholm6.matrix(edge * (1.0 + 1e-12))
        with pytest.raises(TruncationError, match="branch weights at s = "):
            fredholm6.tail_bound(complex(0.5, 1e300))
    # between -50 and the cap the weights are finite and the determinant
    # overflows
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(TruncationError, match="determinant at s = .* is not finite"):
            fredholm6(-100.0)
