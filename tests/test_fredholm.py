import numpy as np
import pytest

from juliazeta.dynamics import MapSpec, Mode
from juliazeta.errors import CoverError, PoleError, RadiusCapError
from juliazeta.zeta import (CycleEvaluator, FredholmEvaluator, fredholm_det,
                            zeta_derivative)


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


def test_order_refinement_stability(spec6):
    base = FredholmEvaluator(spec6, level=2)
    finer = FredholmEvaluator(spec6, level=2, order=base.order + 10)
    for s in (0.7, 1.0 + 3.0j, -0.5 + 5.0j):
        assert abs(base(complex(s)) - finer(complex(s))) < 1e-10


def test_tail_honesty_under_halving(spec6):
    base = FredholmEvaluator(spec6, level=2)
    half = FredholmEvaluator(spec6, level=2, order=base.order // 2)
    for s in (0.8, 1.3 + 2.0j):
        change = abs(base(complex(s)) - half(complex(s)))
        assert change <= half.zeta_value(s).tail_bound


def test_perron_leading_eigenvalue(fredholm6):
    for s in (0.6, 1.0, 1.8):
        lam = fredholm6.leading_eigenvalue(s)
        assert abs(lam.imag) <= 1e-10 * abs(lam)
        assert lam.real > 0.0


def test_leading_eigenvalue_crosses_one_at_delta(fredholm6, delta6):
    assert abs(fredholm6.leading_eigenvalue(delta6) - 1.0) < 1e-9
    assert abs(fredholm6.leading_eigenvalue(delta6 + 0.2)) < 1.0
    assert abs(fredholm6.leading_eigenvalue(delta6 - 0.2)) > 1.0


def test_conjugate_symmetry(fredholm6):
    for s in (0.8 + 2.0j, -1.0 + 7.0j, 1.4 + 0.3j):
        a = fredholm6(s)
        b = fredholm6(s.conjugate())
        assert abs(b - a.conjugate()) <= 1e-12 * max(1.0, abs(a))


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
    tm = fredholm6.transfer_matrix(1.0)
    elements = len(tm.element_words)
    assert tm.entries.shape == (elements * tm.order,) * 2
    targets = {(t, s) for t, s, _branch in tm.blocks}
    assert len(tm.blocks) == 2 * elements
    index = {w: i for i, w in enumerate(tm.element_words)}
    for t, s, branch in tm.blocks:
        word = tm.element_words[t]
        assert index[(str(branch) + word)[:fredholm6.level]] == s
    # blocks outside the wiring are zero
    m = tm.order
    wired = {(t, s) for t, s, _ in tm.blocks}
    for t in range(elements):
        for s in range(elements):
            block = tm.entries[t * m:(t + 1) * m, s * m:(s + 1) * m]
            if (t, s) not in wired:
                assert np.all(block == 0.0)


def test_rejects_complex_mode():
    with pytest.raises(CoverError):
        FredholmEvaluator(MapSpec(c=-6, mode=Mode.COMPLEX_2D))


def test_radius_cap_guard():
    # huge padding pushes an element across the branch-weight cut
    with pytest.raises((RadiusCapError, CoverError)):
        FredholmEvaluator(MapSpec(c=-6), level=1, pad=20.0)


def test_containment_margin_guard(spec6):
    with pytest.raises(CoverError):
        FredholmEvaluator(spec6, level=1, pad=0.6)


def test_fredholm_det_wrapper(spec6, fredholm6):
    zv = fredholm_det(1.2, fredholm6)
    assert zv.method.value == "fredholm"
    assert zv.tail_bound > 0.0
    assert zv.value == fredholm6(1.2)


def test_log_derivative_richardson(fredholm6, cat12):
    cyc = CycleEvaluator(cat12)
    for s in (1.3, 1.8 + 2.0j):
        dn = zeta_derivative(s, fredholm6)
        da = cyc.dlog(complex(s))
        assert abs(dn - da) < 1e-6


def test_log_derivative_pole_flag(fredholm6, delta6):
    with pytest.raises(PoleError):
        zeta_derivative(complex(delta6), fredholm6)
