import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from juliazeta.errors import DomainError, TraceError
from juliazeta.tracecheck import (ContractionSpec, closed_form,
                                  comparison_table, order_for_tolerance,
                                  pullback_matrix_1d, pullback_trace,
                                  symmetric_block_trace)


def test_one_variable_half():
    spec = ContractionSpec(mu=0.5)
    assert pullback_trace(spec, 1, 45) == pytest.approx(2.0, abs=1e-12)


def test_two_variable_imaginary_half():
    spec = ContractionSpec(mu=0.5j)
    order = order_for_tolerance(0.5, 1e-13, 2)
    assert pullback_trace(spec, 2, order) == pytest.approx(0.8, abs=1e-12)


def test_two_variable_three_four():
    spec = ContractionSpec(mu=complex(0.3, 0.4))
    order = order_for_tolerance(0.5, 1e-13, 2)
    assert pullback_trace(spec, 2, order) == pytest.approx(1.0 / 0.65, abs=1e-10)


def test_rejects_expanding_spec():
    with pytest.raises(DomainError):
        ContractionSpec(mu=1.2)
    with pytest.raises(DomainError):
        # fixed point so far outside that the image ball escapes
        ContractionSpec(mu=0.9, fixed_point=100.0 + 0.0j)


def test_truncation_convergence_rate():
    # |trace_M - closed| <= C |mu|^M with stable C across M
    mu = 0.6 * cmath.exp(0.7j)
    spec = ContractionSpec(mu=mu)
    cs = []
    for order in (20, 40, 60):
        err = abs(pullback_trace(spec, 1, order) - closed_form(spec, 1))
        cs.append(err / abs(mu) ** order)
    assert max(cs) <= 10.0 * min(cs) + 1e-9


def test_conjugation_invariance():
    base = ContractionSpec(mu=0.45 + 0.3j)
    moved = ContractionSpec(mu=0.45 + 0.3j, fixed_point=0.25 - 0.31j)
    for order in (30, 55):
        assert pullback_trace(base, 1, order) == \
            pytest.approx(pullback_trace(moved, 1, order), abs=1e-12)
        assert pullback_trace(base, 2, order) == \
            pytest.approx(pullback_trace(moved, 2, order), abs=1e-12)


def test_matrix_is_triangular_with_power_diagonal():
    spec = ContractionSpec(mu=0.4 + 0.2j, fixed_point=0.3)
    mat = pullback_matrix_1d(spec, 12)
    assert np.allclose(np.tril(mat, -1), 0.0)
    assert np.allclose(np.diag(mat), [(0.4 + 0.2j) ** b for b in range(12)])


def symmetric_block_matrix(a: float, b: float, degree: int) -> np.ndarray:
    """Raw-coordinate degree-d block of the two-variable pullback: the
    matrix of w^alpha -> (a w1 - b w2)^{alpha1} (b w1 + a w2)^{alpha2}
    restricted to |alpha| = d.  The reference for the eigenvalue route;
    the linear change of variables that diagonalizes the differential has
    determinant one and preserves each block's trace exactly."""
    size = degree + 1
    mat = np.zeros((size, size), dtype=float)
    for a1 in range(size):
        a2 = degree - a1
        # coefficients of (a w1 - b w2)^a1 convolved with (b w1 + a w2)^a2
        p = np.zeros(a1 + 1)
        for j in range(a1 + 1):
            p[j] = math.comb(a1, j) * a ** j * (-b) ** (a1 - j)
        q = np.zeros(a2 + 1)
        for j in range(a2 + 1):
            q[j] = math.comb(a2, j) * b ** j * a ** (a2 - j)
        col = np.convolve(p, q)      # col[k] = coefficient of w1^k w2^(d-k)
        mat[:, a1] = col
    return mat


@given(st.floats(min_value=-0.65, max_value=0.65),
       st.floats(min_value=-0.65, max_value=0.65))
@settings(max_examples=20, deadline=None)
def test_two_variable_block_trace_matches_raw_matrix(a, b):
    # the diagonalized route must equal the raw-coordinate block trace
    if a * a + b * b >= 0.9:
        return
    mu = complex(a, b)
    for d in (0, 1, 3, 7):
        eig = symmetric_block_trace(mu, d)
        raw = complex(np.trace(symmetric_block_matrix(a, b, d)))
        assert abs(eig - raw) <= 1e-10 * max(1.0, abs(raw))


def test_acceptance_grid():
    worst = 0.0
    for r in (0.1, 0.3, 0.5, 0.7, 0.9):
        for k in range(8):
            mu = r * cmath.exp(2j * math.pi * k / 8.0)
            spec = ContractionSpec(mu=mu)
            for variables in (1, 2):
                order = order_for_tolerance(r, 1e-11, variables)
                err = abs(pullback_trace(spec, variables, order)
                          - closed_form(spec, variables))
                worst = max(worst, err)
    assert worst <= 1e-10


def test_cycle_denominator_anchor():
    # oracle values equal the cycle-weight denominators at Lambda = 1/mu
    for lam in (6.0, -4.0, 3.0 + 2.0j):
        mu = 1.0 / lam
        spec = ContractionSpec(mu=mu)
        one = pullback_trace(spec, 1, 220)
        two = pullback_trace(spec, 2, 220)
        assert one == pytest.approx(1.0 / abs(1.0 - 1.0 / lam), rel=1e-10)
        assert two == pytest.approx(1.0 / abs(1.0 - 1.0 / lam) ** 2, rel=1e-10)


def test_comparison_table_rows():
    rows = comparison_table()
    assert len(rows) == 6
    assert max(row[-1] for row in rows) < 1e-10


def test_two_variable_trace_must_be_real(monkeypatch):
    import juliazeta.tracecheck
    monkeypatch.setattr(juliazeta.tracecheck, "symmetric_block_trace",
                        lambda mu, degree: complex(1.0, 1e-3))
    with pytest.raises(TraceError, match="not real"):
        pullback_trace(ContractionSpec(mu=complex(0.3, 0.4)), 2, 8)
