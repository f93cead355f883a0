"""Trace formula oracle for pullback operators on Hardy spaces of balls.

For an affine holomorphic contraction with fixed point z1 and derivative
mu, the pullback operator's trace is

    one variable:    |tr f*|  ->  1 / |1 - mu|
    two variables:    tr f*   ->  1 / |1 - mu|^2

where the two-variable operator comes from extending the planar map to
C^2, with differential in the conformal form (a -b; b a), mu = a + ib.
These are exactly the denominator conventions used by the cycle weights
(at mu = 1/Lambda), which is why this module anchors them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TraceError
from .util import write_csv


@dataclass(frozen=True)
class ContractionSpec:
    """Affine contraction g(z) = mu (z - fixed_point) + fixed_point on a
    ball; the two-variable reading uses the conformal block of mu."""

    mu: complex
    fixed_point: complex = 0.0 + 0.0j
    center: complex = 0.0 + 0.0j
    radius: float = 1.0

    def __post_init__(self):
        if abs(self.mu) >= 1.0:
            raise DomainError(f"|mu| = {abs(self.mu)} is not a contraction")
        if self.radius <= 0.0:
            raise ValueError("ball radius must be positive")
        # image of the closed ball must sit strictly inside the ball
        drift = abs(self.image_center() - self.center)
        if drift + abs(self.mu) * self.radius >= self.radius:
            raise DomainError(
                "image of the closed ball is not strictly inside the ball "
                f"(drift {drift}, contraction {abs(self.mu)})")

    def image_center(self) -> complex:
        return self.mu * (self.center - self.fixed_point) + self.fixed_point


def pullback_matrix_1d(spec: ContractionSpec, order: int) -> np.ndarray:
    """Order-M matrix of u -> u(g(z)) in the monomial basis
    ((z - center)/radius)^beta.

    Upper triangular with diagonal mu^beta; basis normalization constants
    cancel on the diagonal, so the truncated trace is normalization-free.
    """
    mu, r = spec.mu, spec.radius
    d = (spec.image_center() - spec.center) / r
    mat = np.zeros((order, order), dtype=complex)
    for beta in range(order):
        for alpha in range(beta, -1, -1):
            mat[alpha, beta] = math.comb(beta, alpha) * mu ** alpha * d ** (beta - alpha)
    return mat


def symmetric_block_trace(mu: complex, degree: int) -> complex:
    """Trace of the pullback restricted to homogeneous degree-d monomials
    in two variables: sum_j lambda1^j lambda2^(d-j) for the eigenvalue
    pair lambda = a +- ib of the conformal differential.

    Summed term by term: the closed-form eigenvalue-difference quotient
    cancels catastrophically when mu is nearly real.
    """
    lam = complex(mu)
    powers = np.empty(degree + 1, dtype=complex)
    powers[0] = 1.0
    for j in range(1, degree + 1):
        powers[j] = powers[j - 1] * lam
    return complex(np.dot(powers, np.conj(powers[::-1])))


def pullback_trace(spec: ContractionSpec, variables: int, order: int) -> float:
    """Trace of the order-M truncation of the pullback matrix.

    One variable truncates the monomial basis at degree < M and returns
    the modulus of the (complex) trace; two variables truncate at total
    degree < M, where the trace is real by conjugate pairing.
    """
    if variables == 1:
        return float(abs(np.trace(pullback_matrix_1d(spec, order))))
    if variables == 2:
        total = sum(symmetric_block_trace(spec.mu, d) for d in range(order))
        if abs(total.imag) > 1e-9 * max(1.0, abs(total.real)):
            raise TraceError(f"two-variable trace {total} is not real")
        return float(total.real)
    raise ValueError("variables must be 1 or 2")


def closed_form(spec: ContractionSpec, variables: int) -> float:
    """1/|1 - mu| in one variable, 1/|1 - mu|^2 in two."""
    base = abs(1.0 - spec.mu)
    return 1.0 / base if variables == 1 else 1.0 / (base * base)


def order_for_tolerance(mu_abs: float, tol: float, variables: int,
                        cap: int = 2000) -> int:
    """Smallest truncation with tail below tol: the discarded terms are
    geometric (one variable) or degree-weighted geometric (two)."""
    m = 8
    while m < cap:
        if variables == 1:
            tail = mu_abs ** m / (1.0 - mu_abs)
        else:
            tail = (m + 1) * mu_abs ** m / (1.0 - mu_abs) ** 2
        if tail <= tol:
            return m
        m += 1
    return cap


def comparison_table(mu_values=None, tol: float = 1e-11):
    """Rows (re mu, im mu, variables, order, trace, closed form, error)
    for a grid of contraction factors."""
    if mu_values is None:
        mu_values = [0.5, 0.5j, complex(0.3, 0.4)]
    rows = []
    for mu in mu_values:
        for variables in (1, 2):
            spec = ContractionSpec(mu=complex(mu))
            order = order_for_tolerance(abs(complex(mu)), tol, variables)
            got = pullback_trace(spec, variables, order)
            want = closed_form(spec, variables)
            rows.append((complex(mu).real, complex(mu).imag, variables,
                         order, got, want, abs(got - want)))
    return rows


def export_table(path: str, rows) -> None:
    write_csv(path, "re_mu,im_mu,variables,order,trace,closed_form,abs_error", rows)
