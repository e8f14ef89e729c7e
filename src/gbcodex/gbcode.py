"""Generalized bicycle construction.

A GB code is built from two polynomials A, B modulo x^n - 1 through their
circulants: h_x = [A | B], h_z = [B^T | A^T].  Circulants commute, so the
pair is always a valid CSS code.  Generators of weight two, x^i (1 + x^u) and
x^j (1 + x^v), give the code of (1 + x^u, 1 + x^v) (``weight2_exponents``),
whose parameters the lattice ``lattice.pair_lattice(u, v, n)`` fixes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2matrix, gf2poly
from .css import CssCode
from .gf2poly import BinaryPolynomial


@dataclass(frozen=True)
class GbSpec:
    a: BinaryPolynomial
    b: BinaryPolynomial
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        for p in (self.a, self.b):
            if not p.is_zero and p.degree > self.n - 1:
                raise ValueError("generator degree exceeds n - 1")

    @property
    def length(self) -> int:
        return 2 * self.n


def canonical_spec(alpha: int, n: int) -> GbSpec:
    """The canonical weight-2 pair (1 + x, 1 + x^alpha) over x^n - 1."""
    if not 1 <= alpha <= n - 1:
        raise ValueError("alpha must lie in [1, n - 1]")
    return GbSpec(BinaryPolynomial.from_support([0, 1]), BinaryPolynomial.from_support([0, alpha]), n)


def optimized_kitaev_spec(t: int) -> GbSpec:
    """The rotated-grid family member for odd distance d = 2t + 1.

    Generators (1 + x^(2t^2+1), x + x^(2t^2)) over x^n - 1 with n = (d^2+1)/2;
    parameters [d^2 + 1, 2, d].  The square-grid member [2m^2, 2, m] is
    ``canonical_spec(m, m * m)``.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    a = BinaryPolynomial.from_support([0, 2 * t * t + 1])
    b = BinaryPolynomial.from_support([1, 2 * t * t])
    return GbSpec(a, b, 2 * t * t + 2 * t + 1)


def build(spec: GbSpec) -> CssCode:
    """h_x = [A | B] and h_z = [B^T | A^T], with orthogonality re-asserted as AB = BA.

    h_z is one ``transpose`` of B stacked over A, so h_x h_z^T = AB + BA,
    which over GF(2) is zero exactly when A and B commute: two n x n
    products instead of ``css.new_css``'s transpose of h_z and product over
    2n columns.  The built matrices are still checked end to end by the tests
    ``test_h_z_is_transposed_circulants`` and ``test_orthogonality_always``.
    """
    a, b = gf2matrix.circulant(spec.a, spec.n), gf2matrix.circulant(spec.b, spec.n)
    if gf2matrix.mat_mul(a, b) != gf2matrix.mat_mul(b, a):
        raise ValueError("not orthogonal: AB != BA, so h_x @ h_z^T != 0")
    return CssCode(gf2matrix.hstack(a, b), gf2matrix.transpose(gf2matrix.BitMatrix(b.rows + a.rows, spec.n)))


def dimension_formula(spec: GbSpec) -> int:
    """2 deg gcd(a, b, x^n - 1); agrees with the rank-based dimension."""
    g = gf2poly.x_pow_minus_one(spec.n)
    for p in (spec.a, spec.b):
        if not p.is_zero:
            g = gf2poly.gcd(g, p)
    return 2 * g.degree


def weight2_exponents(spec: GbSpec) -> tuple[int, int] | None:
    """Exponents (u, v) when the generators are x^i (1 + x^u) and x^j (1 + x^v), else None.

    The monomial factor permutes qubits, so the code is that of (1 + x^u, 1 + x^v).
    """
    supports = [p.support() for p in (spec.a, spec.b)]
    if any(len(s) != 2 for s in supports):
        return None
    (a0, a1), (b0, b1) = supports
    return a1 - a0, b1 - b0
