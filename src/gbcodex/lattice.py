"""Integer 2D lattices: reduction, shortest vectors, short-vector enumeration.

The lattice of the weight-2 pair (1 + x^u, 1 + x^v) over x^n - 1 is
L = {(x, y) : u*x + v*y = 0 mod n} (``pair_lattice``); the canonical pair
u = 1, v = alpha gives the basis (n, 0), (-alpha, 1) (``gb_lattice``).
All norms are kept in exact integer arithmetic (squared Euclidean length and
L1 length); floats appear only as presentation output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

Vec = tuple[int, int]


def _dot(a: Vec, b: Vec) -> int:
    return a[0] * b[0] + a[1] * b[1]


def _norm2(a: Vec) -> int:
    return a[0] * a[0] + a[1] * a[1]


def _l1(a: Vec) -> int:
    return abs(a[0]) + abs(a[1])


def ceil_sqrt(m: int) -> int:
    """Smallest integer c with c*c >= m, computed exactly."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    c = math.isqrt(m)
    return c if c * c == m else c + 1


@dataclass(frozen=True)
class Lattice2D:
    b1: Vec
    b2: Vec

    def __post_init__(self) -> None:
        if self._signed_det() == 0:
            raise ValueError("basis is degenerate")

    def _signed_det(self) -> int:
        return self.b1[0] * self.b2[1] - self.b1[1] * self.b2[0]

    @property
    def det(self) -> int:
        return abs(self._signed_det())


def pair_lattice(u: int, v: int, n: int) -> tuple[Lattice2D, int]:
    """L = {(x, y) : u*x + v*y = 0 mod n} of the pair (1 + x^u, 1 + x^v) over x^n - 1, and g = gcd(u, v, n).

    The Tanner graph of h_x = [1 + x^u | 1 + x^v] has vertices Z/n and edges
    w -> w + u, w -> w + v.  (x, y) -> u*x + v*y maps Z^2 onto gZ/n, so the
    graph is g copies of the square grid Z^2 / L, |det L| = n / g and k = 2g
    (gcd(1 + x^u, 1 + x^v, 1 + x^n) = 1 + x^g).  With c = gcd(u, n) the basis
    is (n/c, 0), the least (x, 0) in L, and (x0, c/g), the least y in L over
    x0 in (-n/c, 0] with (u/c) x0 = -(v/g) mod n/c; for u = 1 it is (n, 0),
    (-alpha, 1) with alpha = v mod n.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if u % n == 0 or v % n == 0:
        raise ValueError("generator 1 + x^e reduces to zero mod x^n - 1 (e = 0 mod n)")
    c = math.gcd(u, n)
    g = math.gcd(c, v)
    m = n // c
    return Lattice2D((m, 0), (-(v // g * pow(u // c, -1, m) % m), c // g)), g


def gb_lattice(alpha: int, n: int) -> Lattice2D:
    """The lattice {(x, y) : x + alpha*y = 0 mod n}, basis (n, 0), (-alpha, 1)."""
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= alpha <= n - 1:
        raise ValueError("alpha must lie in [1, n - 1]")
    return pair_lattice(1, alpha, n)[0]


def _sign_normalize(v: Vec) -> Vec:
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        return (-v[0], -v[1])
    return v


def gauss_reduce(lat: Lattice2D) -> Lattice2D:
    """Lagrange-Gauss reduction; afterwards b1 is a shortest nonzero vector.

    Exit condition: |b1| <= |b2| and |<b1, b2>| <= |b1|^2 / 2.
    """
    b1, b2 = lat.b1, lat.b2
    if _norm2(b1) > _norm2(b2):
        b1, b2 = b2, b1
    while True:
        n1 = _norm2(b1)
        q = (2 * _dot(b1, b2) + n1) // (2 * n1)  # nearest integer, exact
        b2 = (b2[0] - q * b1[0], b2[1] - q * b1[1])
        if _norm2(b2) >= n1:
            break
        b1, b2 = b2, b1
    b1 = _sign_normalize(b1)
    b2 = _sign_normalize(b2)
    if _norm2(b1) == _norm2(b2) and b2 < b1:
        b1, b2 = b2, b1
    return Lattice2D(b1, b2)


def _reduced(lat: Lattice2D) -> Lattice2D:
    """lat itself when its basis already meets ``gauss_reduce``'s exit condition, else its reduction."""
    n1 = _norm2(lat.b1)
    return lat if n1 <= _norm2(lat.b2) and 2 * abs(_dot(lat.b1, lat.b2)) <= n1 else gauss_reduce(lat)


def shortest_norm2(lat: Lattice2D) -> int:
    """Exact squared length of a shortest nonzero vector."""
    return _norm2(gauss_reduce(lat).b1)


def enumerate_short(lat: Lattice2D, radius_l1: int) -> list[Vec]:
    """All nonzero lattice vectors with L1 norm <= radius_l1, each listed once.

    Coefficient bounds come from the reduced basis: for Gauss-reduced b1, b2
    and any c1 b1 + c2 b2 of Euclidean norm <= R, |c_i|^2 <= 4R^2 / (3 |b_i|^2).
    L1 <= radius implies Euclidean <= radius, so the double loop is enclosing.
    A basis that is already reduced is used as it is.
    """
    if radius_l1 < 1:
        raise ValueError("radius must be at least 1")
    red = _reduced(lat)
    b1, b2 = red.b1, red.b2
    n1, n2 = _norm2(b1), _norm2(b2)
    r2 = radius_l1 * radius_l1
    c1_max = math.isqrt(4 * r2 // (3 * n1))
    c2_max = math.isqrt(4 * r2 // (3 * n2))
    out = []
    for c1 in range(-c1_max, c1_max + 1):
        for c2 in range(-c2_max, c2_max + 1):
            v = (c1 * b1[0] + c2 * b2[0], c1 * b1[1] + c2 * b2[1])
            if v != (0, 0) and _l1(v) <= radius_l1:
                out.append(v)
    out.sort(key=lambda v: (_l1(v), v[0], v[1]))
    return out


class L1Minimum(NamedTuple):
    value: int
    witness: Vec


def min_l1(lat: Lattice2D) -> L1Minimum:
    """Minimum L1 norm over nonzero lattice vectors, with one witness.

    Let b1, b2 be Gauss-reduced: |b1| <= |b2| and 2|b1.b2| <= |b1|^2.  Then
    |c1 b1 + c2 b2|^2 >= (c1^2 - |c1 c2| + c2^2)|b1|^2, and an L1-minimal v
    has |v|_2 <= |v|_1 <= |b1|_1 <= sqrt(2)|b1|_2, so c1^2 - |c1 c2| + c2^2
    <= 2.  That form never takes the value 2, so every minimal vector is one
    of +-b1, +-b2, +-(b1 + b2), +-(b1 - b2).  The witness is the
    lexicographically smallest (|x|+|y|, x, y) of those eight, so catalogs
    are deterministic.  The lattice is reduced once, and not at all when its
    basis already is.
    """
    red = _reduced(lat)
    (x1, y1), (x2, y2) = red.b1, red.b2
    candidates = [(x1, y1), (x2, y2), (x1 + x2, y1 + y2), (x1 - x2, y1 - y2)]
    best = min([(s * x, s * y) for x, y in candidates for s in (1, -1)], key=lambda v: (_l1(v), v[0], v[1]))
    return L1Minimum(_l1(best), best)
