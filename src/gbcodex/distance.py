"""Exact minimum distance of canonical weight-2 GB codes.

The code (1 + x, 1 + x^alpha) over x^n - 1 is the square-grid toric code on
Z^2 / L with L = {(x, y) : x + alpha*y = 0 mod n}, so its distance on either
side is the least L1 norm of a nonzero vector of L (see ``determine``).  A
report carries that value with an explicit weight-d logical operator, and
the paper's Euclidean lower bound as ``lower_bound``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import ceil_sqrt, enumerate_short, gb_lattice, min_l1, shortest_norm2
from .torus_graph import TorusGraph, edge_support

# k = 2 deg gcd(1 + x, 1 + x^alpha, x^n - 1) = 2: the gcd divides 1 + x, and
# 1 + x divides all three, because each has an even number of terms.
CANONICAL_K = 2


@dataclass(frozen=True)
class DistanceReport:
    n: int
    alpha: int
    k: int
    lower_bound: int
    upper_bound: int
    certificate: tuple[int, ...]

    @property
    def length(self) -> int:
        return 2 * self.n

    @property
    def exact(self) -> int:
        """The distance; the certificate weight is exact by the min-L1 argument."""
        return self.upper_bound

    @property
    def method(self) -> str:
        return "sandwich-closed"


def lattice_lower_bound(alpha: int, n: int) -> int:
    """ceil(shortest Euclidean lattice length) <= d = min-L1 at every n (see ``determine``)."""
    return ceil_sqrt(shortest_norm2(gb_lattice(alpha, n)))


def upper_bound_certificate(alpha: int, n: int) -> tuple[int, int]:
    """The staircase of a minimal-L1 lattice vector, revalidated once.

    Returns (weight, edge bits).  The staircase closes, so it lies in ker(h_x);
    it must also have weight min-L1 and lie outside the face span, or a
    RuntimeError is raised.
    """
    l1 = min_l1(gb_lattice(alpha, n))
    graph = TorusGraph(n, alpha)
    bits = graph.staircase(l1.witness)
    weight = bits.bit_count()
    if weight != l1.value or graph.is_sum_of_faces(bits):
        raise RuntimeError(f"staircase of {l1.witness} is not a weight-{l1.value} logical "
                           f"for alpha={alpha}, n={n}")
    return weight, bits


def parity_refined_lower(alpha: int, n: int) -> int:
    """Sharpen the Euclidean bound by a step-count parity argument.

    A closed walk with net displacement t uses at least ||t||_2 steps, and its
    total step count has the parity of |t.x| + |t.y|.  Minimizing that over
    the candidate displacements inside the minimal-L1 ball, then taking the
    max with the plain bound, gives the refined lower bound.  It never
    exceeds min-L1, so ``determine`` does not need it.
    """
    if not 1 < alpha < n - 1:
        raise ValueError("parity refinement requires 1 < alpha < n - 1")
    lat = gb_lattice(alpha, n)
    best = None
    for t in enumerate_short(lat, min_l1(lat).value):
        c = ceil_sqrt(t[0] * t[0] + t[1] * t[1])
        if (c ^ (abs(t[0]) + abs(t[1]))) & 1:
            c += 1
        if best is None or c < best:
            best = c
    return max(ceil_sqrt(shortest_norm2(lat)), best)


def determine(alpha: int, n: int) -> DistanceReport:
    """Exact distance of (1 + x, 1 + x^alpha, n): d_X = d_Z = min-L1(L).

    The Tanner graph of h_x has vertices Z/n and edges v -> v + 1 and
    v -> v + alpha, which is the square grid Z^2 modulo
    L = {(x, y) : x + alpha*y = 0 mod n}; the rows of h_z are its square
    faces, so the code is the toric code on Z^2 / L.  An X-logical is a cycle
    with a nonzero class in H_1 = L / 2L, so one of its closed walks lifts to
    a nonzero t in L and has at least ||t||_1 edges: d_X >= min-L1(L).  The
    dual graph is the same grid, which gives d_Z >= min-L1(L) too.  The
    staircase of an L1-minimal vector attains the bound, because that vector
    is primitive and so nonzero in L / 2L.

    ``lower`` is the paper's Euclidean bound, which never exceeds min-L1.  A
    RuntimeError means the certificate failed revalidation or the bounds
    cross, either of which would contradict the argument above.
    """
    lower = lattice_lower_bound(alpha, n)
    upper, cert = upper_bound_certificate(alpha, n)
    if lower > upper:
        raise RuntimeError(f"lower bound {lower} exceeds certified upper {upper} for alpha={alpha}, n={n}")
    return DistanceReport(
        n=n,
        alpha=alpha,
        k=CANONICAL_K,
        lower_bound=lower,
        upper_bound=upper,
        certificate=edge_support(cert),
    )
