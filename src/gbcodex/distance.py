"""Exact minimum distance of weight-2 GB codes.

The code (1 + x^u, 1 + x^v) over x^n - 1 is g = gcd(u, v, n) copies of the
square-grid toric code on Z^2 / L with L = {(x, y) : u*x + v*y = 0 mod n}, so
its distance on either side is the least L1 norm of a nonzero vector of L
(see ``determine``).  ``pair_fields`` reduces L once and every bound and
report reads it.  ``lattice_fields`` adds the catalog's fields for the
canonical pair (1 + x, 1 + x^alpha), whose report carries d with the
staircase of its witness as a weight-d logical operator, and the paper's
Euclidean lower bound as ``lower_bound``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import Lattice2D, ceil_sqrt, enumerate_short, gauss_reduce, min_l1, pair_lattice
from .torus_graph import TorusGraph


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


def pair_fields(u: int, v: int, n: int) -> dict:
    """k, d and the lattice fields of (1 + x^u, 1 + x^v, n), from one Gauss reduction of its lattice.

    k = 2g (``pair_lattice``) and d = min-L1 by the argument in ``determine``,
    which holds on each of the g torus components; lambda2 and the Euclidean
    bound lower = ceil(sqrt(lambda2)) come from the reduced basis, which
    ``min_l1`` reuses.  A RuntimeError means lower > d, against that argument.
    """
    lat, g = pair_lattice(u, v, n)
    reduced = gauss_reduce(lat)
    l1 = min_l1(reduced)  # reuses the reduced basis
    d, lambda2 = l1.value, reduced.b1[0] ** 2 + reduced.b1[1] ** 2  # b1 is a shortest vector
    lower = ceil_sqrt(lambda2)
    if lower > d:
        raise RuntimeError(f"lower bound {lower} exceeds certified upper {d} for u={u}, v={v}, n={n}")
    return {
        "k": 2 * g,
        "d": d,
        "lower": lower,
        "method": "sandwich-closed",
        "lambda2": lambda2,
        "min_l1": d,
        "basis": [list(reduced.b1), list(reduced.b2)],
        "t_witness": list(l1.witness),
    }


def lattice_fields(alpha: int, n: int) -> dict:
    """Every catalog field that (alpha, n) fixes but the roots and the certificate, in JSON form.

    The lattice fields are ``pair_fields(1, alpha, n)``, with k = 2: the gcd
    of 1 + x, 1 + x^alpha and x^n - 1 is 1 + x.

    The tag needs only (n, d): a class +-a/b has d = a + b, so 2n - d^2 =
    (b - a)^2 is 1 exactly for the rotated grid [[d^2 + 1, 2, d]], alpha =
    +-(t + 1)/t.  The square grid n = d^2 would need ab = 0, i.e. n = 1.
    """
    if not 1 <= alpha <= n - 1:
        raise ValueError("alpha must lie in [1, n - 1]")
    fields = pair_fields(1, alpha, n)
    tag = "optimized-kitaev" if 2 * n == fields["d"] ** 2 + 1 else "new"
    return {"n": n, "alpha": alpha, "length": 2 * n, **fields, "tag": tag}


def lattice_lower_bound(alpha: int, n: int) -> int:
    """ceil(shortest Euclidean lattice length) <= d = min-L1 at every n (see ``determine``)."""
    return lattice_fields(alpha, n)["lower"]


def upper_bound_certificate(alpha: int, n: int, t: tuple[int, int]) -> tuple[int, ...]:
    """The edges of the staircase of the minimal-L1 lattice vector t, listed from t, revalidated once.

    The staircase closes, so it lies in ker(h_x); it must also have weight
    |t|_1 and lie outside the face span, or a RuntimeError is raised.
    """
    graph = TorusGraph(n, alpha)
    bits = graph.staircase(t)
    weight = abs(t[0]) + abs(t[1])
    if bits.bit_count() != weight or graph.is_sum_of_faces(bits):
        raise RuntimeError(f"staircase of {t} is not a weight-{weight} logical for alpha={alpha}, n={n}")
    return graph.staircase_edges(t)


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
    fields = lattice_fields(alpha, n)
    steps = []  # the witness lies in the ball, so this is never empty
    for x, y in enumerate_short(Lattice2D(*map(tuple, fields["basis"])), fields["d"]):  # already reduced
        c = ceil_sqrt(x * x + y * y)
        steps.append(c + ((c ^ (abs(x) + abs(y))) & 1))  # the least count >= c with the parity of |x| + |y|
    return max(fields["lower"], min(steps))


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
    fields = lattice_fields(alpha, n)
    return DistanceReport(
        n=n,
        alpha=alpha,
        k=fields["k"],
        lower_bound=fields["lower"],
        upper_bound=fields["d"],
        certificate=upper_bound_certificate(alpha, n, tuple(fields["t_witness"])),
    )
