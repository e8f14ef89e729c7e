"""The circulant graph behind a canonical weight-2 GB code.

Vertices are Z/nZ.  Edge index k < n is the unit edge {k, k+1}; index n+k is
the long edge {k, k+alpha}.  With that indexing the vertex-edge incidence
matrix coincides bit-for-bit with h_x = [Circ(1+x) | Circ(1+x^alpha)], faces
are the rows of h_z, and closed walks are kernel vectors of h_x.  A
certificate is listed from its lattice vector t alone (``staircase_edges``):
the staircase of t is a weight-d logical when its d edges are distinct and
t is not in 2L.  An edge set is a plain int of 2n bits, bit k for edge k;
h_x v is two cyclic shifts of each half of the edge bits, so the cycle and
cut-parity checks cost O(n) word operations.

Edges are tracked by index, so the construction stays valid for the
degenerate values alpha in {1, n-1} where the simple graph would collapse to
a multigraph.
"""

from __future__ import annotations


def edge_support(bits: int) -> tuple[int, ...]:
    """The edge indices of an edge set, ascending, peeled off one lowest set bit at a time."""
    if bits < 0:
        raise ValueError("edge bits must be nonnegative")
    indices = []
    while bits:
        indices.append((bits & -bits).bit_length() - 1)  # the lowest set bit
        bits &= bits - 1
    return tuple(indices)


class TorusGraph:
    def __init__(self, n: int, alpha: int) -> None:
        if n < 2:
            raise ValueError("n must be at least 2")
        if not 1 <= alpha <= n - 1:
            raise ValueError("alpha must lie in [1, n - 1]")
        self.n = n
        self.alpha = alpha

    def face(self, p: int) -> int:
        """The quadrilateral p -> p+1 -> p+1+alpha -> p+alpha -> p (row p of h_z)."""
        n, a = self.n, self.alpha
        p %= n
        return (1 << p) | (1 << ((p + a) % n)) | (1 << (n + p)) | (1 << (n + (p + 1) % n))

    def staircase_edges(self, t: tuple[int, int]) -> tuple[int, ...]:
        """The ascending edge indices of the walk from vertex 0: |t.x| unit steps, then |t.y| long steps.

        The walk must close: t.x + alpha*t.y = 0 mod n.  Its unit edges are
        {k, k+1} for k in [0, t.x) or [t.x, 0), its long edges {v, v+alpha} for
        v = t.x + j*alpha, j in [0, t.y) or [t.y, 0); a revisited edge is listed
        once per visit.
        """
        tx, ty = t
        if (tx, ty) == (0, 0):
            raise ValueError("target displacement must be nonzero")
        n, a = self.n, self.alpha
        if (tx + a * ty) % n != 0:
            raise ValueError("walk does not close: t.x + alpha*t.y != 0 mod n")
        units = range(0, tx) if tx > 0 else range(tx, 0)
        longs = range(tx, tx + a * ty, a) if ty > 0 else range(tx + a * ty, tx, a)
        return tuple(sorted([k % n for k in units] + [n + v % n for v in longs]))

    def staircase(self, t: tuple[int, int]) -> int:
        """The XOR of ``staircase_edges(t)``, an edge set in ker(h_x); a revisited edge cancels in pairs."""
        bits = 0
        for k in self.staircase_edges(t):
            bits ^= 1 << k
        return bits

    def _rot(self, x: int, s: int) -> int:
        """Cyclic shift of an n-bit vertex vector: bit p moves to p + s mod n."""
        n = self.n
        s %= n
        return ((x << s) | (x >> (n - s))) & ((1 << n) - 1)

    def _split(self, bits: int) -> tuple[int, int]:
        if bits < 0 or bits >> (2 * self.n):
            raise ValueError("edge bits outside [0, 2n)")
        return bits & ((1 << self.n) - 1), bits >> self.n

    def boundary(self, bits: int) -> int:
        """h_x v: bit p is the parity of the edges of v at vertex p."""
        u, w = self._split(bits)
        return u ^ self._rot(u, 1) ^ w ^ self._rot(w, self.alpha)

    def dual_logicals(self) -> tuple[int, int]:
        """The edge sets crossing the torus's two cuts, both in ker(h_z).

        Lift vertex v to (v, 0); a unit step is (1, 0) and a long step (0, 1),
        so a closed walk lifts to c1 (n, 0) + c2 (-alpha, 1) in L.  The first
        mask (the edges that wrap past n - 1) reads c1 mod 2, the second (all
        long edges) reads c2 mod 2.
        """
        n, a = self.n, self.alpha
        wrap = (1 << (n - 1)) | ((((1 << a) - 1) << (n - a)) << n)
        return wrap, ((1 << n) - 1) << n

    def is_logical(self, bits: int) -> bool:
        """True iff bits is a cycle that is not a sum of faces.

        Both masks lie in ker(h_z), as the tests pin, so an odd overlap with
        one proves the cycle is not a sum of faces; the two masks read a
        cycle's class in L / 2L, so every nontrivial cycle meets one oddly.
        """
        return not self.boundary(bits) and any((bits & m).bit_count() & 1 for m in self.dual_logicals())

    def is_sum_of_faces(self, bits: int) -> bool:
        """Row-space membership in h_z; faces generate exactly the X stabilizers."""
        from .gf2matrix import BitMatrix, row_space_contains

        faces = BitMatrix(tuple(self.face(p) for p in range(self.n)), 2 * self.n)
        return row_space_contains(faces, bits)
