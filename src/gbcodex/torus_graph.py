"""The circulant graph behind a canonical weight-2 GB code.

Vertices are Z/nZ.  Edge index k < n is the unit edge {k, k+1}; index n+k is
the long edge {k, k+alpha}.  With that indexing the vertex-edge incidence
matrix coincides bit-for-bit with h_x = [Circ(1+x) | Circ(1+x^alpha)], faces
are the rows of h_z, and closed walks are kernel vectors of h_x.  A
certificate is the sorted edge list ``staircase_edges(t)`` of a lattice
vector t: a weight-d logical when its d edges are distinct and t is not in
2L.  ``face``, ``staircase`` and ``is_sum_of_faces`` work on edge sets as
ints of 2n bits, bit k for edge k, for the dense cross-check.

Edges are tracked by index, so the construction stays valid for the
degenerate values alpha in {1, n-1} where the simple graph would collapse to
a multigraph.
"""

from __future__ import annotations


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

    def is_sum_of_faces(self, bits: int) -> bool:
        """Row-space membership in h_z; faces generate exactly the X stabilizers."""
        from .gf2matrix import BitMatrix, row_space_contains

        faces = BitMatrix(tuple(self.face(p) for p in range(self.n)), 2 * self.n)
        return row_space_contains(faces, bits)
