"""Qubits as graph edges: boundaries, faces and staircase certificates.

The canonical code at (alpha, n) lives on a circulant graph: vertices Z/nZ,
a unit edge k <-> k+1 (index k) and a long edge k <-> k+alpha (index n+k)
for every k.  The boundary of an edge set (the parity at each vertex) is h_x
times it, the quadrilateral faces are the rows of h_z, and a closed walk has
zero boundary.  A closed walk with net displacement t lifts to t = c1 (n, 0)
+ c2 (-alpha, 1) in the attached lattice L, and its class (c1, c2) mod 2
decides whether it is a sum of faces.  A certificate is the staircase of a t
outside 2L with distinct edges: a logical operator of weight |t|_1.
"""

from gbcodex.css import is_logical_x
from gbcodex.gbcode import build, canonical_spec
from gbcodex.gf2matrix import mat_vec
from gbcodex.torus_graph import TorusGraph


def main():
    n, alpha = 13, 5
    graph = TorusGraph(n, alpha)
    code = build(canonical_spec(alpha, n))

    print(f"graph on Z/{n}Z with unit and {alpha}-edges")
    ends = [(k, k + 1) if k < n else (k - n, k - n + alpha) for k in range(2 * n)]
    columns = all(mat_vec(code.h_x, 1 << k) == 1 << u | 1 << v % n for k, (u, v) in enumerate(ends))
    print("each h_x column is the boundary of its edge:", columns)
    face = graph.face(0)
    print("face(0) edge indices  :", [k for k in range(2 * n) if face >> k & 1])
    print("face(0) boundary      :", mat_vec(code.h_x, face))
    print()

    # a cycle from its lattice displacement: 2 + 5 * (-3) = -13 = 0 mod 13
    t = (2, -3)
    c1, c2 = (t[0] + alpha * t[1]) // n, t[1]
    edges = graph.staircase_edges(t)
    stair = sum(1 << k for k in edges)
    print(f"staircase {t} edges:", edges)
    print("weight                 :", len(edges), "distinct" if len(set(edges)) == len(edges) else "repeated")
    print("boundary               :", mat_vec(code.h_x, stair))
    print(f"lattice class          : {t} = {c1}*({n}, 0) + {c2}*({-alpha}, 1), "
          f"so ({c1 % 2}, {c2 % 2}) mod 2L")
    print()

    # the dense check agrees with the class; adding a face keeps a logical logical
    combined = stair ^ graph.face(4)
    for name, bits in (("face(0)", face), ("staircase", stair), ("staircase + face(4)", combined)):
        print(f"{name:20}: is_logical_x {is_logical_x(code, bits)}, weight {bits.bit_count()}")


if __name__ == "__main__":
    main()
