"""Qubits as graph edges: boundaries, faces, cut parities and staircase certificates.

The canonical code at (alpha, n) lives on a circulant graph: vertices Z/nZ,
a unit edge k <-> k+1 and a long edge k <-> k+alpha for every k.  An edge set
is an int of 2n bits.  Its boundary (the parity at each vertex) is h_x times
it, the quadrilateral faces are the rows of h_z, and a closed walk has zero
boundary.  A closed walk with net displacement t lifts to t = c1 (n, 0) +
c2 (-alpha, 1) in the attached lattice L, and two cut masks read (c1, c2)
mod 2.  Faces meet both cuts evenly; the staircase of a primitive lattice
vector meets one oddly, so it is a logical operator.
"""

from gbcodex.css import is_logical_x
from gbcodex.gbcode import build, canonical_spec
from gbcodex.gf2matrix import mat_vec
from gbcodex.torus_graph import TorusGraph, edge_support


def cut_parities(graph, bits):
    return tuple((bits & m).bit_count() & 1 for m in graph.dual_logicals())


def main():
    n, alpha = 13, 5
    graph = TorusGraph(n, alpha)
    code = build(canonical_spec(alpha, n))

    print(f"graph on Z/{n}Z with unit and {alpha}-edges")
    columns = all(graph.boundary(1 << j) == mat_vec(code.h_x, 1 << j) for j in range(2 * n))
    print("boundary of each edge is its h_x column:", columns)
    face = graph.face(0)
    print("face(0) edge indices  :", edge_support(face))
    print("face(0) boundary      :", graph.boundary(face))
    print("face(0) cut parities  :", cut_parities(graph, face))
    print()

    # a cycle from its lattice displacement: 2 + 5 * (-3) = -13 = 0 mod 13
    t = (2, -3)
    c1, c2 = (t[0] + alpha * t[1]) // n, t[1]
    stair = graph.staircase(t)
    print(f"staircase {t} edges:", edge_support(stair))
    print("weight                 :", stair.bit_count())
    print("boundary               :", graph.boundary(stair))
    print("cut parities           :", cut_parities(graph, stair))
    print(f"lattice class          : {t} = {c1}*({n}, 0) + {c2}*({-alpha}, 1), "
          f"so ({c1 % 2}, {c2 % 2}) mod 2L")
    print()

    # the O(n) check agrees with the dense one; adding a face keeps a logical logical
    combined = stair ^ graph.face(4)
    for name, bits in (("face(0)", face), ("staircase", stair), ("staircase + face(4)", combined)):
        print(f"{name:20}: is_logical {graph.is_logical(bits)}, "
              f"dense is_logical_x {is_logical_x(code, bits)}, weight {bits.bit_count()}")


if __name__ == "__main__":
    main()
