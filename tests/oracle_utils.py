"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written against the dumbest possible
representation (dicts, lists of lists, full scans) so a bug in the library's
bit-packed fast paths cannot hide in its own mirror image.
"""

from __future__ import annotations

from itertools import product
from math import gcd


def poly_mask_to_set(mask: int) -> set[int]:
    return {i for i in range(mask.bit_length()) if (mask >> i) & 1}


def schoolbook_mul_mod(p_mask: int, q_mask: int, n: int) -> int:
    """Exponent-by-exponent product with wraparound, via a dict of exponents."""
    acc: dict[int, int] = {}
    for i in poly_mask_to_set(p_mask):
        for j in poly_mask_to_set(q_mask):
            e = (i + j) % n
            acc[e] = acc.get(e, 0) ^ 1
    out = 0
    for e, c in acc.items():
        if c:
            out |= 1 << e
    return out


def long_divides(d_mask: int, p_mask: int) -> bool:
    """True iff d divides p over GF(2), by schoolbook long division."""
    if d_mask == 0:
        return p_mask == 0
    dd = d_mask.bit_length() - 1
    r = p_mask
    while r and r.bit_length() - 1 >= dd:
        r ^= d_mask << ((r.bit_length() - 1) - dd)
    return r == 0


def bit_rows_to_lists(m) -> list[list[int]]:
    """Expand the bit-packed rows of m (bit j = column j) into explicit 0/1 lists."""
    return [[(r >> j) & 1 for j in range(m.cols)] for r in m.rows]


def list_rank_gf2(rows: list[list[int]]) -> int:
    """Gaussian elimination on explicit 0/1 lists."""
    mat = [row[:] for row in rows]
    ncols = len(mat[0]) if mat else 0
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                mat[i] = [(a ^ b) for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def span(vectors: list[int]) -> set[int]:
    """Every GF(2) combination of the given bit-packed vectors."""
    out = {0}
    for v in vectors:
        out |= {w ^ v for w in out}
    return out


def naive_min_logical(h_rows: list[int], other_rows: list[int], ncols: int) -> int | None:
    """Minimum weight over ker(H) \\ rowspace(other) by enumerating both spans.

    Only usable for tiny instances; the kernel is found by scanning all 2^ncols
    vectors when ncols <= 14, which keeps this path entirely independent.
    """
    assert ncols <= 14, "naive oracle is for tiny instances only"
    kernel = [
        v
        for v in range(1 << ncols)
        if all((row & v).bit_count() % 2 == 0 for row in h_rows)
    ]
    stabilizers = span(other_rows)
    best = None
    for v in kernel:
        if v and v not in stabilizers:
            w = v.bit_count()
            if best is None or w < best:
                best = w
    return best


def scan_primitive_two_squares(n: int) -> list[tuple[int, int]]:
    """Every (a, b) with 0 <= a <= b, gcd(a, b) = 1 and a^2 + b^2 = n, by a double loop."""
    out = []
    for a in range(n + 1):
        if 2 * a * a > n:
            break
        for b in range(a, n + 1):
            if a * a + b * b > n:
                break
            if a * a + b * b == n and gcd(a, b) == 1:
                out.append((a, b))
    return out


def scan_roots_of_minus_one(n: int) -> list[int]:
    return [a for a in range(1, n) if a * a % n == (n - 1) % n]


def scan_min_l1(alpha: int, n: int) -> tuple[int, list[tuple[int, int]]]:
    """Smallest L1 norm over nonzero (x, y) with x + alpha*y = 0 mod n, with all attaining vectors."""
    for r in range(1, 2 * n + 1):
        found = []
        for x in range(-r, r + 1):
            rem = r - abs(x)
            for y in {rem, -rem}:
                if (x, y) != (0, 0) and (x + alpha * y) % n == 0:
                    found.append((x, y))
        if found:
            return r, sorted(found)
    raise AssertionError("unreachable: (n, 0) is always a member")


def scan_lambda2(alpha: int, n: int) -> int:
    """Smallest squared Euclidean norm by scanning the enclosing box."""
    best = None
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            if (x, y) != (0, 0) and (x + alpha * y) % n == 0:
                v = x * x + y * y
                if best is None or v < best:
                    best = v
    return best


def lattice_contains(lat, t: tuple[int, int]) -> bool:
    """Membership in the lattice spanned by lat.b1, lat.b2: Cramer's rule gives integer coordinates."""
    b1, b2 = lat.b1, lat.b2
    det = b1[0] * b2[1] - b1[1] * b2[0]
    c1 = t[0] * b2[1] - t[1] * b2[0]
    c2 = b1[0] * t[1] - b1[1] * t[0]
    return c1 % det == 0 and c2 % det == 0


def staircase_walk(n: int, alpha: int, t: tuple[int, int]) -> int:
    """The staircase of t from vertex 0 as a 2n-bit edge set, one step and one XOR at a time.

    |t.x| unit steps then |t.y| long steps; edge k < n is {k, k+1} and n+k is
    {k, k+alpha}, each named by the vertex it leaves upward.  An edge walked
    twice cancels.
    """
    tx, ty = t
    bits = 0
    v = 0  # the vertex, unreduced
    for _ in range(abs(tx)):
        if tx < 0:
            v -= 1
        bits ^= 1 << (v % n)
        if tx > 0:
            v += 1
    for _ in range(abs(ty)):
        if ty < 0:
            v -= alpha
        bits ^= 1 << (n + v % n)
        if ty > 0:
            v += alpha
    return bits


def box_points(bound: int):
    return product(range(-bound, bound + 1), repeat=2)


def canonical_alpha(u: int, v: int, n: int) -> int | None:
    """alpha with (1 + x^u, 1 + x^v) mod x^n - 1 equivalent to (1 + x, 1 + x^alpha), or None.

    Substituting x -> x^(1/u) needs u invertible mod n; failing that, the
    generators are swapped first.  None when neither exponent is invertible.
    """
    for a, b in ((u, v), (v, u)):
        if gcd(a, n) == 1:
            return b * pow(a, -1, n) % n
    return None


def gb_check_rows(a_support: list[int], b_support: list[int], n: int) -> tuple[list[list[int]], list[list[int]]]:
    """H_X = [A | B] and H_Z = [B^T | A^T] as 0/1 lists.

    A and B are the n x n circulants of the polynomials with the given
    exponents; entry (i, j) is the coefficient of x^((i - j) mod n), so the
    first column is the coefficient vector.
    """

    def circulant(support):
        coeffs = [0] * n
        for e in support:
            coeffs[e % n] ^= 1
        return [[coeffs[(i - j) % n] for j in range(n)] for i in range(n)]

    def transposed(mat):
        return [list(col) for col in zip(*mat)]

    a, b = circulant(a_support), circulant(b_support)
    h_x = [ra + rb for ra, rb in zip(a, b)]
    h_z = [rb + ra for rb, ra in zip(transposed(b), transposed(a))]
    return h_x, h_z


def to_masks(rows: list[list[int]]) -> list[int]:
    """Pack 0/1 rows into ints, column j at bit j."""
    return [sum(bit << j for j, bit in enumerate(row)) for row in rows]


def _gf2_kernel(rows: list[int], ncols: int) -> list[int]:
    """Kernel basis of bit-packed rows, one free column per vector, via a full RREF."""
    pivots: dict[int, int] = {}  # pivot column -> reduced row
    for r in rows:
        for c, p in pivots.items():
            if (r >> c) & 1:
                r ^= p
        if r:
            c = (r & -r).bit_length() - 1
            pivots = {c2: p ^ r if (p >> c) & 1 else p for c2, p in pivots.items()}
            pivots[c] = r
    return [
        (1 << f) | sum(1 << c for c, p in pivots.items() if (p >> f) & 1)
        for f in range(ncols)
        if f not in pivots
    ]


def graphlike_min_logical(h1_rows: list[list[int]], h2_rows: list[list[int]]) -> int | None:
    """Minimum weight over ker(H1) \\ rowspace(H2) when every column of H1 has weight 2.

    The columns of H1 are the edges of a graph on its rows, so ker(H1) is
    the cycle space.  Edge e carries the voltage (l_1[e], ..., l_k[e]) in
    Z_2^k, where l_1..l_k span ker(H2) modulo rowspace(H1); a cycle lies in
    rowspace(H2) exactly when its voltage is zero.  The distance is then the
    length of the shortest closed walk with nonzero voltage: a breadth-first
    search in the 2^k-fold voltage cover from every vertex, the idea behind
    Stim's ``shortest_graphlike_error``.  Returns None when k = 0.
    """
    ncols = len(h1_rows[0])
    ends = [[i for i, row in enumerate(h1_rows) if row[e]] for e in range(ncols)]
    for e, rows in enumerate(ends):
        if len(rows) != 2:
            raise ValueError(f"column {e} of H1 has weight {len(rows)}, not 2")
    h1, h2 = to_masks(h1_rows), to_masks(h2_rows)
    if any((p & q).bit_count() % 2 for p in h1 for q in h2):
        raise ValueError("H1 and H2 are not orthogonal")

    # one elimination pass: the rows of H1 first, then a kernel basis of H2;
    # the kernel vectors that stay independent are the logical voltages
    echelon: dict[int, int] = {}  # leading bit -> vector

    def insert(v: int) -> bool:
        while v:
            top = v.bit_length() - 1
            if top not in echelon:
                echelon[top] = v
                return True
            v ^= echelon[top]
        return False

    for row in h1:
        insert(row)
    logicals = [v for v in _gf2_kernel(h2, ncols) if insert(v)]
    if not logicals:
        return None

    adjacency: list[list[tuple[int, int]]] = [[] for _ in h1_rows]
    for e, (u, w) in enumerate(ends):
        voltage = sum(((v >> e) & 1) << i for i, v in enumerate(logicals))
        adjacency[u].append((w, voltage))
        adjacency[w].append((u, voltage))

    best = None
    for source in range(len(h1_rows)):
        seen = {(source, 0)}
        frontier = [(source, 0)]
        depth = 0
        while frontier and (best is None or depth + 1 < best):
            depth += 1
            reached = []
            for v, g in frontier:
                for w, voltage in adjacency[v]:
                    state = (w, g ^ voltage)
                    if state not in seen:
                        seen.add(state)
                        reached.append(state)
            frontier = reached
            if any(v == source and g for v, g in frontier):
                best = depth
                break
    return best
