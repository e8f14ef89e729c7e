"""Reference arithmetic the benchmark checks gbcodex against.

Everything here is written from the definitions, by direct scans, and uses
nothing from gbcodex, so a wrong answer from the library cannot also hide in
its own check.

The lattice of the canonical pair (1 + x, 1 + x^alpha) over x^n - 1 is
L = {(x, y) : x + alpha*y = 0 mod n}.
"""

from __future__ import annotations

import math


def ceil_sqrt(m: int) -> int:
    c = math.isqrt(m)
    return c if c * c == m else c + 1


def lattice_minima(alpha: int, n: int) -> tuple[int, int]:
    """(minimum L1 norm, minimum squared Euclidean norm) over nonzero points of L.

    Scans y = 1, 2, ...; for each y the two representatives of x closest to 0
    are the only candidates, and (x, y) and (-x, -y) have equal norms.
    """
    best_l1, best_norm2 = n, n * n  # the point (n, 0)
    for y in range(1, n + 1):
        if y >= best_l1 and y * y >= best_norm2:
            break
        r = (-alpha * y) % n
        for x in (r, r - n):
            best_l1 = min(best_l1, abs(x) + y)
            best_norm2 = min(best_norm2, x * x + y * y)
    return best_l1, best_norm2


def short_vectors(alpha: int, n: int, radius: int):
    """Nonzero points of L with L1 norm at most radius (radius < n), both signs."""
    for y in range(-radius, radius + 1):
        r = (-alpha * y) % n
        for x in (r, r - n):
            if (x, y) != (0, 0) and abs(x) + abs(y) <= radius:
                yield x, y


def lattice_bounds_meet(alpha: int, n: int) -> bool:
    """True when lattice lower bounds alone reach the minimum L1 norm.

    The bounds are the Euclidean minimum and its step-parity sharpening: a
    closed walk with displacement t takes at least |t|_2 steps, and a step
    count with the parity of |t|_1.
    """
    l1, norm2 = lattice_minima(alpha, n)
    parity = l1
    for x, y in short_vectors(alpha, n, l1):
        c = ceil_sqrt(x * x + y * y)
        if (c - abs(x) - abs(y)) % 2:
            c += 1
        parity = min(parity, c)
    return max(ceil_sqrt(norm2), parity) == l1


def canonical_alpha(u: int, v: int, n: int) -> int | None:
    """alpha with (1 + x^u, 1 + x^v) equivalent to (1 + x, 1 + x^alpha), or None.

    Substituting x -> x^(1/u) needs u invertible mod n; failing that the
    generators are swapped.  None when neither exponent is invertible.
    """
    for a, b in ((u, v), (v, u)):
        if math.gcd(a, n) == 1:
            return b * pow(a, -1, n) % n
    return None


def kernel_dimension(u: int, v: int, n: int) -> int:
    """dim ker h_x for (1 + x^u, 1 + x^v, n): 2n - rank, rank = n - deg gcd.

    Over GF(2), gcd(x^u + 1, x^v + 1, x^n + 1) = x^gcd(u, v, n) + 1.
    """
    return n + math.gcd(math.gcd(u, v), n)


def is_cycle(n: int, alpha: int, edges) -> bool:
    """True when every vertex meets an even number of the edges (a kernel vector of h_x).

    Edge k < n joins k and k + 1; edge n + k joins k and k + alpha.
    """
    degree = [0] * n
    for e in edges:
        if not 0 <= e < 2 * n:
            return False
        k, step = (e, 1) if e < n else (e - n, alpha)
        degree[k] ^= 1
        degree[(k + step) % n] ^= 1
    return not any(degree)


def has_root_of_minus_one(n: int) -> bool:
    return any(x * x % n == n - 1 for x in range(n))


def catalog_lengths(max_length: int) -> list[int]:
    """Every n >= 2 with 2n <= max_length for which -1 is a square mod n."""
    return [n for n in range(2, max_length // 2 + 1) if has_root_of_minus_one(n)]
