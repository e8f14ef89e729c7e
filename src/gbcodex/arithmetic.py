"""Number theory for the admissible code lengths.

The lattice bound is strongest when n divides 1 + alpha^2, i.e. when alpha is
a square root of -1 mod n.  Such a root exists exactly when n is a primitive
sum of two squares, n = a^2 + b^2 with gcd(a, b) = 1, and each mirror class
{r, n - r} of roots is one such representation with r = +-a/b mod n: b is a
unit, since gcd(b, n) = gcd(b, a^2) = 1, and (a/b)^2 = -1 as b^2 = -a^2 mod n.
So one scan over b decides admissibility and yields every root; the class
+-a/b has the square lattice spanned by (-a, b) and (b, a), whose min-L1 is
a + b.  No two classes of one n tie, since a + b and a^2 + b^2 fix {a, b}.
This module is number theory only; codes are built in ``gbcode``.
"""

from __future__ import annotations

import math


def primitive_two_squares(n: int) -> list[tuple[int, int]]:
    """Every (a, b) with 0 <= a <= b, gcd(a, b) = 1 and a^2 + b^2 = n, a ascending.

    Scans b down from isqrt(n) while 2b^2 >= n, about 0.29 sqrt(n) steps.
    """
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    # the least b with 2b^2 >= n is isqrt((n - 1) // 2) + 1
    for b in range(math.isqrt(n), math.isqrt((n - 1) // 2), -1):
        a2 = n - b * b
        a = math.isqrt(a2)
        if a * a == a2 and math.gcd(a, b) == 1:
            out.append((a, b))
    return out


def is_admissible(n: int) -> bool:
    """True iff -1 is a square mod n, i.e. n is a primitive sum of two squares."""
    return bool(primitive_two_squares(n))


def root_classes(n: int) -> list[tuple[int, int]]:
    """Each mirror class of roots of -1 in [1, n - 1], as (smaller member, min-L1 a + b).

    One class +-a/b mod n per representation (a, b) of ``primitive_two_squares``;
    n = 1 gives [], as its one representation (0, 1) gives the root 0.
    """
    reps = primitive_two_squares(n)
    if not reps:
        raise ValueError(f"no square root of -1 modulo {n}")
    roots = [(a * pow(b, -1, n) % n, a + b) for a, b in reps]
    return [(min(r, n - r), s) for r, s in roots if r]


def sqrt_minus_one_all(n: int) -> list[int]:
    """All alpha in [1, n-1] with alpha^2 = -1 mod n, two per representation +-a/b.

    For admissible n > 2 there are 2^s of them, s the number of odd prime
    factors; n = 2 gives [1] and n = 1 gives [].
    """
    return class_members(n, root_classes(n))


def class_members(n: int, classes: list[tuple[int, int]]) -> list[int]:
    """Both members r and n - r of each class of ``root_classes(n)``, ascending, once each."""
    return sorted({r for c, _ in classes for r in (c, n - c)})

