"""Number theory for the admissible code lengths.

The lattice bound is strongest when n divides 1 + alpha^2, i.e. when alpha is
a square root of -1 mod n.  Such a root exists exactly for n of the shape
2^e * prod(p_i^{e_i}) with e <= 1 and every odd prime p_i = 1 mod 4; the full
root set is assembled from the prime-power components by the Chinese
remainder theorem.  The roots of -1 mod an odd prime power are one pair
+-r, so the root set does not depend on how r is found: a deterministic scan
for the least quadratic nonresidue, then a Hensel lift.
"""

from __future__ import annotations

from .gbcode import GbSpec
from .gf2poly import BinaryPolynomial, reduce_mod_xn


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, primes ascending."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def is_admissible(n: int) -> bool:
    """True iff -1 is a square mod n: n = 2^e * prod p_i^{e_i}, e <= 1, p_i = 1 mod 4."""
    for p, e in factorize(n):
        if p == 2:
            if e > 1:
                return False
        elif p % 4 != 1:
            return False
    return True


def sqrt_minus_one_mod_prime_power(p: int, eps: int = 1) -> list[int]:
    """Both residues r with r^2 = -1 mod p^eps, for a prime p = 1 mod 4.

    A root mod p is a^((p-1)/4) for the least quadratic nonresidue a; the
    root is then Hensel-lifted to the requested exponent.
    """
    if p % 4 != 1:
        raise ValueError(f"p = {p} is not congruent to 1 mod 4")
    if eps < 1:
        raise ValueError("eps must be positive")
    exp = (p - 1) // 4
    root = next((r for r in (pow(a, exp, p) for a in range(2, p)) if r * r % p == p - 1), None)
    if root is None:
        raise ValueError(f"no square root of -1 modulo {p}")

    modulus = p
    for _ in range(eps - 1):
        # Newton step for f(r) = r^2 + 1 lifts a root mod p^j to mod p^(j+1).
        modulus *= p
        root = (root - (root * root + 1) * pow(2 * root, -1, modulus)) % modulus
    return sorted((root, modulus - root))


def sqrt_minus_one_all(n: int) -> list[int]:
    """All alpha in [1, n-1] with alpha^2 = -1 mod n, via CRT over the factorization.

    For admissible n > 2 there are 2^s of them, s the number of odd prime
    factors; n = 2 gives [1] and n = 1 gives [].
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not is_admissible(n):
        raise ValueError(f"no square root of -1 modulo {n}")
    if n == 1:
        return []
    residues = [(1, 1)]  # list of (value mod m, m)
    for p, e in factorize(n):
        m = p**e
        component = [1] if p == 2 else sqrt_minus_one_mod_prime_power(p, e)
        combined = []
        for r0, m0 in residues:
            for r1 in component:
                # x = r0 mod m0, x = r1 mod m
                x = (r0 + m0 * ((r1 - r0) * pow(m0, -1, m) % m)) % (m0 * m)
                combined.append((x, m0 * m))
        residues = combined
    return sorted(r for r, _ in residues)


def kitaev_spec(m: int) -> GbSpec:
    """The torus-grid family member (1 + x, 1 + x^m, m^2), parameters [2m^2, 2, m]."""
    if m < 1:
        raise ValueError("m must be at least 1")
    n = m * m
    a = reduce_mod_xn(BinaryPolynomial.from_support([0, 1]), n)
    b = reduce_mod_xn(BinaryPolynomial.from_support([0, m]), n)
    return GbSpec(a, b, n)


def optimized_kitaev_spec(t: int) -> GbSpec:
    """The rotated-grid family member for odd distance d = 2t + 1.

    Generators (1 + x^(2t^2+1), x + x^(2t^2)) over x^n - 1 with n = (d^2+1)/2;
    parameters [d^2 + 1, 2, d].
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    d = 2 * t + 1
    n = (d * d + 1) // 2
    a = BinaryPolynomial.from_support([0, 2 * t * t + 1])
    b = BinaryPolynomial.from_support([1, 2 * t * t])
    return GbSpec(a, b, n)
