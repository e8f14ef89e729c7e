"""Polynomial arithmetic over GF(2): remainders, gcds and text form.

A polynomial is stored as a bit-packed integer: bit i of ``mask`` holds the
coefficient of x^i, so a sum is the XOR of two masks.  The zero polynomial
has mask 0 and degree ``None`` (an explicit sentinel, so Euclid's loop never
has to do arithmetic on a fake negative degree).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BinaryPolynomial:
    """Bit-packed polynomial over GF(2); immutable."""

    mask: int = 0

    def __post_init__(self) -> None:
        if self.mask < 0:
            raise ValueError("polynomial mask must be nonnegative")

    @property
    def degree(self) -> int | None:
        """Largest exponent with a set coefficient, or None for the zero polynomial."""
        return self.mask.bit_length() - 1 if self.mask else None

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    def support(self) -> tuple[int, ...]:
        """Exponents of the set coefficients, ascending, peeled lowest bit first."""
        out = []
        m = self.mask
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return tuple(out)

    @classmethod
    def from_support(cls, exponents) -> BinaryPolynomial:
        """Build from an iterable of exponents; repeats cancel in pairs."""
        mask = 0
        for e in exponents:
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            mask ^= 1 << e
        return cls(mask)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"BinaryPolynomial({format_poly(self)!r})"


def mod_poly(p: BinaryPolynomial, q: BinaryPolynomial) -> BinaryPolynomial:
    """Remainder of p by q; q must be nonzero."""
    if q.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    a, b = p.mask, q.mask
    dq = b.bit_length() - 1
    while a.bit_length() - 1 >= dq and a:
        a ^= b << ((a.bit_length() - 1) - dq)
    return BinaryPolynomial(a)


def gcd(p: BinaryPolynomial, q: BinaryPolynomial) -> BinaryPolynomial:
    """Euclidean gcd; errors when both arguments are zero."""
    if p.is_zero and q.is_zero:
        raise ValueError("gcd undefined for two zero polynomials")
    a, b = p, q
    while not b.is_zero:
        a, b = b, mod_poly(a, b)
    return a


def x_pow_minus_one(n: int) -> BinaryPolynomial:
    """x^n - 1, which over GF(2) is x^n + 1."""
    if n < 1:
        raise ValueError("n must be positive")
    return BinaryPolynomial((1 << n) | 1)


def parse_poly(text: str, n: int) -> BinaryPolynomial:
    """Parse the textual form ``term ("+" term)*`` with term one of 0, 1, x, x^INT.

    The result is a residue mod x^n - 1, so every exponent must be below n;
    a larger one is rejected before its bit is built.  Raises ValueError
    naming the offending term and position on malformed input.
    """
    if n < 1:
        raise ValueError("n must be positive")
    mask = 0
    pos = 0
    if not text.strip():
        raise ValueError("empty polynomial at position 0")
    for chunk in text.split("+"):
        term = chunk.strip()
        at = pos + chunk.index(term) if term else pos
        pos += len(chunk) + 1
        if term == "0":
            continue
        if term == "1":
            digits = "0"
        elif term == "x":
            digits = "1"
        elif term.startswith("x^"):
            digits = term[2:]
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"invalid exponent {digits!r} at position {at}")
        else:
            raise ValueError(f"invalid term {term!r} at position {at}")
        # more digits than n means exponent >= n; int() refuses over 4300 digits
        digits = digits.lstrip("0") or "0"
        if len(digits) > len(str(n)) or int(digits) >= n:
            raise ValueError(f"term {term!r} at position {at} has exponent >= n = {n}")
        mask ^= 1 << int(digits)
    return BinaryPolynomial(mask)


def format_poly(p: BinaryPolynomial) -> str:
    """Inverse of parse_poly, exponents ascending; the zero polynomial prints as 0."""
    if p.is_zero:
        return "0"
    parts = []
    for e in p.support():
        parts.append("1" if e == 0 else "x" if e == 1 else f"x^{e}")
    return "+".join(parts)
