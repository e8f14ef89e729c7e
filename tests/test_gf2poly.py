import random

import pytest

from gbcodex.gf2poly import (
    BinaryPolynomial,
    format_poly,
    gcd,
    mod_poly,
    parse_poly,
    x_pow_minus_one,
)
from oracle_utils import long_divides


def P(text):
    return parse_poly(text, 64)  # a bound above every exponent used here


def total(*polys):
    """The GF(2) sum, as the polynomial of all supports together: repeated exponents cancel in pairs."""
    return BinaryPolynomial.from_support([e for p in polys for e in p.support()])


class TestBasics:
    def test_zero_degree_sentinel(self):
        assert P("0").degree is None
        assert P("0").is_zero
        assert P("1").degree == 0
        assert P("1+x^7").degree == 7

    def test_weight_matches_support(self):
        p = P("1+x^3+x^5")
        assert p.mask.bit_count() == len(p.support()) == 3
        assert p.support() == (0, 3, 5)

    def test_support_is_the_set_bits_ascending(self):
        rng = random.Random(19)
        for mask in [0, 1, 1 << 200] + [rng.getrandbits(rng.randrange(1, 300)) for _ in range(100)]:
            support = BinaryPolynomial(mask).support()
            assert support == tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)

    def test_from_support_cancels_pairs(self):
        assert BinaryPolynomial.from_support([2, 2]).is_zero
        assert BinaryPolynomial.from_support([0, 1, 1]) == P("1")


class TestAdd:
    """A sum is the XOR of masks, which ``from_support`` reproduces from the supports."""

    def test_characteristic_two(self):
        assert total(P("1+x"), P("1+x")) == P("0")

    def test_xor_on_overlap(self):
        assert total(P("1+x"), P("1+x^2")) == P("x+x^2")

    def test_middle_term_cancels(self):
        assert total(P("1+x^5"), P("x^5+x^9")) == P("1+x^9")

    def test_commutative_associative_involutive(self):
        rng = random.Random(7)
        for _ in range(100):
            a, b, c = (BinaryPolynomial(rng.getrandbits(24)) for _ in range(3))
            assert total(a, b) == total(b, a) == BinaryPolynomial(a.mask ^ b.mask)
            assert total(total(a, b), c) == total(a, total(b, c))
            assert total(a, a).is_zero


class TestGcd:
    def test_divides_x4_minus_one(self):
        assert gcd(P("1+x"), P("1+x^4")) == P("1+x")

    def test_one_plus_x_divides_all(self):
        assert gcd(P("1+x"), P("1+x^3")) == P("1+x")

    def test_gcd_with_zero(self):
        p = P("1+x^2+x^5")
        assert gcd(p, P("0")) == p
        assert gcd(P("0"), p) == p

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError, match="gcd undefined"):
            gcd(P("0"), P("0"))

    def test_divides_both_exactly(self):
        rng = random.Random(19)
        for _ in range(200):
            p = BinaryPolynomial(rng.getrandbits(16))
            q = BinaryPolynomial(rng.getrandbits(16))
            if p.is_zero and q.is_zero:
                continue
            g = gcd(p, q)
            assert long_divides(g.mask, p.mask)
            assert long_divides(g.mask, q.mask)

    def test_mod_poly_remainder(self):
        rng = random.Random(23)
        for _ in range(200):
            p = BinaryPolynomial(rng.getrandbits(20))
            q = BinaryPolynomial(rng.getrandbits(10) | 1)
            rem = mod_poly(p, q)
            assert long_divides(q.mask, p.mask ^ rem.mask)
            assert rem.is_zero or rem.degree < q.degree


class TestTextForm:
    @pytest.mark.parametrize("text", ["0", "1", "x", "1+x^5", "x+x^2", "1+x+x^2+x^3"])
    def test_roundtrip(self, text):
        assert format_poly(P(text)) == text

    def test_whitespace_tolerated(self):
        assert parse_poly(" 1 + x^5 ", 6) == P("1+x^5")

    def test_error_reports_position(self):
        with pytest.raises(ValueError, match="position"):
            P("1+y^2")
        with pytest.raises(ValueError, match="position"):
            P("1+x^")
        with pytest.raises(ValueError, match="invalid exponent '²' at position 2"):
            P("1+x^²")

    def test_exponent_below_n(self):
        assert parse_poly("1+x^4", 5) == P("1+x^4")
        with pytest.raises(ValueError, match=r"term 'x\^5' at position 2 has exponent >= n = 5"):
            parse_poly("1+x^5", 5)
        with pytest.raises(ValueError, match="term 'x' at position 0"):
            parse_poly("x", 1)
        assert parse_poly("x^" + "0" * 5000 + "3", 5) == P("x^3")
        with pytest.raises(ValueError, match="at position 0 has exponent >= n = 5"):
            parse_poly("x^" + "9" * 5000, 5)
        with pytest.raises(ValueError, match="n must be positive"):
            parse_poly("0", 0)

    def test_x_pow_minus_one(self):
        assert x_pow_minus_one(4) == P("1+x^4")
