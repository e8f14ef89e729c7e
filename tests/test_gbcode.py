import random

import pytest

from gbcodex import css, gf2matrix
from gbcodex.gbcode import (
    GbSpec,
    build,
    canonical_spec,
    dimension_formula,
    weight2_exponents,
)
from gbcodex.gf2matrix import BitMatrix, hstack, is_zero, mat_mul, transpose
from gbcodex.gf2poly import BinaryPolynomial, parse_poly
from gbcodex.lattice import gb_lattice, pair_lattice
from oracle_utils import canonical_alpha, gb_check_rows, lattice_contains, to_masks


def P(text):
    return parse_poly(text, 64)  # a bound above every exponent used here


class TestBuild:
    def test_basic_parameters(self):
        code = build(GbSpec(P("1+x"), P("1+x^2"), 5))
        assert code.length == 10
        assert css.dimension(code) == 2

    def test_grid_family_member(self):
        code = build(GbSpec(P("1+x"), P("1+x^3"), 9))
        assert code.length == 18
        assert css.dimension(code) == 2

    def test_full_rank_circulants_give_k_zero(self):
        code = build(GbSpec(P("1"), P("1"), 3))
        assert css.dimension(code) == 0

    def test_orthogonality_always(self):
        rng = random.Random(41)
        for _ in range(30):
            n = rng.randrange(1, 15)
            spec = GbSpec(BinaryPolynomial(rng.getrandbits(n)), BinaryPolynomial(rng.getrandbits(n)), n)
            code = build(spec)
            assert is_zero(mat_mul(code.h_x, transpose(code.h_z)))

    def test_h_z_is_transposed_circulants(self):
        rng = random.Random(43)
        specs = [GbSpec(P("1"), P("0"), 1), GbSpec(P("0"), P("0"), 1), GbSpec(P("0"), P("1+x^2"), 4)]
        for _ in range(100):
            n = rng.randrange(1, 20)
            specs.append(GbSpec(BinaryPolynomial(rng.getrandbits(n)), BinaryPolynomial(rng.getrandbits(n)), n))
        for spec in specs:
            h_x, h_z = gb_check_rows(list(spec.a.support()), list(spec.b.support()), spec.n)
            code = build(spec)
            assert code.h_x == BitMatrix(tuple(to_masks(h_x)), 2 * spec.n)
            assert code.h_z == BitMatrix(tuple(to_masks(h_z)), 2 * spec.n)

    def test_non_commuting_blocks_rejected(self, monkeypatch):
        # a GbSpec always gives commuting circulants, so the blocks are swapped
        # for two transpositions of three points, which do not commute
        swap01, swap12 = BitMatrix((0b010, 0b001, 0b100), 3), BitMatrix((0b001, 0b100, 0b010), 3)
        assert mat_mul(swap01, swap12) != mat_mul(swap12, swap01)
        blocks = {P("1"): swap01, P("x"): swap12}
        monkeypatch.setattr(gf2matrix, "circulant", lambda p, n: blocks[p])
        with pytest.raises(ValueError, match="^not orthogonal"):
            build(GbSpec(P("1"), P("x"), 3))
        # the same pair fails the full check h_x h_z^T = 0 as well
        h_z = hstack(transpose(swap12), transpose(swap01))
        with pytest.raises(ValueError, match="^not orthogonal"):
            css.new_css(hstack(swap01, swap12), h_z)


class TestDimensionFormula:
    def test_examples(self):
        assert dimension_formula(GbSpec(P("1+x"), P("1+x^2"), 5)) == 2
        assert dimension_formula(GbSpec(P("1"), P("1"), 7)) == 0

    def test_canonical_pairs_always_two(self):
        for n in range(2, 51):
            for alpha in range(1, n):
                assert dimension_formula(canonical_spec(alpha, n)) == 2

    def test_matches_rank_based_dimension(self):
        rng = random.Random(43)
        done = 0
        while done < 60:
            n = rng.randrange(1, 41)
            a = BinaryPolynomial.from_support(rng.sample(range(n), k=min(n, rng.randrange(0, 4))))
            b = BinaryPolynomial.from_support(rng.sample(range(n), k=min(n, rng.randrange(0, 4))))
            spec = GbSpec(a, b, n)
            assert dimension_formula(spec) == css.dimension(build(spec))
            done += 1


class TestShiftNormalize:
    def test_parameters_preserved(self):
        # dividing a generator by its lowest monomial permutes qubits
        rng = random.Random(47)
        done = 0
        while done < 25:
            n = rng.randrange(2, 13)
            a = BinaryPolynomial(rng.getrandbits(n))
            b = BinaryPolynomial(rng.getrandbits(n))
            if a.is_zero or b.is_zero:
                continue
            spec = GbSpec(a, b, n)
            norm = GbSpec(*(BinaryPolynomial(p.mask >> p.support()[0]) for p in (a, b)), n)
            before, after = build(spec), build(norm)
            assert css.dimension(before) == css.dimension(after)
            assert css.exhaustive_distance(before, "X") == css.exhaustive_distance(after, "X")
            done += 1


def same_lattice(lhs, rhs):
    return lhs.det == rhs.det and all(lattice_contains(lhs, b) for b in (rhs.b1, rhs.b2))


class TestCanonicalizeW2:
    """x -> x^(1/u) takes (1 + x^u, 1 + x^v) to the canonical pair (1 + x, 1 + x^alpha), and L with it."""

    def test_identity_reduction(self):
        assert canonical_alpha(1, 2, 5) == 2
        assert pair_lattice(1, 2, 5) == (gb_lattice(2, 5), 1)

    def test_inverse_reduction(self):
        # 3^{-1} mod 10 = 7, independently: 3 * 7 = 21 = 1 mod 10
        assert pow(3, -1, 10) == 7
        assert canonical_alpha(3, 1, 10) == 7
        lat, g = pair_lattice(3, 1, 10)
        assert g == 1 and same_lattice(lat, gb_lattice(7, 10))

    def test_equivalent_codes_same_exhaustive_distance(self):
        lhs = build(GbSpec(P("1+x^3"), P("1+x"), 10))
        rhs = build(canonical_spec(7, 10))
        assert css.exhaustive_distance(lhs, "X") == css.exhaustive_distance(rhs, "X")

    def test_swap_fallback_when_u_not_invertible(self):
        # gcd(4, 10) != 1 but gcd(3, 10) = 1: swapping the generators swaps the coordinates of L
        assert canonical_alpha(4, 3, 10) == 4 * pow(3, -1, 10) % 10 == 8
        lat, g = pair_lattice(4, 3, 10)
        mirrored = type(lat)(lat.b1[::-1], lat.b2[::-1])
        assert g == 1 and same_lattice(mirrored, gb_lattice(8, 10))

    def test_mirror_pairs_have_equal_parameters(self):
        for n in range(5, 12):
            for alpha in range(1, n // 2 + 1):
                a_code = build(canonical_spec(alpha, n))
                b_code = build(canonical_spec(n - alpha, n))
                assert css.dimension(a_code) == css.dimension(b_code)
                assert css.exhaustive_distance(a_code, "X") == css.exhaustive_distance(b_code, "X")


class TestWeight2Exponents:
    def test_extracts_after_shift(self):
        assert weight2_exponents(GbSpec(P("x+x^4"), P("1+x^2"), 7)) == (3, 2)

    def test_rejects_heavier_generators(self):
        assert weight2_exponents(GbSpec(P("1+x+x^2"), P("1+x"), 7)) is None
        assert weight2_exponents(GbSpec(P("1"), P("1+x"), 7)) is None
        assert weight2_exponents(GbSpec(P("0"), P("1+x"), 7)) is None
