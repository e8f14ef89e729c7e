import random

import pytest

from gbcodex.gf2matrix import (
    BitMatrix,
    circulant,
    hstack,
    kernel_basis,
    mat_mul,
    mat_vec,
    row_space_contains,
    rref,
    transpose,
)
from gbcodex.gf2poly import BinaryPolynomial, gcd, parse_poly, x_pow_minus_one
from oracle_utils import bit_rows_to_lists, list_rank_gf2, schoolbook_mul_mod, span


def P(text):
    return parse_poly(text, 64)  # a bound above every exponent used here


def random_matrix(rng, rows, cols):
    return BitMatrix(tuple(rng.getrandbits(cols) for _ in range(rows)), cols)


class TestCirculant:
    def test_one_gives_identity(self):
        assert circulant(P("1"), 3) == BitMatrix((0b001, 0b010, 0b100), 3)

    def test_x_gives_cyclic_permutation(self):
        m = circulant(P("x"), 3)
        for i in range(3):
            for j in range(3):
                assert (m.rows[i] >> j) & 1 == (1 if (i - j) % 3 == 1 else 0)

    def test_rank_example(self):
        # independent elimination oracle on the expanded 0/1 lists
        m = circulant(P("1+x"), 4)
        assert list_rank_gf2(bit_rows_to_lists(m)) == 3
        assert len(rref(m)[0]) == 3

    def test_first_column_is_coefficient_vector(self):
        p = P("1+x^2+x^3")
        m = circulant(p, 6)
        col0 = [row & 1 for row in m.rows]
        assert col0 == [1, 0, 1, 1, 0, 0]

    def test_too_wide_rejected(self):
        with pytest.raises(ValueError, match="too wide"):
            circulant(P("1+x^5"), 5)


class TestRank:
    def test_identity(self):
        assert len(rref(BitMatrix((1, 2, 4, 8, 16), 5))[0]) == 5

    def test_zero(self):
        assert len(rref(BitMatrix((0,) * 4, 7))[0]) == 0

    def test_circulant_example(self):
        assert len(rref(circulant(P("1+x"), 6))[0]) == 5

    def test_matches_list_oracle(self):
        rng = random.Random(3)
        for _ in range(50):
            m = random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 8))
            assert len(rref(m)[0]) == list_rank_gf2(bit_rows_to_lists(m))

    def test_transpose_invariant(self):
        rng = random.Random(5)
        for _ in range(50):
            m = random_matrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
            assert len(rref(m)[0]) == len(rref(transpose(m))[0])


class TestRrefContract:
    """The unique reduced row echelon form, on random matrices up to 140 columns."""

    @staticmethod
    def _matrices():
        rng = random.Random(23)
        yield from (BitMatrix((), 0), BitMatrix((), 9), BitMatrix((0, 0), 0), BitMatrix((0,), 70))
        for _ in range(300):
            cols = rng.choice((rng.randrange(0, 12), rng.randrange(60, 141)))
            yield random_matrix(rng, rng.randrange(0, 25), cols)

    def test_pivots_ascend_and_clear_other_rows(self):
        for m in self._matrices():
            rows, pivots = rref(m)
            assert len(rows) == len(pivots) and list(pivots) == sorted(set(pivots))
            for i, (row, p) in enumerate(zip(rows, pivots)):
                assert row & -row == 1 << p and row >> m.cols == 0
                assert not any((other >> p) & 1 for j, other in enumerate(rows) if j != i)

    def test_spans_the_rows(self):
        for m in self._matrices():
            rows, _ = rref(m)
            as_lists = [[(v >> j) & 1 for j in range(m.cols)] for v in rows + m.rows]
            assert list_rank_gf2(as_lists) == len(rows) == list_rank_gf2(bit_rows_to_lists(m))
            if m.num_rows <= 12:
                assert span(list(rows)) == span(list(m.rows))


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert kernel_basis(BitMatrix((1, 2, 4, 8), 4)) == []

    def test_zero_matrix_full_kernel(self):
        basis = kernel_basis(BitMatrix((0, 0), 3))
        assert len(basis) == 3
        assert list_rank_gf2([[(v >> j) & 1 for j in range(3)] for v in basis]) == 3

    def test_gb_h_x_kernel_size(self):
        h_x = hstack(circulant(P("1+x"), 5), circulant(P("1+x^2"), 5))
        assert len(rref(h_x)[0]) == 4
        assert len(kernel_basis(h_x)) == 6

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(7)
        for _ in range(50):
            m = random_matrix(rng, rng.randrange(1, 8), rng.randrange(1, 10))
            for v in kernel_basis(m):
                assert mat_vec(m, v) == 0


class TestRowSpace:
    def test_zero_vector_always_inside(self):
        rng = random.Random(9)
        m = random_matrix(rng, 4, 6)
        assert row_space_contains(m, 0)

    def test_identity_contains_everything(self):
        m = BitMatrix((1, 2, 4, 8, 16), 5)
        assert all(row_space_contains(m, v) for v in range(1 << 5))

    def test_against_span_enumeration(self):
        rng = random.Random(11)
        for _ in range(30):
            m = random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 9))
            full = span(list(m.rows))
            for _ in range(20):
                v = rng.getrandbits(m.cols)
                assert row_space_contains(m, v) == (v in full)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            row_space_contains(BitMatrix((1, 2, 4), 3), 1 << 3)


class TestBlocksAndProducts:
    def test_hstack_identities(self):
        m = hstack(BitMatrix((1, 2), 2), BitMatrix((1, 2), 2))
        assert bit_rows_to_lists(m) == [[1, 0, 1, 0], [0, 1, 0, 1]]

    def test_circulants_commute(self):
        a = circulant(P("1+x"), 5)
        b = circulant(P("1+x^2"), 5)
        assert mat_mul(a, b) == mat_mul(b, a)

    def test_double_transpose(self):
        rng = random.Random(13)
        m = random_matrix(rng, 5, 8)
        assert transpose(transpose(m)) == m

    def test_product_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(BitMatrix((1, 2, 4), 3), BitMatrix((1, 2, 4, 8), 4))

    def test_circulant_ring_homomorphism(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randrange(1, 12)
            p = BinaryPolynomial(rng.getrandbits(n))
            q = BinaryPolynomial(rng.getrandbits(n))
            lhs = mat_mul(circulant(p, n), circulant(q, n))
            rhs = circulant(BinaryPolynomial(schoolbook_mul_mod(p.mask, q.mask, n)), n)
            assert lhs == rhs

    def test_circulant_rank_formula(self):
        rng = random.Random(19)
        for _ in range(50):
            n = rng.randrange(1, 14)
            p = BinaryPolynomial(rng.getrandbits(n))
            if p.is_zero:
                continue
            g = gcd(p, x_pow_minus_one(n))
            assert len(rref(circulant(p, n))[0]) == n - g.degree
