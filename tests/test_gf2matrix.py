import random

import pytest

from gbcodex.gf2matrix import (
    BitMatrix,
    circulant,
    echelon,
    hstack,
    kernel_basis,
    mat_mul,
    mat_vec,
    row_space_contains,
    rref,
    transpose,
)
from gbcodex.gf2poly import BinaryPolynomial, gcd, parse_poly, x_pow_minus_one
from gbcodex.torus_graph import TorusGraph
from oracle_utils import bit_rows_to_lists, list_rank_gf2, schoolbook_mul_mod, span


def P(text):
    return parse_poly(text, 64)  # a bound above every exponent used here


def random_matrix(rng, rows, cols):
    return BitMatrix(tuple(rng.getrandbits(cols) for _ in range(rows)), cols)


def sparse_matrix(rng, rows, cols, per_row):
    """Each row has at most per_row set bits, at random columns."""
    picks = [rng.sample(range(cols), min(per_row, cols)) for _ in range(rows)]
    return BitMatrix(tuple(sum(1 << j for j in set(pick)) for pick in picks), cols)


# The elimination and kernel as the dense layer first wrote them: a list of
# (pivot, row) tuples rebuilt per pivot, and a scan of every free column
# against every row.  The library's leaner versions must give the same
# output, bit for bit and in the same order.

def reference_echelon(rows, columns):
    pairs: list[tuple[int, int]] = []  # (pivot bit, row)
    rest = []
    for v in rows:
        for p, r in pairs:
            if v & p:
                v ^= r
        if v & columns:
            p = v & columns & -(v & columns)
            pairs = [(q, r ^ v if r & p else r) for q, r in pairs]
            pairs.append((p, v))
        else:
            rest.append(v)
    return [r for _, r in pairs], sum(p for p, _ in pairs), rest


def reference_rref_kernel(rows, pivots, cols):
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = 1 << free
        for row, p in zip(rows, pivots):
            if (row >> free) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


class TestBitMatrixValidation:
    def test_negative_row_rejected(self):
        with pytest.raises(ValueError, match="outside the column range"):
            BitMatrix((0b01, -1, 0b10), 2)

    def test_bit_at_or_above_cols_rejected(self):
        for bad in (0b1000, 0b1001, 1 << 40):
            with pytest.raises(ValueError, match="outside the column range"):
                BitMatrix((0b111, bad), 3)

    def test_negative_cols_rejected(self):
        for rows in ((), (0,)):
            with pytest.raises(ValueError, match="cols must be nonnegative"):
                BitMatrix(rows, -1)

    def test_widest_rows_and_empty_shapes_accepted(self):
        assert BitMatrix((0b111, 0, 0b100), 3).num_rows == 3
        assert BitMatrix((), 0).num_rows == 0
        assert BitMatrix((0, 0), 0).cols == 0


class TestCirculant:
    def test_entries_from_the_definition(self):
        # entry (i, j) is the coefficient of x^((i - j) mod n)
        rng = random.Random(29)
        for _ in range(200):
            n = rng.randrange(1, 40)
            p = BinaryPolynomial(rng.getrandbits(n))
            m = circulant(p, n)
            assert (m.num_rows, m.cols) == (n, n)
            assert all((m.rows[i] >> j) & 1 == (p.mask >> ((i - j) % n)) & 1
                       for i in range(n) for j in range(n))

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


class TestEchelonMatchesReference:
    """``echelon`` returns exactly ``reference_echelon``'s (rows, pivots, rest)."""

    @staticmethod
    def _cases():
        rng = random.Random(29)
        yield [], 0
        yield [], 0b1011
        yield [0, 0, 0], 0b111
        yield [5, 5, 3, 5, 6, 0, 3], 0b111
        for _ in range(400):
            width = rng.randrange(1, 90)
            rows = [rng.getrandbits(width) for _ in range(rng.randrange(0, 30))]
            rows += [0] * rng.randrange(0, 3) + rng.sample(rows, min(len(rows), rng.randrange(0, 4)))
            rng.shuffle(rows)
            lo, hi = sorted(rng.randrange(0, width + 1) for _ in range(2))
            yield rows, (1 << width) - 1  # every column
            yield rows, ((1 << hi) - 1) & ~((1 << lo) - 1)  # low and high bits excluded
            yield rows, rng.getrandbits(width)  # any column set

    def test_random_rows_and_column_masks(self):
        for rows, columns in self._cases():
            assert echelon(rows, columns) == reference_echelon(rows, columns)

    def test_tag_bits_above_columns(self):
        # as css tags logical generator i with bit ncols + i, outside ``columns``
        rng = random.Random(31)
        for _ in range(200):
            ncols, tags = rng.randrange(1, 60), rng.randrange(0, 12)
            rows = [rng.getrandbits(ncols) for _ in range(rng.randrange(0, 30))]
            rows += [rng.getrandbits(ncols) | 1 << (ncols + i) for i in range(tags)]
            rng.shuffle(rows)
            mask = (1 << ncols) - 1
            g1, pivots, rest = echelon(rows, mask)
            assert (g1, pivots, rest) == reference_echelon(rows, mask)
            assert echelon(g1, mask & ~pivots) == reference_echelon(g1, mask & ~pivots)

    def test_rref_of_every_face_matrix_up_to_n40(self):
        for n in range(2, 41):
            for alpha in range(1, n):
                g = TorusGraph(n, alpha)
                m = BitMatrix(tuple(g.face(p) for p in range(n)), 2 * n)
                full = (1 << m.cols) - 1
                assert echelon(m.rows, full) == reference_echelon(m.rows, full)
                rows = tuple(sorted(reference_echelon(m.rows, full)[0], key=lambda r: r & -r))
                assert rref(m) == (rows, tuple((r & -r).bit_length() - 1 for r in rows))

    @pytest.mark.parametrize("n", [101, 257, 509])
    def test_large_face_matrices(self, n):
        # rank n - 1; in face order each row meets one pivot at most, and
        # shuffled up to two, so the reduction must add every row it hits
        rng = random.Random(n)
        for alpha in (1, n - 1, n // 2, rng.randrange(2, n - 1)):
            g = TorusGraph(n, alpha)
            faces = [g.face(p) for p in range(n)]
            shuffled = rng.sample(faces, n)
            for m in (BitMatrix(tuple(faces), 2 * n), BitMatrix(tuple(shuffled), 2 * n)):
                full = (1 << m.cols) - 1
                expected = reference_echelon(m.rows, full)
                assert echelon(m.rows, full) == expected
                assert len(expected[0]) == n - 1 and expected[2] == [0]
                rows = tuple(sorted(expected[0], key=lambda r: r & -r))
                assert rref(m) == (rows, tuple((r & -r).bit_length() - 1 for r in rows))


class CountedAnd(int):
    """An int that counts the ANDs it is the left operand of."""

    calls = 0

    def __and__(self, other):
        CountedAnd.calls += 1
        return int(self) & other


class TestEchelonSkipsFreshPivots:
    def test_unit_rows_take_no_back_substitution(self):
        # no earlier row holds a new unit row's bit, so no pivot row is
        # revisited: a handful of ANDs per row, not one per earlier row
        n = 400
        rows = [CountedAnd(1 << j) for j in random.Random(37).sample(range(n), n)]
        expected = reference_echelon(rows, (1 << n) - 1)
        CountedAnd.calls = 0
        assert echelon(rows, (1 << n) - 1) == expected
        assert CountedAnd.calls <= 8 * n


class TestTransposeEntrywise:
    def test_empty_shapes(self):
        assert transpose(BitMatrix((), 0)) == BitMatrix((), 0)
        assert transpose(BitMatrix((), 5)) == BitMatrix((0,) * 5, 0)
        assert transpose(BitMatrix((0, 0, 0), 0)) == BitMatrix((), 3)

    def test_random_sparse_and_dense(self):
        rng = random.Random(37)
        for _ in range(300):
            rows, cols = rng.randrange(0, 40), rng.randrange(0, 40)
            for m in (random_matrix(rng, rows, cols), sparse_matrix(rng, rows, cols, rng.randrange(0, 4))):
                t = transpose(m)
                assert (t.num_rows, t.cols) == (cols, rows)
                assert all((t.rows[j] >> i) & 1 == (m.rows[i] >> j) & 1
                           for i in range(rows) for j in range(cols))


class TestRrefKernelBruteForce:
    """``kernel_basis`` against every vector of GF(2)^cols, for cols <= 12."""

    @staticmethod
    def _matrices():
        rng = random.Random(41)
        yield BitMatrix((), 0)
        yield BitMatrix((), 6)
        yield BitMatrix((0, 0), 4)
        for _ in range(150):
            rows, cols = rng.randrange(0, 14), rng.randrange(0, 13)
            yield random_matrix(rng, rows, cols)
            yield sparse_matrix(rng, rows, cols, 2)

    def test_kernel_size_annihilation_and_span(self):
        for m in self._matrices():
            rows, _ = rref(m)
            basis = kernel_basis(m)
            kernel = {v for v in range(1 << m.cols) if mat_vec(m, v) == 0}
            assert len(kernel) == 2 ** (m.cols - len(rows))
            assert all(mat_vec(m, v) == 0 for v in basis)
            assert span(basis) == kernel and len(basis) == m.cols - len(rows)

    def test_same_vectors_in_same_order_as_reference(self):
        for m in self._matrices():
            assert kernel_basis(m) == reference_rref_kernel(*rref(m), m.cols)
