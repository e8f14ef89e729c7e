import math
import random

import pytest

from gbcodex import css, gf2matrix
from gbcodex.gbcode import GbSpec, build, canonical_spec
from gbcodex.gf2matrix import BitMatrix
from gbcodex.gf2poly import parse_poly
from oracle_utils import (
    bit_rows_to_lists,
    gb_check_rows,
    graphlike_min_logical,
    list_rank_gf2,
    naive_min_logical,
    span,
    to_masks,
)


def P(text):
    return parse_poly(text)


def gb(a, b, n):
    return build(GbSpec(P(a), P(b), n))


@pytest.fixture(scope="module")
def code_10_2_3():
    return gb("1+x", "1+x^2", 5)


class TestNewCss:
    def test_gb_pair_accepted(self, code_10_2_3):
        assert code_10_2_3.length == 10

    def test_non_orthogonal_rejected(self):
        h_x = BitMatrix.from_rows([[1, 1]])
        h_z = BitMatrix.from_rows([[1, 0]])
        with pytest.raises(ValueError, match="not orthogonal"):
            css.new_css(h_x, h_z)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            css.new_css(BitMatrix.zeros(1, 3), BitMatrix.zeros(1, 4))

    def test_zero_checks_accepted(self):
        code = css.new_css(BitMatrix.zeros(2, 4), BitMatrix.zeros(2, 4))
        assert css.dimension(code) == 4


class TestDimension:
    def test_table_examples(self, code_10_2_3):
        assert css.dimension(code_10_2_3) == 2
        assert css.dimension(gb("1+x", "1+x^3", 10)) == 2

    def test_trivial_generators_kill_all_logicals(self):
        assert css.dimension(gb("1", "1", 3)) == 0


class TestIsLogical:
    def test_zero_vector_is_not_logical(self, code_10_2_3):
        assert not css.is_logical_x(code_10_2_3, 0)

    def test_stabilizer_rows_are_not_logical(self, code_10_2_3):
        for row in code_10_2_3.h_z.rows:
            assert not css.is_logical_x(code_10_2_3, row)

    def test_staircase_certificate_is_logical(self, code_10_2_3):
        # walk 0 -> 1 (unit edge 0), 1 -> 3 (long edge 5+1), 3 -> 0 (long edge 5+3)
        v = (1 << 0) | (1 << 6) | (1 << 8)
        assert css.is_logical_x(code_10_2_3, v)

    def test_invariant_under_adding_stabilizers(self, code_10_2_3):
        rng = random.Random(31)
        v = (1 << 0) | (1 << 6) | (1 << 8)
        for _ in range(20):
            w = v
            for row in code_10_2_3.h_z.rows:
                if rng.random() < 0.5:
                    w ^= row
            assert css.is_logical_x(code_10_2_3, w)


class TestExhaustiveDistance:
    @pytest.mark.parametrize(
        "a,b,n,expected",
        [
            ("1+x", "1+x^2", 5, 3),
            ("1+x", "1+x", 2, 2),
            ("1+x", "1+x^5", 13, 5),
        ],
    )
    def test_table_values(self, a, b, n, expected):
        code = gb(a, b, n)
        assert css.exhaustive_distance(code, "X") == expected
        assert css.exhaustive_distance(code, "Z") == expected

    def test_k_zero_reports_infinite(self):
        assert css.exhaustive_distance(gb("1", "1", 3), "X") is None

    def test_cap_enforced(self):
        code = gb("1+x", "1+x^7", 30)
        with pytest.raises(ValueError, match="kernel too large"):
            css.exhaustive_distance(code, "X", cap=26)

    def test_witness_is_minimal_logical(self, code_10_2_3):
        weight, witness = css.min_weight_logical(code_10_2_3, "X")
        assert weight == 3
        assert witness.bit_count() == 3
        assert css.is_logical_x(code_10_2_3, witness)

    def test_against_naive_enumeration(self):
        # cross-check the vectorized engine on tiny random CSS pairs
        rng = random.Random(37)
        checked = 0
        while checked < 25:
            n = rng.randrange(2, 7)
            a = rng.getrandbits(n)
            b = rng.getrandbits(n)
            code = build(GbSpec(P("0") if a == 0 else _from_mask(a), _from_mask(b), n))
            got_x = css.exhaustive_distance(code, "X", cap=14)
            want_x = naive_min_logical(list(code.h_x.rows), list(code.h_z.rows), code.length)
            assert got_x == want_x
            got_z = css.exhaustive_distance(code, "Z", cap=14)
            want_z = naive_min_logical(list(code.h_z.rows), list(code.h_x.rows), code.length)
            assert got_z == want_z
            checked += 1

    def test_sides_agree_on_small_sweep(self):
        for n in range(2, 11):
            for alpha in range(1, n):
                code = build(canonical_spec(alpha, n))
                assert css.exhaustive_distance(code, "X") == css.exhaustive_distance(code, "Z")

    def test_bad_side_rejected(self, code_10_2_3):
        with pytest.raises(ValueError, match="side"):
            css.exhaustive_distance(code_10_2_3, "Y")

    def test_each_check_matrix_reduced_once(self, monkeypatch):
        # both sides read the reductions of h_x and h_z, and dimension reuses them
        calls = []
        rref = gf2matrix.rref

        def counted(m):
            calls.append(m)
            return rref(m)

        monkeypatch.setattr(gf2matrix, "rref", counted)
        code = gb("1+x", "1+x^7", 25)
        assert (css.exhaustive_distance(code, "X"), css.exhaustive_distance(code, "Z")) == (7, 7)
        assert css.dimension(code) == 2
        assert calls == [code.h_x, code.h_z]


def _check_side(code, side, expected):
    """min_weight_logical on one side has the expected weight and a logical witness of that weight."""
    weight, witness = css.min_weight_logical(code, side)
    assert weight == expected
    assert witness.bit_count() == weight
    own_code = code if side == "X" else css.CssCode(code.h_z, code.h_x)
    assert css.is_logical_x(own_code, witness)


class TestPrunedSweep:
    """Kernel dimension 17..26: the sweep has high stabilizers, where the pivot-weight bound prunes rows."""

    @pytest.mark.parametrize("n", range(16, 26))
    def test_canonical_codes_match_graphlike(self, n):
        for alpha in range(1, n):
            h_x, h_z = gb_check_rows([0, 1], [0, alpha], n)
            code = build(canonical_spec(alpha, n))
            assert bit_rows_to_lists(code.h_x) == h_x and bit_rows_to_lists(code.h_z) == h_z
            _check_side(code, "X", graphlike_min_logical(h_x, h_z))
            _check_side(code, "Z", graphlike_min_logical(h_z, h_x))

    # g = gcd(u, v, n) > 1 gives k = 2g logicals and kernel dimension n + g
    @pytest.mark.parametrize("u,v,n", [
        (4, 8, 16), (3, 6, 18), (4, 10, 18), (2, 14, 20), (5, 10, 20), (6, 9, 21), (2, 8, 24), (6, 20, 24),
    ])
    def test_non_canonical_pairs_match_graphlike(self, u, v, n):
        h_x, h_z = gb_check_rows([0, u], [0, v], n)
        code = gb(f"1+x^{u}", f"1+x^{v}", n)
        assert bit_rows_to_lists(code.h_x) == h_x and bit_rows_to_lists(code.h_z) == h_z
        assert css.dimension(code) == 2 * math.gcd(u, v, n)
        _check_side(code, "X", graphlike_min_logical(h_x, h_z))
        _check_side(code, "Z", graphlike_min_logical(h_z, h_x))

    def test_padding_past_64_columns(self):
        # p fresh columns below the code, each pinned out of ker(h_x) by an
        # identity row, push it onto a second 64-bit word; the kernel is the same
        code = gb("1+x", "1+x^7", 25)
        stabilizers, logicals = css.logical_space(code, "X")
        assert len(stabilizers) + len(logicals) > 16 + len(logicals)
        p = 71
        padded = css.new_css(
            BitMatrix(tuple(1 << i for i in range(p)) + tuple(r << p for r in code.h_x.rows), p + code.length),
            BitMatrix(tuple(r << p for r in code.h_z.rows), p + code.length),
        )
        weight, witness = css.min_weight_logical(code, "X")
        padded_weight, padded_witness = css.min_weight_logical(padded, "X")
        assert (padded.length + 63) // 64 == 2  # the sweep packs each vector into two words
        assert (padded_weight, padded_witness >> p, padded_witness & ((1 << p) - 1)) == (weight, witness, 0)
        assert css.is_logical_x(padded, padded_witness)


class TestSweepEdgeCases:
    """Against naive_min_logical; only the weight and the witness's logicality are specified."""

    @pytest.mark.parametrize("x_rows,z_rows,cols,n_stabilizers", [
        ([0b00011, 0b00110], [], 5, 0),  # no stabilizers: a one-row table
        (list(gb("1+x", "1+x^2", 5).h_x.rows), list(gb("1+x", "1+x^2", 5).h_z.rows), 10, 4),
        ([], [], 10, 0),  # no checks: every unit vector is a minimum-weight logical
    ], ids=["no_stabilizers", "few_stabilizers", "all_ties"])
    def test_matches_naive(self, x_rows, z_rows, cols, n_stabilizers):
        code = css.new_css(BitMatrix(tuple(x_rows), cols), BitMatrix(tuple(z_rows), cols))
        assert len(css.logical_space(code, "X")[0]) == n_stabilizers
        _check_side(code, "X", naive_min_logical(x_rows, z_rows, cols))

    def test_any_stabilizer_basis(self):
        # logical_space returns stabilizers in reduced echelon form; the sweep
        # must not rely on it, so feed it random bases and compare with the spans
        rng = random.Random(41)
        checked = 0
        while checked < 500:
            ncols = rng.randrange(5, 11)
            stabilizers = [rng.getrandbits(ncols) for _ in range(rng.randrange(2, 6))]
            logicals = [rng.getrandbits(ncols) for _ in range(rng.randrange(2, 4))]
            vectors = stabilizers + logicals
            if list_rank_gf2([[(v >> j) & 1 for j in range(ncols)] for v in vectors]) < len(vectors):
                continue
            coset_members = span(vectors) - span(stabilizers)
            weight, witness = css._min_logical_weight(stabilizers, logicals, ncols)
            assert weight == min(v.bit_count() for v in coset_members)
            assert witness in coset_members and witness.bit_count() == weight
            checked += 1

    def test_many_ties_at_minimum(self):
        # (1 + x, 1 + x, 7) has d = 2, attained by 7 logicals, x^i (1, 1)
        code = gb("1+x", "1+x", 7)
        x_rows, z_rows = list(code.h_x.rows), list(code.h_z.rows)
        assert sum(v.bit_count() == 2 and css.is_logical_x(code, v) for v in range(1 << 14)) == 7
        _check_side(code, "X", naive_min_logical(x_rows, z_rows, 14))
        _check_side(code, "Z", naive_min_logical(z_rows, x_rows, 14))


class TestGraphlikeOracle:
    """The voltage-cover oracle in oracle_utils shares no code with gbcodex."""

    @pytest.mark.parametrize("n", range(3, 16))
    def test_matches_exhaustive_both_sides(self, n):
        for alpha in range(1, n):
            h_x, h_z = gb_check_rows([0, 1], [0, alpha], n)
            code = build(canonical_spec(alpha, n))
            assert bit_rows_to_lists(code.h_x) == h_x and bit_rows_to_lists(code.h_z) == h_z
            d_x, d_z = graphlike_min_logical(h_x, h_z), graphlike_min_logical(h_z, h_x)
            assert (d_x, d_z) == (css.exhaustive_distance(code, "X"), css.exhaustive_distance(code, "Z"))
            if 2 * n <= 14:
                x_rows, z_rows = to_masks(h_x), to_masks(h_z)
                assert (d_x, d_z) == (
                    naive_min_logical(x_rows, z_rows, 2 * n),
                    naive_min_logical(z_rows, x_rows, 2 * n),
                )

    def test_cycle_away_from_vertex_zero(self):
        # edge 0-1, then the triangle 1-2-3; from vertex 0 the best walk has length 5
        lollipop = [[1, 0, 0, 0], [1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]]
        assert graphlike_min_logical(lollipop, []) == 3 == naive_min_logical(to_masks(lollipop), [], 4)
        assert graphlike_min_logical(lollipop, [[0, 1, 1, 1]]) is None

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError, match="weight 1, not 2"):
            graphlike_min_logical([[1, 1, 1]], [])
        with pytest.raises(ValueError, match="not orthogonal"):
            graphlike_min_logical([[1, 1], [1, 1]], [[1, 0]])


def _from_mask(mask):
    from gbcodex.gf2poly import BinaryPolynomial

    return BinaryPolynomial(mask)
