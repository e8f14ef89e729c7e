import functools
import math
import operator
import random
import sys

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


def gb(a, b, n):
    return build(GbSpec(parse_poly(a, n), parse_poly(b, n), n))


@pytest.fixture(scope="module")
def code_10_2_3():
    return gb("1+x", "1+x^2", 5)


class TestNewCss:
    def test_gb_pair_accepted(self, code_10_2_3):
        assert code_10_2_3.length == 10

    def test_non_orthogonal_rejected(self):
        h_x = BitMatrix((0b11,), 2)
        h_z = BitMatrix((0b01,), 2)
        with pytest.raises(ValueError, match="not orthogonal"):
            css.new_css(h_x, h_z)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            css.new_css(BitMatrix((0,), 3), BitMatrix((0,), 4))

    def test_zero_checks_accepted(self):
        code = css.new_css(BitMatrix((0, 0), 4), BitMatrix((0, 0), 4))
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
            css.exhaustive_distance(code, "X")

    def test_witness_is_minimal_logical(self, code_10_2_3):
        weight, witness = css.min_weight_logical(code_10_2_3, "X")
        assert weight == 3
        assert witness.bit_count() == 3
        assert css.is_logical_x(code_10_2_3, witness)

    def test_against_naive_enumeration(self):
        # cross-check the search on tiny random CSS pairs
        rng = random.Random(37)
        checked = 0
        while checked < 25:
            n = rng.randrange(2, 7)
            a = rng.getrandbits(n)
            b = rng.getrandbits(n)
            code = build(GbSpec(_from_mask(a), _from_mask(b), n))
            got_x = css.exhaustive_distance(code, "X")
            want_x = naive_min_logical(list(code.h_x.rows), list(code.h_z.rows), code.length)
            assert got_x == want_x
            got_z = css.exhaustive_distance(code, "Z")
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

    def test_is_logical_x_reuses_cached_reductions(self, monkeypatch):
        # membership in the row space of h_z is read off the cached rref, not reduced per call
        calls = []
        rref = gf2matrix.rref

        def counted(m):
            calls.append(m)
            return rref(m)

        monkeypatch.setattr(gf2matrix, "rref", counted)
        code = gb("1+x", "1+x^2", 5)
        certificate = (1 << 0) | (1 << 6) | (1 << 8)
        assert [css.is_logical_x(code, v) for v in (certificate, code.h_z.rows[0], 0)] == [True, False, False]
        assert calls == [code.h_x, code.h_z]


class TestLogicalSpaceContract:
    """On random orthogonal pairs up to 90 columns: the split is a basis of the kernel."""

    @pytest.mark.parametrize("side", ["X", "Z"])
    def test_random_css_pairs(self, side):
        rng = random.Random(53)
        for _ in range(60):
            ncols = rng.randrange(1, 91)
            h_z = BitMatrix(tuple(rng.getrandbits(ncols) for _ in range(rng.randrange(0, ncols))), ncols)
            dual = gf2matrix.kernel_basis(h_z)
            h_x_rows = tuple(
                functools.reduce(operator.xor, (v for v in dual if rng.random() < 0.5), 0)
                for _ in range(rng.randrange(0, 2 * len(dual) + 1))
            )
            code = css.new_css(BitMatrix(h_x_rows, ncols), h_z)
            own, other = (code.h_x, code.h_z) if side == "X" else (code.h_z, code.h_x)

            def rank(vectors):
                return list_rank_gf2([[(v >> j) & 1 for j in range(ncols)] for v in vectors])

            stabilizers, logicals = css.logical_space(code, side)
            assert len(stabilizers) + len(logicals) == ncols - rank(own.rows)
            assert all((row & v).bit_count() % 2 == 0 for row in own.rows for v in stabilizers + logicals)
            assert rank(stabilizers) == len(stabilizers) == rank(other.rows) == rank(stabilizers + list(other.rows))
            assert rank(stabilizers + logicals) == len(stabilizers) + len(logicals)


def _check_side(code, side, expected):
    """min_weight_logical on one side has the expected weight and a logical witness of that weight."""
    weight, witness = css.min_weight_logical(code, side)
    assert weight == expected
    assert witness.bit_count() == weight
    own_code = code if side == "X" else css.CssCode(code.h_z, code.h_x)
    assert css.is_logical_x(own_code, witness)


class TestKernelAsFirstInformationSet:
    """min_weight_logical's G1 is a kernel basis: the other side's cached rref and k logical representatives.

    _min_logical_weight builds it by echelon.
    """

    @staticmethod
    def _count_calls(monkeypatch, names):
        """Count the calls of each (module, name), from here on."""
        calls = {name: 0 for _, name in names}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in names:
            counted(module, name)
        return calls

    def test_one_elimination_per_side(self, monkeypatch):
        code = gb("1+x", "1+x^7", 25)
        code._rref  # prime both reductions, so only the search's own eliminations are counted
        calls = self._count_calls(monkeypatch, [
            (gf2matrix, "echelon"), (css, "logical_space"), (css, "_min_logical_weight")])
        for side in ("X", "Z"):
            assert css.min_weight_logical(code, side)[0] == 7
        assert calls == {"echelon": 2, "logical_space": 0, "_min_logical_weight": 0}

    def test_no_elimination_when_g1_settles_the_bound(self, monkeypatch):
        # d = 3 is reached by G1's level 2, before a level of G2 could raise the bound
        code = gb("1+x", "1+x^2", 5)
        code._rref
        calls = self._count_calls(monkeypatch, [(gf2matrix, "echelon")])
        for side in ("X", "Z"):
            assert css.min_weight_logical(code, side)[0] == 3
        assert calls == {"echelon": 0}

    @pytest.mark.parametrize("n", range(3, 15))
    def test_reduced_kernel_basis_tagged_on_its_logicals(self, n):
        for u in range(1, n):
            for v in range(u + 1, n):
                code = gb(f"1+x^{u}", f"1+x^{v}", n)
                mask = (1 << code.length) - 1
                for side in ("X", "Z"):
                    own_code = code if side == "X" else css.CssCode(code.h_z, code.h_x)
                    g1, others = css._first_information_set(code, side)
                    rows = [x & mask for x in g1]
                    assert all(gf2matrix.mat_vec(own_code.h_x, x) == 0 for x in rows)
                    rank = list_rank_gf2([[(x >> j) & 1 for j in range(code.length)] for x in rows])
                    assert rank == len(rows) == code.length - len(code._rref[side][0])
                    pivots = mask & ~others  # others is the complement of the pivots
                    assert pivots.bit_count() == len(rows)
                    assert all(sum((x >> p) & 1 for x in rows) == 1 for p in range(code.length) if (pivots >> p) & 1)
                    assert all((x & pivots).bit_count() == 1 for x in rows)
                    assert [x > mask for x in g1] == [css.is_logical_x(own_code, x) for x in rows]

    def test_no_kernel_basis_is_built(self, monkeypatch):
        def boom(*args):
            raise AssertionError("kernel basis built")

        monkeypatch.setattr(gf2matrix, "kernel_basis", boom)
        code = gb("1+x", "1+x^7", 25)
        for side in ("X", "Z"):
            _check_side(code, side, 7)

    def test_cap_checked_before_the_kernel_is_built(self, monkeypatch):
        def boom(*args):
            raise AssertionError("first information set built past the cap")

        monkeypatch.setattr(css, "_first_information_set", boom)
        code = gb("1+x", "1+x^7", 30)
        for side in ("X", "Z"):
            with pytest.raises(ValueError, match=f"^kernel too large: dimension 31 exceeds cap {css.KERNEL_CAP}$"):
                css.min_weight_logical(code, side)

    @staticmethod
    def _outcome(search, code, side):
        try:
            found = search(code, side)
        except ValueError as exc:
            return str(exc)
        return found if found is None else found[0]

    @staticmethod
    def _via_logical_space(code, side):
        """The search on the stabilizer and logical split, with min_weight_logical's cap and k = 0 rules."""
        stabilizers, logicals = css.logical_space(code, side)
        if len(stabilizers) + len(logicals) > css.KERNEL_CAP:
            raise ValueError(f"kernel too large: dimension {len(stabilizers) + len(logicals)} exceeds cap {css.KERNEL_CAP}")
        return css._min_logical_weight(stabilizers, logicals, code.length) if logicals else None

    @pytest.mark.parametrize("n", range(3, 15))
    def test_both_sources_agree(self, n):
        for u in range(1, n):
            for v in range(u + 1, n):
                code = gb(f"1+x^{u}", f"1+x^{v}", n)
                for side in ("X", "Z"):
                    weight = self._outcome(self._via_logical_space, code, side)
                    assert self._outcome(css.min_weight_logical, code, side) == weight
                    _check_side(code, side, weight)

    @pytest.mark.parametrize("a,b,n,outcome", [
        ("1", "1", 3, None),
        ("1+x", "1+x^7", 30, f"kernel too large: dimension 31 exceeds cap {css.KERNEL_CAP}"),
    ], ids=["k_zero", "over_cap"])
    def test_both_sources_agree_off_the_search(self, a, b, n, outcome):
        code = gb(a, b, n)
        for side in ("X", "Z"):
            assert self._outcome(css.min_weight_logical, code, side) == outcome
            assert self._outcome(self._via_logical_space, code, side) == outcome


class TestPrunedSweep:
    """Kernel dimension 17..26, up to the cap: the search stops many levels before the last."""

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
        # identity row, shift every vector past bit 64; the kernel is the same
        code = gb("1+x", "1+x^7", 25)
        stabilizers, logicals = css.logical_space(code, "X")
        assert len(stabilizers) + len(logicals) == css.KERNEL_CAP
        p = 71
        padded = css.new_css(
            BitMatrix(tuple(1 << i for i in range(p)) + tuple(r << p for r in code.h_x.rows), p + code.length),
            BitMatrix(tuple(r << p for r in code.h_z.rows), p + code.length),
        )
        weight, witness = css.min_weight_logical(code, "X")
        padded_weight, padded_witness = css.min_weight_logical(padded, "X")
        assert padded.length > 64  # vectors wider than one machine word
        assert (padded_weight, padded_witness >> p, padded_witness & ((1 << p) - 1)) == (weight, witness, 0)
        assert css.is_logical_x(padded, padded_witness)


class TestSweepEdgeCases:
    """Against naive_min_logical; only the weight and the witness's logicality are specified."""

    @pytest.mark.parametrize("x_rows,z_rows,cols,n_stabilizers", [
        ([0b00011, 0b00110], [], 5, 0),  # no stabilizers: every sum of generators is a logical
        (list(gb("1+x", "1+x^2", 5).h_x.rows), list(gb("1+x", "1+x^2", 5).h_z.rows), 10, 4),
        ([], [], 10, 0),  # no checks: every unit vector is a minimum-weight logical
    ], ids=["no_stabilizers", "few_stabilizers", "all_ties"])
    def test_matches_naive(self, x_rows, z_rows, cols, n_stabilizers):
        code = css.new_css(BitMatrix(tuple(x_rows), cols), BitMatrix(tuple(z_rows), cols))
        assert len(css.logical_space(code, "X")[0]) == n_stabilizers
        _check_side(code, "X", naive_min_logical(x_rows, z_rows, cols))

    def test_any_stabilizer_basis(self):
        # logical_space returns stabilizers in reduced echelon form; the search
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


class TestTwoInformationSets:
    """Seeded random bases against the spans: ncols 20..70, K <= 16, 1..4 logicals.

    The generators live on ``m`` of the ncols columns and the others are
    zero.  Any information set of K columns then leaves m - K columns where
    the rank is at most m - K, so the defect is at least 2K - m.
    """

    @staticmethod
    def _basis(rng, ncols, m, k):
        """k independent random vectors on m random columns of ncols, as (stabilizers, logicals)."""
        columns = rng.sample(range(ncols), m)
        while True:
            vectors = [sum(1 << c for c in columns if rng.random() < 0.5) for _ in range(k)]
            if list_rank_gf2([[(v >> j) & 1 for j in range(ncols)] for v in vectors]) == k:
                n_logicals = rng.randrange(1, min(4, k) + 1)
                return vectors[n_logicals:], vectors[:n_logicals]

    def _check(self, stabilizers, logicals, ncols):
        coset_members = span(stabilizers + logicals) - span(stabilizers)
        weight, witness = css._min_logical_weight(stabilizers, logicals, ncols)
        assert weight == min(v.bit_count() for v in coset_members)
        assert witness in coset_members and witness.bit_count() == weight

    @pytest.mark.parametrize("seed", range(12))
    def test_defect(self, seed):
        rng = random.Random(1000 + seed)
        ncols, k = rng.randrange(20, 71), rng.randrange(4, 17)
        m = rng.randrange(k + 1, min(2 * k, ncols + 1))  # defect at least 2k - m >= 1
        self._check(*self._basis(rng, ncols, m, k), ncols)

    @pytest.mark.parametrize("seed", range(12))
    def test_no_rank_off_the_first_information_set(self, seed):
        # m = K: the first information set is every nonzero column, so r2 = 0
        rng = random.Random(2000 + seed)
        ncols, k = rng.randrange(20, 71), rng.randrange(1, 17)
        self._check(*self._basis(rng, ncols, k, k), ncols)

    @pytest.mark.parametrize("seed", range(12))
    def test_zero_padding_columns(self, seed):
        # m >= 2K nonzero columns, so the defect can be 0, among zero columns
        rng = random.Random(3000 + seed)
        ncols, k = rng.randrange(20, 71), rng.randrange(1, 17)
        m = rng.randrange(min(2 * k, ncols - 1), ncols)
        self._check(*self._basis(rng, ncols, m, k), ncols)

    def test_no_checks_every_column_a_generator(self):
        # K = ncols = 20 unit vectors, 4 of them logicals: d = 1, r2 = 0
        units = [1 << i for i in range(20)]
        weight, witness = css._min_logical_weight(units[4:], units[:4], 20)
        assert weight == 1 and witness in units[:4]


def _levels_walked(search, *args):
    """search(*args) and the levels its walks visit in order: (1, w) for G1's level w, (2, w) for G2's."""
    sets, walked = [], []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "walk" and frame.f_back.f_code is css._search.__code__:
            rows = frame.f_locals["rows"]
            if not any(rows is seen for seen in sets):
                sets.append(rows)
            walked.append((next(i for i, seen in enumerate(sets, start=1) if rows is seen), frame.f_locals["depth"]))

    sys.setprofile(profile)
    try:
        found = search(*args)
    finally:
        sys.setprofile(None)
    return found, walked


class TestLazySecondInformationSet:
    """G2 is built at the first level w with w + 1 > K - |others|, then walked from level 1."""

    def test_g1_alone_when_g2_cannot_raise_the_bound(self):
        # K = 6, |others| = 4: G2's level 1 could not raise the bound, and G1's level 2 reaches d = 3
        code = gb("1+x", "1+x^2", 5)
        for side in ("X", "Z"):
            found, walked = _levels_walked(css.min_weight_logical, code, side)
            assert found[0] == 3 and walked == [(1, 1), (1, 2)]

    def test_catch_up_then_level_by_level(self):
        # K = 26, |others| = 24: G2 is built after G1's level 2 and catches up on its level 1
        code = gb("1+x", "1+x^7", 25)
        for side in ("X", "Z"):
            found, walked = _levels_walked(css.min_weight_logical, code, side)
            assert found[0] == 7
            assert walked == [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3), (1, 4)]

    def test_bound_checked_after_catch_up(self):
        # K = 2 on 4 columns, so G2 is built after G1's level 1; it has full rank on
        # the others (defect 0), and with G1's level 1 that gives the bound 3 = d
        stabilizers, logicals = [0b0110], [0b1101]
        found, walked = _levels_walked(css._min_logical_weight, stabilizers, logicals, 4)
        assert found[0] == 3 and walked == [(1, 1)]


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
