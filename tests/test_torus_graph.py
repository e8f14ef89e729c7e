import random

import pytest

from gbcodex import css
from gbcodex.gbcode import build, canonical_spec
from gbcodex.gf2matrix import mat_vec, row_space_contains
from gbcodex.torus_graph import TorusGraph
from oracle_utils import staircase_walk


def graph_and_code(alpha, n):
    return TorusGraph(n, alpha), build(canonical_spec(alpha, n))


def in_2l(alpha, n, t):
    """t = c1 (n, 0) + c2 (-alpha, 1) with c2 = t.y; t is in 2L when c1 and c2 are both even."""
    tx, ty = t
    return ty % 2 == 0 and (tx + alpha * ty) // n % 2 == 0


class TestFacesAndCocycles:
    def test_face_example(self):
        face = TorusGraph(5, 2).face(0)
        assert [k for k in range(10) if face >> k & 1] == [0, 2, 5, 6]

    def test_faces_are_h_z_rows(self):
        for n, alpha in [(5, 2), (9, 4), (13, 5), (12, 7)]:
            g, code = graph_and_code(alpha, n)
            for p in range(n):
                assert g.face(p) == code.h_z.rows[p]

    def test_faces_sum_to_zero(self):
        g = TorusGraph(8, 3)
        acc = 0
        for p in range(8):
            acc ^= g.face(p)
        assert acc == 0

    def test_faces_lie_in_kernel(self):
        g, code = graph_and_code(3, 8)
        for p in range(8):
            assert mat_vec(code.h_x, g.face(p)) == 0


class TestStaircase:
    def test_weight_three_logical(self):
        g, code = graph_and_code(2, 5)
        bits = g.staircase((1, 2))
        assert bits.bit_count() == 3
        assert css.is_logical_x(code, bits)

    def test_degenerate_two_qubit_block(self):
        g = TorusGraph(2, 1)
        code = build(canonical_spec(1, 2))
        bits = g.staircase((1, 1))
        assert bits.bit_count() == 2
        assert css.is_logical_x(code, bits)

    def test_weight_five_logical(self):
        g, code = graph_and_code(5, 13)
        bits = g.staircase((2, -3))
        assert bits.bit_count() == 5
        assert css.is_logical_x(code, bits)

    def test_non_member_rejected(self):
        with pytest.raises(ValueError, match="does not close"):
            TorusGraph(5, 2).staircase((1, 1))

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            TorusGraph(5, 2).staircase((0, 0))

    def test_matches_reference_walk(self):
        # every closing t in the box |t.x|, |t.y| <= n, walks that revisit an edge included
        wrong = []
        for n in range(2, 41):
            for alpha in range(1, n):
                g = TorusGraph(n, alpha)
                for ty in range(-n, n + 1):
                    for tx in range((-alpha * ty) % n - n, n + 1, n):  # every tx in [-n, n] that closes
                        t = (tx, ty)
                        if t == (0, 0):
                            continue
                        bits = staircase_walk(n, alpha, t)
                        if g.staircase(t) != bits:
                            wrong.append(("staircase", n, alpha, t))
                        if bits.bit_count() == abs(tx) + abs(ty):  # no edge repeats
                            edges = g.staircase_edges(t)
                            if edges != tuple(sorted(set(edges))) or sum(1 << k for k in edges) != bits:
                                wrong.append(("staircase_edges", n, alpha, t))
        assert wrong == []

    def test_edges_reject_what_staircase_rejects(self):
        g = TorusGraph(5, 2)
        with pytest.raises(ValueError, match="does not close"):
            g.staircase_edges((1, 1))
        with pytest.raises(ValueError, match="nonzero"):
            g.staircase_edges((0, 0))

    def test_weight_equals_l1_below_n(self):
        rng = random.Random(89)
        for _ in range(60):
            n = rng.randrange(6, 61)
            alpha = rng.randrange(2, n - 1)
            g = TorusGraph(n, alpha)
            y = rng.randrange(-4, 5)
            x = (-alpha * y) % n
            if x > n // 2:
                x -= n
            if (x, y) == (0, 0) or abs(x) + abs(y) >= n:
                continue
            bits = g.staircase((x, y))
            # |x| < n, so only a long edge can repeat: when (0, j) is in L for some 0 < j < |y|,
            # as at alpha = n / 2; each repeat cancels a pair.  An L1-minimal t never repeats one.
            repeats = any(j * alpha % n == 0 for j in range(1, abs(y)))
            assert (bits.bit_count() == abs(x) + abs(y)) != repeats
            assert bits.bit_count() <= abs(x) + abs(y) and (bits.bit_count() - x - y) % 2 == 0


class TestSumOfFaces:
    def test_faces_and_their_sums(self):
        g = TorusGraph(7, 3)
        assert g.is_sum_of_faces(g.face(0))
        assert g.is_sum_of_faces(g.face(1) ^ g.face(4))

    def test_staircase_is_not(self):
        g = TorusGraph(5, 2)
        assert not g.is_sum_of_faces(g.staircase((1, 2)))

    def test_agrees_with_row_space_membership(self):
        # is_sum_of_faces feeds the faces by lowest edge; h_z holds them in face order p = 0..n-1.
        # A random vector is almost never a member, so XORs of random face subsets (members),
        # staircases (members exactly when t is in 2L) and their sums are drawn too
        rng = random.Random(97)
        answers = set()
        for _ in range(40):
            n = rng.randrange(4, 61)
            alpha = rng.randrange(1, n)
            g, code = graph_and_code(alpha, n)
            for _ in range(10):
                member = 0
                for p in rng.sample(range(n), rng.randrange(1, n + 1)):
                    member ^= g.face(p)
                ty = rng.randrange(-3, 4)
                t = ((-alpha * ty) % n - n * rng.randrange(0, 2), ty) if ty else (n, 0)
                stair = g.staircase(t)
                for v in (rng.getrandbits(2 * n), member, stair, member ^ stair):
                    expected = row_space_contains(code.h_z, v)
                    assert g.is_sum_of_faces(v) == expected, (alpha, n, v)
                    answers.add(expected)
                assert row_space_contains(code.h_z, member)
                assert g.is_sum_of_faces(stair) == in_2l(alpha, n, t), (alpha, n, t)
        assert answers == {True, False}


def all_pairs(max_n=30):
    """Every 1 <= alpha < n, 2 <= n <= max_n, with alpha in {1, n-1} included."""
    return [(alpha, n) for n in range(2, max_n + 1) for alpha in range(1, n)]


class TestEdgeBitChecks:
    def test_boundary_is_mat_vec(self):
        # column k of h_x is the boundary of edge k: {k, k+1} for k < n, {k - n, k - n + alpha} above
        for alpha, n in all_pairs():
            g, code = graph_and_code(alpha, n)
            for k in range(2 * n):
                v, step = (k, 1) if k < n else (k - n, alpha)
                assert mat_vec(code.h_x, 1 << k) == 1 << v | 1 << (v + step) % n, (alpha, n, k)

    def test_sum_of_faces_is_not_logical_on_every_staircase(self):
        # a staircase closes, so it is a sum of faces exactly when it is not a logical, that is
        # when t is in 2L: the writer's dense check and verify's arithmetic decide the same thing
        seen = set()
        for alpha, n in all_pairs(20):
            g = TorusGraph(n, alpha)
            for ty in range(-n, n + 1):
                for tx in range(-n, n + 1):
                    if (tx + alpha * ty) % n or (tx, ty) == (0, 0):
                        continue
                    doubled = in_2l(alpha, n, (tx, ty))
                    assert g.is_sum_of_faces(g.staircase((tx, ty))) == doubled, (alpha, n, tx, ty)
                    seen.add(doubled)
        assert seen == {True, False}

    def test_is_logical_reads_the_class_mod_2l(self):
        # a closed walk's homology class is its displacement t mod 2L, so the
        # staircase of t in L is a logical exactly when t is not in 2L
        for n in range(2, 41):
            for alpha in range(1, n):
                g, code = graph_and_code(alpha, n)
                for ty in range(-n, n + 1):
                    for tx in range(-n, n + 1):
                        if (tx + alpha * ty) % n or (tx, ty) == (0, 0):
                            continue
                        logical = css.is_logical_x(code, g.staircase((tx, ty)))
                        assert logical == (not in_2l(alpha, n, (tx, ty))), (alpha, n, tx, ty)

    def test_faces_and_staircase(self):
        g, code = graph_and_code(3, 10)
        assert mat_vec(code.h_x, g.face(0)) == 0
        assert not css.is_logical_x(code, g.face(0))
        assert not css.is_logical_x(code, g.face(2) ^ g.face(7))
        assert css.is_logical_x(code, g.staircase((1, 3)))
