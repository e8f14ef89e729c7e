import random

import pytest

from gbcodex import css
from gbcodex.gbcode import build, canonical_spec
from gbcodex.gf2matrix import kernel_basis, mat_vec, row_space_contains
from gbcodex.torus_graph import EdgeVector, TorusGraph, Walk


def graph_and_code(alpha, n):
    return TorusGraph(n, alpha), build(canonical_spec(alpha, n))


class TestIncidenceMatrix:
    def test_equals_h_x_bit_for_bit(self):
        # the edge-list construction must reproduce the circulant construction
        for n in range(4, 51):
            for alpha in range(2, n - 1):
                g, code = graph_and_code(alpha, n)
                assert g.incidence_matrix() == code.h_x

    def test_column_weights_are_two(self):
        m = TorusGraph(7, 3).incidence_matrix()
        for j in range(m.cols):
            assert sum(m.entry(i, j) for i in range(m.num_rows)) == 2

    def test_row_weights_are_four(self):
        m = TorusGraph(7, 3).incidence_matrix()
        assert all(r.bit_count() == 4 for r in m.rows)


class TestFacesAndCocycles:
    def test_face_example(self):
        face0 = TorusGraph(5, 2).face(0)
        assert set(face0.support()) == {0, 2, 5, 6}

    def test_faces_are_h_z_rows(self):
        for n, alpha in [(5, 2), (9, 4), (13, 5), (12, 7)]:
            g, code = graph_and_code(alpha, n)
            for p in range(n):
                assert g.face(p).bits == code.h_z.rows[p]

    def test_cocycles_are_h_x_rows(self):
        for n, alpha in [(5, 2), (9, 4), (13, 5), (12, 7)]:
            g, code = graph_and_code(alpha, n)
            for p in range(n):
                assert g.cocycle(p).bits == code.h_x.rows[p]

    def test_faces_sum_to_zero(self):
        g = TorusGraph(8, 3)
        acc = EdgeVector(8, 0)
        for p in range(8):
            acc ^= g.face(p)
        assert acc.bits == 0

    def test_faces_lie_in_kernel(self):
        g, code = graph_and_code(3, 8)
        for p in range(8):
            assert mat_vec(code.h_x, g.face(p).bits) == 0

    def test_face_cocycle_orthogonality(self):
        g = TorusGraph(9, 4)
        for p in range(9):
            for q in range(9):
                overlap = (g.face(p).bits & g.cocycle(q).bits).bit_count()
                assert overlap % 2 == 0


class TestLift:
    def test_empty_walk(self):
        assert TorusGraph(5, 2).lift(Walk(0, ())) == (0, 0)

    def test_direct_count(self):
        assert TorusGraph(5, 2).lift(Walk(0, (1, 1, 2))) == (2, 1)

    def test_closed_walk_lands_in_lattice(self):
        g = TorusGraph(5, 2)
        walk = Walk(0, (1, 2, 2))  # 0 -> 1 -> 3 -> 0
        assert (walk.start + sum(walk.steps)) % 5 == 0
        assert g.lift(walk) == (1, 2)
        assert (1 + 2 * 2) % 5 == 0

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            TorusGraph(7, 3).lift(Walk(0, (4,)))

    def test_random_closed_walks(self):
        rng = random.Random(83)
        for _ in range(40):
            n = rng.randrange(6, 20)
            alpha = rng.randrange(2, n - 1)
            g, code = graph_and_code(alpha, n)
            # build a step multiset with zero net displacement mod n
            steps = []
            for _ in range(rng.randrange(1, 5)):
                s = rng.choice((1, -1, alpha, -alpha))
                steps += [s, -s]
            extra = rng.randrange(0, 2)
            if extra:
                steps += [1] * n  # wraps all the way around
            rng.shuffle(steps)
            walk = Walk(rng.randrange(n), tuple(steps))
            assert sum(walk.steps) % n == 0
            vec = g.walk_edge_vector(walk)
            assert mat_vec(code.h_x, vec.bits) == 0
            x, y = g.lift(walk)
            assert (x + alpha * y) % n == 0


class TestStaircase:
    def test_weight_three_logical(self):
        g, code = graph_and_code(2, 5)
        vec = g.staircase((1, 2))
        assert vec.weight == 3
        assert css.is_logical_x(code, vec.bits)

    def test_degenerate_two_qubit_block(self):
        g = TorusGraph(2, 1)
        code = build(canonical_spec(1, 2))
        vec = g.staircase((1, 1))
        assert vec.weight == 2
        assert css.is_logical_x(code, vec.bits)

    def test_weight_five_logical(self):
        g, code = graph_and_code(5, 13)
        vec = g.staircase((2, -3))
        assert vec.weight == 5
        assert css.is_logical_x(code, vec.bits)

    def test_non_member_rejected(self):
        with pytest.raises(ValueError, match="does not close"):
            TorusGraph(5, 2).staircase((1, 1))

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            TorusGraph(5, 2).staircase((0, 0))

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
            vec = g.staircase((x, y), start=rng.randrange(n))
            assert vec.weight == abs(x) + abs(y)

    def test_start_vertex_shifts_certificate(self):
        g, code = graph_and_code(2, 5)
        for start in range(5):
            vec = g.staircase((1, 2), start=start)
            assert vec.weight == 3
            assert css.is_logical_x(code, vec.bits)


class TestSumOfFaces:
    def test_faces_and_their_sums(self):
        g = TorusGraph(7, 3)
        assert g.is_sum_of_faces(g.face(0))
        assert g.is_sum_of_faces(g.face(1) ^ g.face(4))

    def test_staircase_is_not(self):
        g = TorusGraph(5, 2)
        assert not g.is_sum_of_faces(g.staircase((1, 2)))

    def test_agrees_with_row_space_membership(self):
        rng = random.Random(97)
        for _ in range(20):
            n = rng.randrange(4, 14)
            alpha = rng.randrange(2, n - 1) if n > 4 else 2
            g, code = graph_and_code(alpha, n)
            for _ in range(20):
                v = rng.getrandbits(2 * n)
                assert g.is_sum_of_faces(EdgeVector(n, v)) == row_space_contains(code.h_z, v)


def all_pairs(max_n=30):
    """Every 1 <= alpha < n, 2 <= n <= max_n, with alpha in {1, n-1} included."""
    return [(alpha, n) for n in range(2, max_n + 1) for alpha in range(1, n)]


class TestEdgeBitChecks:
    def test_boundary_and_face_parities_are_mat_vec(self):
        rng = random.Random(101)
        for alpha, n in all_pairs():
            g, code = graph_and_code(alpha, n)
            for _ in range(4):
                v = rng.getrandbits(2 * n)
                assert g.boundary(v) == mat_vec(code.h_x, v)
                assert g.face_parities(v) == mat_vec(code.h_z, v)

    def test_dual_logicals_lie_in_ker_h_z(self):
        for alpha, n in all_pairs():
            g, code = graph_and_code(alpha, n)
            for m in g.dual_logicals():
                assert g.face_parities(m) == 0 == mat_vec(code.h_z, m)

    def test_is_logical_matches_dense_check(self):
        rng = random.Random(103)
        seen = set()
        for alpha, n in all_pairs():
            g, code = graph_and_code(alpha, n)
            kernel = kernel_basis(code.h_x)
            for _ in range(4):
                combo = 0
                for b in kernel:
                    if rng.getrandbits(1):
                        combo ^= b
                for v in (rng.getrandbits(2 * n), combo):
                    assert g.is_logical(v) == css.is_logical_x(code, v)
                    seen.add(g.is_logical(v))
        assert seen == {True, False}

    def test_faces_and_staircase(self):
        g = TorusGraph(10, 3)
        assert g.boundary(g.face(0).bits) == 0
        assert not g.is_logical(g.face(0).bits)
        assert not g.is_logical((g.face(2) ^ g.face(7)).bits)
        assert g.is_logical(g.staircase((1, 3)).bits)

    def test_out_of_range_bits_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            TorusGraph(5, 2).boundary(1 << 10)
