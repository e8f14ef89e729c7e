import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbcodex import css
from gbcodex.gbcode import GbSpec, build, dimension_formula
from gbcodex.gf2poly import BinaryPolynomial
from gbcodex.lattice import (
    Lattice2D,
    ceil_sqrt,
    enumerate_short,
    gauss_reduce,
    gb_lattice,
    min_l1,
    pair_lattice,
    shortest_norm2,
)
from oracle_utils import (
    box_points,
    gb_check_rows,
    graphlike_min_logical,
    lattice_contains,
    scan_lambda2,
    scan_min_l1,
)


class TestGbLattice:
    def test_basis_and_determinant(self):
        lat = gb_lattice(2, 5)
        assert lat.b1 == (5, 0) and lat.b2 == (-2, 1)
        assert lat.det == 5

    def test_membership_agrees_with_modular_rule(self):
        rng = random.Random(53)
        for _ in range(40):
            n = rng.randrange(2, 30)
            alpha = rng.randrange(1, n)
            lat = gb_lattice(alpha, n)
            for x, y in [(rng.randrange(-50, 50), rng.randrange(-50, 50)) for _ in range(30)]:
                assert lattice_contains(lat, (x, y)) == ((x + alpha * y) % n == 0)

    def test_grid_family_contains_vertical_vector(self):
        m = 4
        assert lattice_contains(gb_lattice(m, m * m), (0, m))

    def test_small_degenerate_case(self):
        assert lattice_contains(gb_lattice(1, 2), (1, 1))

    def test_examples(self):
        lat = gb_lattice(2, 5)
        assert lattice_contains(lat, (0, 0))
        assert lattice_contains(lat, (1, 2))
        assert not lattice_contains(lat, (1, 1))


def pair_spec(u, v, n):
    return GbSpec(BinaryPolynomial.from_support([0, u]), BinaryPolynomial.from_support([0, v]), n)


def graphlike_distances(u, v, n):
    """The graph-like oracle's distance on the X side and on the Z side."""
    h_x, h_z = gb_check_rows([0, u], [0, v], n)
    return graphlike_min_logical(h_x, h_z), graphlike_min_logical(h_z, h_x)


@st.composite
def pairs(draw):
    n = draw(st.integers(2, 60))
    return draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1)), n


class TestPairLattice:
    def test_u_one_is_gb_lattice(self):
        # gb_lattice's basis (n, 0), (-alpha, 1), which the catalog's bytes rest on
        for n in range(2, 40):
            for alpha in range(1, n):
                assert pair_lattice(1, alpha, n) == (Lattice2D((n, 0), (-alpha, 1)), 1)

    def test_every_pair_up_to_20(self):
        # for all 2470 pairs 1 <= u, v < n <= 20: the basis satisfies u x + v y = 0 mod n, |det| = n / g is
        # the index of that rule in Z^2, k = 2g, and d = min-L1 on both sides
        checked = 0
        for n in range(2, 21):
            for u in range(1, n):
                for v in range(1, n):
                    lat, g = pair_lattice(u, v, n)
                    assert g == math.gcd(u, v, n) and lat.det == n // g
                    assert all((u * x + v * y) % n == 0 for x, y in (lat.b1, lat.b2))
                    assert lat.det * sum((u * x + v * y) % n == 0 for x in range(n) for y in range(n)) == n * n
                    assert dimension_formula(pair_spec(u, v, n)) == 2 * g
                    d = min_l1(lat).value
                    assert graphlike_distances(u, v, n) == (d, d), (u, v, n)
                    checked += 1
        assert checked == 2470

    def test_zero_exponent_rejected(self):
        for u, v, n in [(5, 10, 5), (8, 3, 8), (3, 0, 8), (-4, 1, 4)]:
            with pytest.raises(ValueError, match="reduces to zero"):
                pair_lattice(u, v, n)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_n_below_two_rejected(self, n):
        with pytest.raises(ValueError, match="n must be at least 2"):
            pair_lattice(1, 1, n)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(pairs())
    def test_min_l1_is_the_distance(self, pair):
        u, v, n = pair
        lat, g = pair_lattice(u, v, n)
        d = min_l1(lat).value
        assert graphlike_distances(u, v, n) == (d, d)
        if n + g <= css.KERNEL_CAP:  # dim ker h_x = 2n - rank = n + g
            code = build(pair_spec(u, v, n))
            assert css.exhaustive_distance(code, "X") == css.exhaustive_distance(code, "Z") == d


class TestGaussReduce:
    def test_shortest_vector_example(self):
        red = gauss_reduce(gb_lattice(2, 5))
        assert red.b1 in ((1, 2), (-1, -2), (2, -1), (-2, 1))
        assert red.b1[0] ** 2 + red.b1[1] ** 2 == 5

    def test_orthogonal_basis_unchanged(self):
        red = gauss_reduce(Lattice2D((4, 0), (0, 4)))
        assert shortest_norm2(red) == 16
        assert {red.b1, red.b2} <= {(4, 0), (0, 4)}

    def test_grid_family(self):
        red = gauss_reduce(gb_lattice(3, 9))
        assert shortest_norm2(red) == 9

    def test_preserves_membership_on_a_box(self):
        rng = random.Random(59)
        for _ in range(20):
            n = rng.randrange(2, 20)
            alpha = rng.randrange(1, n)
            lat = gb_lattice(alpha, n)
            red = gauss_reduce(lat)
            for t in box_points(6):
                assert lattice_contains(lat, t) == lattice_contains(red, t)

    def test_determinant_invariant(self):
        rng = random.Random(61)
        for _ in range(30):
            n = rng.randrange(2, 40)
            alpha = rng.randrange(1, n)
            lat = gb_lattice(alpha, n)
            assert gauss_reduce(lat).det == lat.det == n

    def test_b1_truly_shortest_by_scan(self):
        rng = random.Random(67)
        for _ in range(30):
            n = rng.randrange(2, 25)
            alpha = rng.randrange(1, n)
            assert shortest_norm2(gb_lattice(alpha, n)) == scan_lambda2(alpha, n)


class TestLambdaEuclid:
    @pytest.mark.parametrize("alpha,n,lam2", [(2, 5, 5), (5, 13, 13), (3, 9, 9), (4, 16, 16)])
    def test_examples(self, alpha, n, lam2):
        assert shortest_norm2(gb_lattice(alpha, n)) == lam2

    def test_root_of_minus_one_gives_multiple_of_n(self):
        for n, alpha in [(5, 2), (13, 5), (25, 7), (65, 18), (85, 38)]:
            assert (alpha * alpha + 1) % n == 0
            lam2 = shortest_norm2(gb_lattice(alpha, n))
            assert lam2 >= n and lam2 % n == 0


class TestEnumerateShort:
    def test_small_radius_example(self):
        got = enumerate_short(gb_lattice(2, 5), 3)
        assert set(got) == {(1, 2), (-1, -2), (-2, 1), (2, -1)}

    def test_no_vectors_below_lambda(self):
        assert enumerate_short(gb_lattice(2, 5), 1) == []

    def test_includes_sign_pairs(self):
        got = enumerate_short(gb_lattice(1, 2), 2)
        assert (1, 1) in got and (-1, -1) in got
        assert (2, 0) in got and (0, -2) in got

    def test_radius_zero_rejected(self):
        with pytest.raises(ValueError):
            enumerate_short(gb_lattice(2, 5), 0)

    def test_complete_against_box_scan(self):
        rng = random.Random(71)
        for _ in range(25):
            n = rng.randrange(2, 22)
            alpha = rng.randrange(1, n)
            lat = gb_lattice(alpha, n)
            radius = rng.randrange(1, 9)
            got = set(enumerate_short(lat, radius))
            want = {
                (x, y)
                for x, y in box_points(radius)
                if (x, y) != (0, 0)
                and abs(x) + abs(y) <= radius
                and (x + alpha * y) % n == 0
            }
            assert got == want

    def test_members_all_contained_and_sorted(self):
        lat = gb_lattice(5, 13)
        out = enumerate_short(lat, 7)
        assert all(lattice_contains(lat, t) for t in out)
        keys = [(abs(x) + abs(y), x, y) for x, y in out]
        assert keys == sorted(keys)


class TestMinL1:
    @pytest.mark.parametrize(
        "alpha,n,value,witness",
        [
            (2, 5, 3, (-2, 1)),
            (5, 13, 5, (-3, -2)),
            (31, 74, 12, (-7, 5)),
        ],
    )
    def test_examples(self, alpha, n, value, witness):
        got = min_l1(gb_lattice(alpha, n))
        assert got.value == value
        assert got.witness == witness

    def test_value_matches_scan(self):
        rng = random.Random(73)
        for _ in range(30):
            n = rng.randrange(2, 30)
            alpha = rng.randrange(1, n)
            got = min_l1(gb_lattice(alpha, n))
            want_value, want_vectors = scan_min_l1(alpha, n)
            assert got.value == want_value
            assert got.witness in want_vectors

    def test_minimum_lies_among_short_combinations_of_reduced_basis(self):
        # every L1-minimal vector is one of +-b1, +-b2, +-(b1 + b2), +-(b1 - b2)
        # of the Gauss-reduced basis, and min_l1 returns the (L1, x, y)-least one
        for n in range(2, 201):
            for alpha in range(1, n):
                red = gauss_reduce(gb_lattice(alpha, n))
                (x1, y1), (x2, y2) = red.b1, red.b2
                candidates = {
                    (s * x, s * y)
                    for x, y in ((x1, y1), (x2, y2), (x1 + x2, y1 + y2), (x1 - x2, y1 - y2))
                    for s in (1, -1)
                }
                value = min(abs(x) + abs(y) for x, y in candidates)
                attaining = sorted(v for v in candidates if abs(v[0]) + abs(v[1]) == value)
                assert (value, attaining) == scan_min_l1(alpha, n), (alpha, n)
                assert min_l1(red) == (value, attaining[0]), (alpha, n)

    def test_eight_candidates_match_enumeration_at_large_n(self):
        # the enumeration over the whole min-L1 ball is the independent minimum
        rng = random.Random(83)
        for _ in range(3000):
            n = rng.randrange(2, 10**40)
            lat = gb_lattice(rng.randrange(1, n), n)
            got = min_l1(lat)
            ball = enumerate_short(lat, got.value)
            assert got == (abs(ball[0][0]) + abs(ball[0][1]), ball[0]), lat

    def test_at_least_ceil_lambda(self):
        rng = random.Random(79)
        for _ in range(40):
            n = rng.randrange(2, 40)
            alpha = rng.randrange(1, n)
            lat = gb_lattice(alpha, n)
            assert min_l1(lat).value >= ceil_sqrt(shortest_norm2(lat))


class TestCeilSqrt:
    @pytest.mark.parametrize("m,c", [(0, 0), (1, 1), (2, 2), (4, 2), (5, 3), (61, 8), (64, 8), (82, 10)])
    def test_values(self, m, c):
        assert ceil_sqrt(m) == c

    def test_exactness_over_range(self):
        for m in range(0, 3000):
            c = ceil_sqrt(m)
            assert c * c >= m and (c == 0 or (c - 1) * (c - 1) < m)
