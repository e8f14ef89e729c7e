import ast
import inspect

import pytest

from gbcodex import arithmetic, css
from gbcodex.arithmetic import (
    is_admissible,
    primitive_two_squares,
    root_classes,
    sqrt_minus_one_all,
)
from gbcodex.catalog import strongest_root
from gbcodex.gbcode import (
    build,
    canonical_spec,
    dimension_formula,
    optimized_kitaev_spec,
    weight2_exponents,
)
from gbcodex.lattice import gb_lattice, min_l1
from oracle_utils import scan_primitive_two_squares, scan_roots_of_minus_one


class TestPrimitiveTwoSquares:
    @pytest.mark.parametrize(
        "n,reps",
        [
            (74, [(5, 7)]),
            (65, [(1, 8), (4, 7)]),
            (1, [(0, 1)]),
            (360, []),
        ],
    )
    def test_examples(self, n, reps):
        assert primitive_two_squares(n) == reps

    def test_matches_brute_force(self):
        for n in range(1, 2001):
            assert primitive_two_squares(n) == scan_primitive_two_squares(n)

    def test_nonpositive_rejected(self):
        for n in (0, -1, -65):
            with pytest.raises(ValueError, match="positive"):
                primitive_two_squares(n)


class TestAdmissible:
    def test_examples(self):
        assert is_admissible(65)
        assert not is_admissible(12)
        assert is_admissible(74)
        assert is_admissible(1) and is_admissible(2)

    def test_agrees_with_root_scan(self):
        for n in range(2, 400):
            assert is_admissible(n) == bool(scan_roots_of_minus_one(n))


class TestPrimePowerRoots:
    # the roots of -1 mod an odd prime power are one mirror pair
    @pytest.mark.parametrize("p,eps,roots", [(5, 1, [2, 3]), (13, 1, [5, 8]), (5, 2, [7, 18])])
    def test_examples(self, p, eps, roots):
        assert sqrt_minus_one_all(p**eps) == roots

    def test_lifted_roots_square_to_minus_one(self):
        for p in (5, 13, 17, 29):
            for eps in (1, 2, 3):
                m = p**eps
                roots = sqrt_minus_one_all(m)
                assert len(roots) == 2
                for r in roots:
                    assert r * r % m == m - 1

    def test_wrong_residue_class_rejected(self):
        # 9 and 21 are 1 mod 4 but have a prime factor 3 mod 4, like 7 itself
        for p in (7, 9, 21):
            with pytest.raises(ValueError, match="no square root"):
                sqrt_minus_one_all(p)


class TestAllRoots:
    @pytest.mark.parametrize("n,roots", [(5, [2, 3]), (10, [3, 7]), (65, [8, 18, 47, 57]), (2, [1]), (1, [])])
    def test_examples(self, n, roots):
        assert sqrt_minus_one_all(n) == roots

    def test_matches_scan(self):
        for n in range(1, 2000):
            if is_admissible(n):
                assert sqrt_minus_one_all(n) == scan_roots_of_minus_one(n)

    def test_count_is_power_of_two(self):
        # 2^s roots for s odd prime factors: s = 1 for 5 and 25, 2 for 65, 85 and 325, 3 for 1105
        counts = {5: 2, 25: 2, 65: 4, 85: 4, 325: 4, 1105: 8}
        for n, count in counts.items():
            assert len(sqrt_minus_one_all(n)) == count

    def test_non_admissible_rejected(self):
        with pytest.raises(ValueError, match="no square root"):
            sqrt_minus_one_all(12)


class TestLatticeOfRepresentation:
    def test_class_distance_is_a_plus_b(self):
        # the class +-a/b has the square lattice spanned by (-a, b) and (b, a), of min-L1 a + b
        for n in range(2, 2001):
            reps = primitive_two_squares(n)
            for a, b in reps:
                assert min_l1(gb_lattice(a * pow(b, -1, n) % n, n)).value == a + b
            if reps:
                assert min_l1(gb_lattice(strongest_root(n), n)).value == max(a + b for a, b in reps)

    def test_strongest_root_matches_lattice_ranking(self):
        # the rule the representations replace: over the mirror classes, the
        # largest min-L1 wins, ties to the smaller alpha
        for n in range(2, 2001):
            if not is_admissible(n):
                continue
            classes = {min(a, n - a) for a in sqrt_minus_one_all(n)}
            ranked = max(classes, key=lambda a: (min_l1(gb_lattice(a, n)).value, -a))
            assert strongest_root(n) == ranked

    def test_representations_have_distinct_sums(self):
        # so no two root classes tie on min-L1
        for n in range(2, 2001):
            sums = [a + b for a, b in primitive_two_squares(n)]
            assert len(set(sums)) == len(sums)

    def test_classes_name_every_root_once(self):
        for n in range(2, 2001):
            if is_admissible(n):
                classes = root_classes(n)
                assert [s for _, s in classes] == [a + b for a, b in primitive_two_squares(n)]
                assert sorted(c for c, _ in classes) == [r for r in sqrt_minus_one_all(n) if 2 * r <= n]

    def test_no_class_at_one_or_non_admissible(self):
        assert root_classes(1) == [] and strongest_root(1) is None
        for n in (3, 4, 12, 21, 360):
            assert strongest_root(n) is None
            with pytest.raises(ValueError, match="no square root"):
                root_classes(n)


class TestFamilies:
    def test_grid_spec(self):
        spec = canonical_spec(3, 9)
        assert (str(spec.a), str(spec.b), spec.n) == ("1+x", "1+x^3", 9)
        code = build(spec)
        assert css.dimension(code) == 2
        assert css.exhaustive_distance(code, "X") == 3

    def test_rotated_spec_t1(self):
        spec = optimized_kitaev_spec(1)
        assert (str(spec.a), str(spec.b), spec.n) == ("1+x^3", "x+x^2", 5)
        code = build(spec)
        assert css.dimension(code) == 2
        assert css.exhaustive_distance(code, "X") == 3

    def test_rotated_spec_t2(self):
        spec = optimized_kitaev_spec(2)
        assert spec.n == 13 and spec.length == 26
        code = build(spec)
        assert css.dimension(code) == 2
        assert css.exhaustive_distance(code, "X") == 5

    def test_rotated_specs_normalize_to_weight_two(self):
        for t in range(1, 7):
            spec = optimized_kitaev_spec(t)
            assert dimension_formula(spec) == 2
            assert weight2_exponents(spec) is not None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            optimized_kitaev_spec(0)


def test_arithmetic_imports_no_gbcodex_module():
    # number theory only: the code constructors live in gbcode
    tree = ast.parse(inspect.getsource(arithmetic))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "math" in modules
    assert [m for m in modules if m.startswith((".", "gbcodex"))] == []
