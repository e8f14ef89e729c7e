import random

import pytest

from gbcodex import css
from gbcodex.arithmetic import (
    factorize,
    is_admissible,
    kitaev_spec,
    optimized_kitaev_spec,
    sqrt_minus_one_all,
    sqrt_minus_one_mod_prime_power,
)
from gbcodex.gbcode import build, dimension_formula, shift_normalize, weight2_exponents
from oracle_utils import scan_roots_of_minus_one


class TestFactorize:
    @pytest.mark.parametrize(
        "n,facs",
        [
            (74, [(2, 1), (37, 1)]),
            (65, [(5, 1), (13, 1)]),
            (1, []),
            (360, [(2, 3), (3, 2), (5, 1)]),
        ],
    )
    def test_examples(self, n, facs):
        assert factorize(n) == facs

    def test_reconstructs(self):
        rng = random.Random(127)
        for _ in range(100):
            n = rng.randrange(1, 100000)
            prod = 1
            for p, e in factorize(n):
                prod *= p**e
            assert prod == n


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
    @pytest.mark.parametrize("p,eps,roots", [(5, 1, [2, 3]), (13, 1, [5, 8]), (5, 2, [7, 18])])
    def test_examples(self, p, eps, roots):
        assert sqrt_minus_one_mod_prime_power(p, eps) == roots

    def test_lifted_roots_square_to_minus_one(self):
        for p in (5, 13, 17, 29):
            for eps in (1, 2, 3):
                m = p**eps
                for r in sqrt_minus_one_mod_prime_power(p, eps):
                    assert r * r % m == m - 1

    def test_wrong_residue_class_rejected(self):
        with pytest.raises(ValueError):
            sqrt_minus_one_mod_prime_power(7)
        # 9 and 21 are 1 mod 4 but not prime: the nonresidue scan finds no root.
        for p in (9, 21):
            with pytest.raises(ValueError, match="no square root"):
                sqrt_minus_one_mod_prime_power(p)


class TestAllRoots:
    @pytest.mark.parametrize("n,roots", [(5, [2, 3]), (10, [3, 7]), (65, [8, 18, 47, 57]), (2, [1]), (1, [])])
    def test_examples(self, n, roots):
        assert sqrt_minus_one_all(n) == roots

    def test_matches_scan(self):
        for n in range(1, 500):
            if is_admissible(n):
                assert sqrt_minus_one_all(n) == scan_roots_of_minus_one(n)

    def test_count_is_power_of_two(self):
        for n in (5, 25, 65, 85, 325, 1105):
            s = sum(1 for p, _ in factorize(n) if p != 2)
            assert len(sqrt_minus_one_all(n)) == 2**s

    def test_non_admissible_rejected(self):
        with pytest.raises(ValueError, match="no square root"):
            sqrt_minus_one_all(12)


class TestFamilies:
    def test_grid_spec(self):
        spec = kitaev_spec(3)
        assert (str(spec.a), str(spec.b), spec.n) == ("1+x", "1+x^3", 9)
        code = build(spec)
        assert css.dimension(code) == 2
        assert css.exhaustive_distance(code, "X") == 3

    def test_grid_spec_m1_reduces(self):
        spec = kitaev_spec(1)
        assert spec.n == 1
        assert css.dimension(build(spec)) == 2

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
            norm = shift_normalize(spec)
            assert weight2_exponents(norm) is not None

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            kitaev_spec(0)
        with pytest.raises(ValueError):
            optimized_kitaev_spec(0)
