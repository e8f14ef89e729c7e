import random
import re

import pytest

from gbcodex import css, distance, gbcode
from gbcodex.catalog import analyze_length
from gbcodex.distance import (
    determine,
    lattice_fields,
    lattice_lower_bound,
    pair_fields,
    parity_refined_lower,
    upper_bound_certificate,
)
from gbcodex.gbcode import build, canonical_spec
from gbcodex.lattice import ceil_sqrt
from oracle_utils import canonical_alpha, gb_check_rows, graphlike_min_logical, scan_lambda2, scan_min_l1


class TestLatticeBound:
    def test_small_n_needs_no_flag(self):
        # the bound holds below the paper's hypothesis n >= 6, so the catalog records no flag for it
        assert lattice_lower_bound(2, 5) == 3 <= determine(2, 5).exact
        assert "hypothesis_met" not in lattice_fields(2, 5)

    def test_not_always_tight(self):
        assert lattice_lower_bound(5, 13) == 4

    def test_grid_family_tight(self):
        assert lattice_lower_bound(4, 16) == 4

    def test_matches_scan(self):
        rng = random.Random(101)
        for _ in range(40):
            n = rng.randrange(2, 30)
            alpha = rng.randrange(1, n)
            assert lattice_lower_bound(alpha, n) == ceil_sqrt(scan_lambda2(alpha, n))


def bound_fields(fields):
    return fields["k"], fields["lower"], fields["lambda2"], fields["d"]


class TestCorollaryBound:
    """The bound for (1 + x^u, 1 + x^v) is the bound of its canonical alpha."""

    def test_u_one_is_identity(self):
        assert canonical_alpha(1, 5, 13) == 5
        assert pair_fields(1, 5, 13).items() <= lattice_fields(5, 13).items()

    def test_reduced_alpha(self):
        # u=3, v=1, n=10 reduces to alpha=7; lattice minimum is 10
        assert lattice_lower_bound(canonical_alpha(3, 1, 10), 10) == 4
        assert scan_lambda2(7, 10) == 10
        assert bound_fields(pair_fields(3, 1, 10)) == bound_fields(lattice_fields(7, 10))

    def test_swapped_generators_share_alpha(self):
        # u = 2 is not invertible mod 8, so the generators are swapped, which
        # mirrors the lattice and keeps every bound
        assert canonical_alpha(2, 3, 8) == canonical_alpha(3, 2, 8) == 6
        assert bound_fields(pair_fields(2, 3, 8)) == bound_fields(pair_fields(3, 2, 8)) == bound_fields(lattice_fields(6, 8))

    def test_small_n_bound_below_distance(self):
        # d = min-L1 >= ceil(lambda) at every n, not only n >= 6
        for n in range(2, 7):
            for alpha in range(1, n):
                assert lattice_lower_bound(alpha, n) <= determine(alpha, n).exact


class TestUpperBoundCertificate:
    @pytest.mark.parametrize("alpha,n,weight", [(2, 5, 3), (31, 74, 12), (4, 17, 5)])
    def test_table_weights(self, alpha, n, weight):
        edges = upper_bound_certificate(alpha, n, tuple(lattice_fields(alpha, n)["t_witness"]))
        assert len(edges) == weight == len(set(edges))

    def test_certificates_validate(self):
        rng = random.Random(103)
        for _ in range(25):
            n = rng.randrange(2, 26)
            alpha = rng.randrange(1, n)
            t = tuple(lattice_fields(alpha, n)["t_witness"])
            edges = upper_bound_certificate(alpha, n, t)
            code = build(canonical_spec(alpha, n))
            assert css.is_logical_x(code, sum(1 << i for i in edges))
            assert len(edges) == abs(t[0]) + abs(t[1])

    def test_never_exceeds_min_l1(self):
        rng = random.Random(107)
        for _ in range(25):
            n = rng.randrange(2, 30)
            alpha = rng.randrange(1, n)
            edges = upper_bound_certificate(alpha, n, tuple(lattice_fields(alpha, n)["t_witness"]))
            assert len(edges) == scan_min_l1(alpha, n)[0]

    @pytest.mark.parametrize("alpha,n,t", [(5, 10, (5, 3)), (2, 5, (10, 0)), (2, 5, (2, 4))],
                             ids=["long_edge_repeats", "unit_edge_repeats", "sum_of_faces"])
    def test_revalidation_rejects(self, alpha, n, t):
        # closed walks that are no weight-|t|_1 logical: at alpha = n / 2 two long steps return,
        # (2n, 0) runs round the cycle twice, and (2, 4) = 2 (1, 2) lies in 2L, a sum of faces
        with pytest.raises(RuntimeError, match=re.escape(f"staircase of {t} is not a weight-{sum(map(abs, t))} ")):
            upper_bound_certificate(alpha, n, t)


class TestParityRefinedLower:
    @pytest.mark.parametrize("alpha,n,value", [(5, 13, 5), (2, 5, 3), (3, 9, 3)])
    def test_examples(self, alpha, n, value):
        assert parity_refined_lower(alpha, n) == value

    def test_requires_interior_alpha(self):
        with pytest.raises(ValueError):
            parity_refined_lower(1, 9)
        with pytest.raises(ValueError):
            parity_refined_lower(8, 9)

    def test_never_below_theorem_bound(self):
        rng = random.Random(109)
        for _ in range(30):
            n = rng.randrange(4, 40)
            alpha = rng.randrange(2, n - 1)
            assert parity_refined_lower(alpha, n) >= lattice_lower_bound(alpha, n)

    def test_sound_against_oracle(self):
        # the refinement must never exceed the true distance where we can check it
        for n in range(6, 19):
            for alpha in range(2, n - 1):
                refined = parity_refined_lower(alpha, n)
                true_d = css.exhaustive_distance(build(canonical_spec(alpha, n)), "X")
                assert refined <= true_d


class TestDetermine:
    def test_small_sandwich(self):
        report = determine(2, 5)
        assert report.exact == 3
        assert report.method == "sandwich-closed"

    def test_theorem_closes_n50(self):
        report = determine(7, 50)
        assert report.exact == 8 == report.lower_bound

    # Pairs where the Euclidean bound stays below the distance.
    @pytest.mark.parametrize("alpha,n,lower,d", [(5, 13, 4, 5), (7, 25, 5, 7), (13, 34, 6, 8),
                                                 (12, 29, 6, 7), (11, 61, 8, 11)])
    def test_exact_above_euclidean_bound(self, alpha, n, lower, d):
        report = determine(alpha, n)
        assert (report.lower_bound, report.exact, report.upper_bound) == (lower, d, d)
        assert report.method == "sandwich-closed"
        h_x, h_z = gb_check_rows([0, 1], [0, alpha], n)
        assert graphlike_min_logical(h_x, h_z) == d == graphlike_min_logical(h_z, h_x)

    def test_bounds_ordered_and_certificate_valid(self):
        rng = random.Random(113)
        for _ in range(20):
            n = rng.randrange(2, 40)
            alpha = rng.randrange(1, n)
            report = determine(alpha, n)
            assert report.lower_bound <= report.exact == report.upper_bound
            assert len(report.certificate) == report.exact == scan_min_l1(alpha, n)[0]
            code = build(canonical_spec(alpha, n))
            assert css.is_logical_x(code, sum(1 << i for i in report.certificate))

    def test_deterministic(self):
        assert determine(12, 29) == determine(12, 29)

    def test_crossed_bounds_raise_for_every_caller(self, monkeypatch):
        # lattice_fields holds the check lower <= d, so determine and every sweep row keep it
        monkeypatch.setattr(distance, "ceil_sqrt", lambda m: 10**6)
        for call, args in [(lattice_fields, (18, 65)), (determine, (18, 65)), (analyze_length, (65,))]:
            with pytest.raises(RuntimeError, match="lower bound 1000000 exceeds certified upper 11 "):
                call(*args)

    def test_no_dense_algebra(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("determine reached the dense or parity path")

        monkeypatch.setattr(gbcode, "build", forbidden)
        monkeypatch.setattr(gbcode, "dimension_formula", forbidden)
        monkeypatch.setattr(css, "min_weight_logical", forbidden)
        monkeypatch.setattr(distance, "parity_refined_lower", forbidden)
        assert determine(22, 97).exact == 13

    def test_exact_matches_oracle_on_small_sweep(self):
        for n in range(6, 16):
            for alpha in range(2, n - 1):
                report = determine(alpha, n)
                assert report.exact == css.exhaustive_distance(build(canonical_spec(alpha, n)), "X")

    def test_exact_matches_graphlike_oracle_both_sides(self):
        for n in range(2, 31):
            for alpha in range(1, n):
                h_x, h_z = gb_check_rows([0, 1], [0, alpha], n)
                d = determine(alpha, n).exact
                assert graphlike_min_logical(h_x, h_z) == d == graphlike_min_logical(h_z, h_x), (alpha, n)
