"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines
as they happen).  Codes constructed along the way are registered so the final
structural criterion can recheck all of them.
"""

import math
import random
import time
from collections import Counter

import numpy as np

from gbcodex import css
from gbcodex.arithmetic import (
    is_admissible,
    kitaev_spec,
    optimized_kitaev_spec,
    sqrt_minus_one_all,
)
from gbcodex.catalog import sweep_catalog, verify_catalog, write_catalog
from gbcodex.distance import determine, lattice_lower_bound
from gbcodex.gbcode import (
    GbSpec,
    build,
    canonical_spec,
    canonicalize_w2,
    dimension_formula,
    weight2_exponents,
)
from gbcodex.gf2matrix import is_zero, mat_mul, transpose
from gbcodex.gf2poly import BinaryPolynomial, mul_mod, reduce_mod_xn
from gbcodex.lattice import ceil_sqrt, gb_lattice, min_l1, shortest_norm2

# (length, k, d) multiset the catalog sweep is required to reproduce.  It differs
# from the paper's table (21 codes) in three rows, all pinned exactly by the
# gbcodex-free oracle in test_catalog.py::test_graphlike_oracle_pins_disputed_rows:
# (122, 2, 11) replaces (122, 2, 10): n = 61 is the t = 5 rotated grid, d = 2t + 1 (criterion 6).
# (164, 2, 10) is added: n = 82 = 1 + 9^2 is admissible, and the sweep visits every such n.
# (130, 2, 11) replaces (130, 2, 9): at n = 65 the root alpha = 18 has d = 11, alpha = 8 only 9.
REQUIRED_TABLE = Counter(
    [
        (4, 2, 2), (10, 2, 3), (20, 2, 4), (26, 2, 5), (34, 2, 5), (52, 2, 6),
        (50, 2, 7), (58, 2, 7), (74, 2, 7), (68, 2, 8), (100, 2, 8),
        (82, 2, 9), (106, 2, 9), (130, 2, 11), (116, 2, 10), (122, 2, 11),
        (146, 2, 11), (148, 2, 12), (164, 2, 10), (170, 2, 13), (178, 2, 13),
        (194, 2, 13),
    ]
)

ORACLE_TABLE = {2: 2, 5: 3, 10: 4, 13: 5, 17: 5, 25: 7}

REGISTRY: list[tuple[GbSpec, object]] = []


def _register(spec: GbSpec, code) -> None:
    REGISTRY.append((spec, code))


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {name}{suffix}", flush=True)


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    records = sweep_catalog(200)
    elapsed = time.perf_counter() - start

    problems = []
    if elapsed >= 300:
        problems.append(f"sweep took {elapsed:.1f}s (budget 300s)")

    # every emitted distance must be an achieved, revalidated certificate
    for r in records:
        spec = canonical_spec(r["alpha"], r["n"])
        code = build(spec)
        _register(spec, code)
        bits = sum(1 << i for i in r["certificate"])
        if bits.bit_count() != r["d"] or not css.is_logical_x(code, bits):
            problems.append(f"entry n={r['n']}: certificate does not establish d={r['d']}")
        if r["d"] < ceil_sqrt(r["n"]):
            problems.append(f"entry n={r['n']}: d={r['d']} below ceil(sqrt(n))")

    got = Counter((r["length"], r["k"], r["d"]) for r in records)
    if len(records) != 22:
        problems.append(f"expected 22 entries, got {len(records)}")
    if got != REQUIRED_TABLE:
        missing = sorted((REQUIRED_TABLE - got).elements())
        extra = sorted((got - REQUIRED_TABLE).elements())
        problems.append(f"multiset mismatch: missing={missing} extra={extra}")

    _report(1, "table reproduction at max length 200", not problems, "; ".join(problems))
    assert not problems, "; ".join(problems)


def test_criterion_2_lower_bound_never_violated():
    start = time.perf_counter()
    violations = []
    for n in range(6, 21):
        for alpha in range(2, n - 1):
            spec = canonical_spec(alpha, n)
            code = build(spec)
            _register(spec, code)
            d = css.exhaustive_distance(code, "X")
            bound = lattice_lower_bound(alpha, n)
            if d < bound:
                violations.append((alpha, n, d, bound))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 120
    _report(2, "exhaustive distance >= ceil(lattice minimum) for 6 <= n <= 20",
            ok, f"{elapsed:.1f}s, {len(violations)} violations")
    assert not violations
    assert elapsed < 120


def test_criterion_3_lattice_minimum_divisibility():
    checked = 0
    for n in range(2, 10_001):
        if not is_admissible(n):
            continue
        for alpha in sqrt_minus_one_all(n):
            lam2 = shortest_norm2(gb_lattice(alpha, n))
            assert lam2 >= n, (n, alpha, lam2)
            assert lam2 % n == 0, (n, alpha, lam2)
            checked += 1
    _report(3, "shortest norm^2 >= n and divisible by n for all roots of -1",
            True, f"{checked} (n, alpha) pairs up to n=10^4")


def test_criterion_4_oracle_agreement_with_table():
    mismatches = []
    for n, d_expected in ORACLE_TABLE.items():
        alpha = min(min(a, n - a) for a in sqrt_minus_one_all(n))
        spec = canonical_spec(alpha, n)
        code = build(spec)
        _register(spec, code)
        d_x = css.exhaustive_distance(code, "X")
        d_z = css.exhaustive_distance(code, "Z")
        if d_x != d_expected or d_z != d_expected:
            mismatches.append((n, d_x, d_z, d_expected))
    _report(4, "oracle equals the table distance and d_X = d_Z on small entries",
            not mismatches, f"n in {sorted(ORACLE_TABLE)}")
    assert not mismatches, mismatches


def test_criterion_5_grid_family():
    failures = []
    for m in range(2, 8):
        spec = kitaev_spec(m)
        code = build(spec)
        _register(spec, code)
        n = m * m
        if css.dimension(code) != 2:
            failures.append(f"m={m}: k != 2")
        lat = gb_lattice(m, n)
        if ceil_sqrt(shortest_norm2(lat)) != m or min_l1(lat).value != m:
            failures.append(f"m={m}: sandwich does not pin d = m")
        report = determine(m, n)
        if report.exact != m or report.method != "sandwich-closed":
            failures.append(f"m={m}: report {report.method} exact={report.exact}")
        if m <= 4 and css.exhaustive_distance(code, "X") != m:
            failures.append(f"m={m}: oracle disagrees")
    _report(5, "square-grid family has exact d = m for m = 2..7", not failures, "; ".join(failures))
    assert not failures


def test_criterion_6_rotated_grid_family():
    failures = []
    for t in range(1, 7):
        d_expected = 2 * t + 1
        spec = optimized_kitaev_spec(t)
        code = build(spec)
        _register(spec, code)
        u, v = weight2_exponents(spec)
        alpha = canonicalize_w2(u, v, spec.n)
        report = determine(alpha, spec.n)
        if report.upper_bound != d_expected:
            failures.append(f"t={t}: certified distance {report.upper_bound} != {d_expected}")
        kernel_dim = spec.n + 1
        if kernel_dim <= 26:
            d_oracle = css.exhaustive_distance(build(canonical_spec(alpha, spec.n)), "X")
            if d_oracle != d_expected:
                failures.append(f"t={t}: oracle {d_oracle} != {d_expected}")
    _report(6, "rotated-grid family certifies d = 2t + 1 for t = 1..6", not failures, "; ".join(failures))
    assert not failures


def test_criterion_7_equivalence_transformations():
    rng = random.Random(2024)
    failures = 0

    def params(spec):
        code = build(spec)
        _register(spec, code)
        return (code.length, css.dimension(code), css.exhaustive_distance(code, "X", cap=24))

    for _ in range(200):
        n = rng.randrange(2, 19)
        r = rng.choice([x for x in range(1, n + 1) if math.gcd(x, n) == 1])
        s = rng.randrange(1, n) if n > 1 else 1
        before = GbSpec(
            reduce_mod_xn(BinaryPolynomial.from_support([0, r]), n),
            reduce_mod_xn(BinaryPolynomial.from_support([0, s]), n),
            n,
        )
        if params(before) != params(canonical_spec(canonicalize_w2(r, s, n), n)):
            failures += 1

    done = 0
    while done < 200:
        n = rng.randrange(2, 19)
        a = BinaryPolynomial.from_support(rng.sample(range(n), k=min(n, rng.randrange(1, 4))))
        b = BinaryPolynomial.from_support(rng.sample(range(n), k=min(n, rng.randrange(1, 4))))
        if a.is_zero or b.is_zero:
            continue
        spec = GbSpec(a, b, n)
        if n + dimension_formula(spec) // 2 > 22:
            continue
        i, j = rng.randrange(0, 2 * n), rng.randrange(0, 2 * n)
        shifted = GbSpec(
            mul_mod(a, BinaryPolynomial.x_power(i), n),
            mul_mod(b, BinaryPolynomial.x_power(j), n),
            n,
        )
        if params(spec) != params(shifted):
            failures += 1
        done += 1

    _report(7, "substitution and monomial-shift equivalences preserve parameters",
            failures == 0, f"{failures} failures over 400 trials")
    assert failures == 0


def test_criterion_8_root_enumeration_matches_scan():
    start = time.perf_counter()
    mismatches = 0
    for n in range(2, 10_001):
        a = np.arange(1, n, dtype=np.int64)
        scan = ((a * a) % n == n - 1)
        roots_scan = a[scan].tolist()
        admissible = is_admissible(n)
        if admissible != bool(roots_scan):
            mismatches += 1
            continue
        if admissible and sqrt_minus_one_all(n) != roots_scan:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30
    _report(8, "root sets and admissibility match brute-force scan to 10^4",
            ok, f"{elapsed:.1f}s, {mismatches} mismatches")
    assert mismatches == 0
    assert elapsed < 30


def test_criterion_9_structural_invariants(tmp_path):
    if not REGISTRY:  # criterion run in isolation
        for n, _ in ORACLE_TABLE.items():
            alpha = min(min(a, n - a) for a in sqrt_minus_one_all(n))
            spec = canonical_spec(alpha, n)
            _register(spec, build(spec))

    bad = 0
    for spec, code in REGISTRY:
        if not is_zero(mat_mul(code.h_x, transpose(code.h_z))):
            bad += 1
        if dimension_formula(spec) != css.dimension(code):
            bad += 1

    path = str(tmp_path / "acceptance.ndjson")
    write_catalog(path, sweep_catalog(200), 200)
    count, problems = verify_catalog(path)

    ok = bad == 0 and not problems and count > 0
    _report(9, "orthogonality, k agreement, and catalog verify round-trip",
            ok, f"{len(REGISTRY)} codes rechecked, {count} catalog records")
    assert bad == 0
    assert problems == []
