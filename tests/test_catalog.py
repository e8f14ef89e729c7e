import csv
import json
import math

import pytest

from gbcodex import arithmetic, catalog, cli, css, distance, gbcode, gf2matrix, lattice
from gbcodex.arithmetic import is_admissible, sqrt_minus_one_all
from gbcodex.catalog import (
    CSV_COLUMNS,
    analyze_length,
    render_csv,
    render_json,
    strongest_root,
    sweep_catalog,
    verify_catalog,
    write_catalog,
)
from gbcodex.distance import determine, lattice_fields, upper_bound_certificate
from gbcodex.gbcode import build, canonical_spec
from gbcodex.lattice import ceil_sqrt
from gbcodex.torus_graph import TorusGraph
from oracle_utils import (
    gb_check_rows,
    graphlike_min_logical,
    list_rank_gf2,
    scan_min_l1,
    scan_roots_of_minus_one,
)

# Best representative per circulant size, recomputed here from first
# principles: roots by scan, one representative per mirror pair, the pick
# maximizing the exact distance (ties to the smaller alpha), and the distance
# column equal to the certificate weight.
EXPECTED_200 = {
    2: (1, 2),
    5: (2, 3),
    10: (3, 4),
    13: (5, 5),
    17: (4, 5),
    25: (7, 7),
    26: (5, 6),
    29: (12, 7),
    34: (13, 8),
    37: (6, 7),
    41: (9, 9),
    50: (7, 8),
    53: (23, 9),
    58: (17, 10),
    61: (11, 11),
    65: (18, 11),
    73: (27, 11),
    74: (31, 12),
    82: (9, 10),
    85: (13, 13),
    89: (34, 13),
    97: (22, 13),
}


# The rows where the sweep differs from the paper's table (lengths 122, 130
# and 164), pinned on both sides by an exact oracle that shares no code with
# gbcodex.  At n = 65 the other root class, alpha = 8, has only d = 9.
@pytest.mark.parametrize("alpha,n,d", [(11, 61, 11), (9, 82, 10), (18, 65, 11)])
def test_graphlike_oracle_pins_disputed_rows(alpha, n, d):
    assert EXPECTED_200[n] == (alpha, d)
    h_x, h_z = gb_check_rows([0, 1], [0, alpha], n)
    assert graphlike_min_logical(h_x, h_z) == d
    assert graphlike_min_logical(h_z, h_x) == d


# The paper says [[20,2,4]], [[68,2,8]] and [[148,2,12]] surpass every known
# weight-4 GB code at d = 4, 8 and 12.  These codes are shorter at the same d,
# on both sides of the same library-free oracle; none is in the sweep, since
# -1 is not a square mod 8, 32 or 72.
@pytest.mark.parametrize("alpha,n,d,paper_n", [(3, 8, 4, 10), (7, 32, 8, 34), (11, 72, 12, 74)])
def test_shorter_codes_than_the_papers_surpassing_ones(alpha, n, d, paper_n):
    assert EXPECTED_200[paper_n][1] == d and n < paper_n and strongest_root(n) is None
    report = determine(alpha, n)
    assert (report.length, report.k, report.exact) == (2 * n, 2, d)
    h_x, h_z = gb_check_rows([0, 1], [0, alpha], n)
    assert 2 * n - list_rank_gf2(h_x) - list_rank_gf2(h_z) == 2
    assert graphlike_min_logical(h_x, h_z) == d == graphlike_min_logical(h_z, h_x)


def test_graphlike_oracle_pins_weaker_root_n65():
    h_x, h_z = gb_check_rows([0, 1], [0, 8], 65)
    assert graphlike_min_logical(h_x, h_z) == 9 == graphlike_min_logical(h_z, h_x)
    assert determine(8, 65).exact == 9


def edit_record(path, n, edit):
    """Apply edit to the JSON record for n in place; returns that record's line number."""
    with open(path) as f:
        lines = f.read().splitlines()
    idx = next(i for i, line in enumerate(lines[1:], start=1) if json.loads(line)["n"] == n)
    record = json.loads(lines[idx])
    edit(record)
    lines[idx] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return idx + 1


def record_at(alpha, n):
    """The self-consistent record of (alpha, n), whether or not alpha is n's strongest root."""
    certificate = list(determine(alpha, n).certificate)
    return {**lattice_fields(alpha, n), "alphas": sqrt_minus_one_all(n), "certificate": certificate}


@pytest.fixture(scope="module")
def records_200():
    return sweep_catalog(200)


class TestSweep:
    def test_tiny_sweeps(self):
        assert [(r["length"], r["k"], r["d"]) for r in sweep_catalog(10)] == [(4, 2, 2), (10, 2, 3)]
        assert sweep_catalog(2) == []

    def test_full_sweep_contents(self, records_200):
        got = {r["n"]: (r["alpha"], r["d"]) for r in records_200}
        assert got == EXPECTED_200

    def test_covers_exactly_the_admissible_sizes(self, records_200):
        expected_n = {
            n for n in range(2, 101) if is_admissible(n) and scan_roots_of_minus_one(n)
        }
        assert {r["n"] for r in records_200} == expected_n

    def test_sorted_by_distance_then_length(self, records_200):
        keys = [(r["d"], r["length"], r["alpha"]) for r in records_200]
        assert keys == sorted(keys)

    def test_distance_column_is_certificate_weight(self, records_200):
        for r in records_200:
            assert r["d"] == len(r["certificate"])
            assert r["d"] >= ceil_sqrt(r["n"])

    def test_independent_min_l1_recomputation(self, records_200):
        for r in records_200:
            value, _ = scan_min_l1(r["alpha"], r["n"])
            assert r["min_l1"] == value
            assert r["d"] <= value

    def test_alphas_field_lists_all_roots(self, records_200):
        for r in records_200:
            assert r["alphas"] == sqrt_minus_one_all(r["n"])

    def test_multi_class_sizes_pick_strongest_lower(self):
        # n = 65 has root classes {8, 18} with distances 9 and 11.
        assert analyze_length(65) == record_at(18, 65) and record_at(18, 65)["d"] == 11
        # n = 85 has classes {13, 38} with distances 13 and 11.
        assert analyze_length(85) == record_at(13, 85) and record_at(13, 85)["d"] == 13
        assert determine(38, 85).exact == 11
        assert (strongest_root(65), strongest_root(85)) == (18, 13)
        assert strongest_root(1) is None and strongest_root(3) is None

    def test_one_certificate_per_row(self, monkeypatch):
        # the certificate is the staircase of the row's own t_witness, revalidated once
        calls = []

        def counted(alpha, n, t):
            calls.append((alpha, n, list(t)))
            return upper_bound_certificate(alpha, n, t)

        monkeypatch.setattr(catalog, "upper_bound_certificate", counted)
        records = sweep_catalog(200)
        assert len(calls) == len(records) == 22
        assert sorted(calls) == sorted((r["alpha"], r["n"], r["t_witness"]) for r in records)

    def test_certificate_is_staircase_of_t_witness(self):
        records = sweep_catalog(1000)
        assert len(records) == 98
        for r in records:
            staircase = TorusGraph(r["n"], r["alpha"]).staircase(tuple(r["t_witness"]))
            assert r["certificate"] == [k for k in range(2 * r["n"]) if staircase >> k & 1], r["n"]

    def test_roots_sought_once_per_n(self, tmp_path, monkeypatch):
        scanned = []
        primitive_two_squares = arithmetic.primitive_two_squares

        def counted(n):
            scanned.append(n)
            return primitive_two_squares(n)

        monkeypatch.setattr(arithmetic, "primitive_two_squares", counted)
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(200), 200)
        assert scanned == list(range(1, 101))
        scanned.clear()
        assert verify_catalog(path) == (22, [])
        assert sorted(scanned) == list(range(2, 101))
        scanned.clear()
        analyze_length(65)
        assert scanned == [65]

    def test_one_reduction_per_lattice_fields(self, tmp_path, monkeypatch, capsys):
        # min_l1 and enumerate_short reuse the reduced basis, and every caller reads pair_fields
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(200), 200)
        reduced = []
        gauss_reduce = lattice.gauss_reduce

        def counted(lat):
            reduced.append(lat)
            return gauss_reduce(lat)

        def reductions(call, *args):
            reduced.clear()
            call(*args)
            return len(reduced)

        monkeypatch.setattr(lattice, "gauss_reduce", counted)
        monkeypatch.setattr(distance, "gauss_reduce", counted)
        fields = lattice_fields(18, 65)
        assert (fields["d"], fields["basis"], fields["t_witness"]) == (11, [[4, 7], [7, -4]], [-7, 4])
        assert reductions(lattice_fields, 18, 65) == 1
        assert reductions(determine, 18, 65) == 1
        assert reductions(analyze_length, 65) == 1
        assert reductions(verify_catalog, path) == 22  # one per verified row
        assert reductions(cli.main, ["bound", "--u", "3", "--v", "1", "--n", "10"]) == 1
        assert reductions(cli.main, ["construct", "--a", "1+x", "--b", "1+x^5", "--n", "13"]) == 1
        assert reductions(cli.main, ["bound", "--u", "2", "--v", "4", "--n", "8"]) == 1
        assert reductions(cli.main, ["construct", "--a", "1+x^2", "--b", "1+x^4", "--n", "8"]) == 1
        capsys.readouterr()

    def test_family_tags(self, records_200):
        tags = {r["n"]: r["tag"] for r in records_200}
        for n in (5, 13, 25, 41, 61, 85):
            assert tags[n] == "optimized-kitaev"
        assert tags[2] == "new" and tags[74] == "new"
        assert record_at(8, 65)["tag"] == "new"

    def test_tag_rule_matches_orbit_classification(self):
        def orbit_tag(alpha, n):
            # the tag as once decided from (alpha, n): the square grid alpha = +-m at n = m^2, or
            # the rotated grid alpha = +-(t + 1)/t at n = 2t^2 + 2t + 1
            orbit = {alpha % n, (n - alpha) % n}
            m = math.isqrt(n)
            if m * m == n and m % n in orbit:
                return "kitaev"
            t = (math.isqrt(2 * n - 1) - 1) // 2
            for cand in (t, t + 1):
                if cand >= 1 and 2 * cand * cand + 2 * cand + 1 == n:
                    if math.gcd(cand, n) == 1 and (cand + 1) * pow(cand, -1, n) % n in orbit:
                        return "optimized-kitaev"
            return "new"

        tags = []
        for n in range(2, 20001):
            alpha = strongest_root(n)
            if alpha is not None:
                fields = lattice_fields(alpha, n)
                assert fields["tag"] == orbit_tag(alpha, n), n
                # no row is a square grid: n = a^2 + b^2 = (a + b)^2 = d^2 forces ab = 0, i.e. n = 1
                assert fields["d"] ** 2 != n, n
                tags.append(fields["tag"])
        assert tags.count("optimized-kitaev") == 99  # t = 1..99


class TestSerialization:
    def test_lattice_fields_agree_with_determine(self, records_200):
        # a record takes every field but the certificate from the lattice, not from determine
        for d in records_200:
            r = determine(d["alpha"], d["n"])
            assert (d["n"], d["alpha"], d["length"], d["k"]) == (r.n, r.alpha, r.length, r.k)
            assert d["d"] == d["min_l1"] == r.upper_bound == r.exact
            assert (d["lower"], d["method"]) == (r.lower_bound, r.method)
            assert d["certificate"] == list(r.certificate)

    def test_each_fact_stored_once(self, records_200):
        # d is exact, so it is not repeated as upper or exact; the lower bound needs no n >= 6 flag
        keys = {"n", "alpha", "alphas", "length", "k", "d", "lower", "method", "certificate", "lambda2",
                "min_l1", "basis", "t_witness", "tag"}
        assert all(set(r) == keys for r in records_200)

    def test_json_file_roundtrip(self, records_200, tmp_path):
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, records_200, 200)
        with open(path) as f:
            text = f.read()
        assert text == render_json(records_200, 200, 1)
        header = json.loads(text.splitlines()[0])
        assert header == {"schema": "gb-catalog", "version": 3, "max_length": 200, "seed": 1}
        assert verify_catalog(path) == (22, [])

    def test_no_floats_persisted(self, records_200):
        text = render_json(records_200, 200, 1)
        for line in text.splitlines():
            def reject_floats(obj):
                if isinstance(obj, float):
                    raise AssertionError(f"float persisted: {obj}")
                return obj
            json.loads(line, parse_float=reject_floats)

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.ndjson"), str(tmp_path / "b.ndjson")
        for path in (a, b):
            write_catalog(path, sweep_catalog(60), 60)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_csv_and_json_agree_record_for_record(self, records_200):
        csv_lines = render_csv(records_200).splitlines()
        assert csv_lines[0] == ",".join(CSV_COLUMNS)
        assert len(csv_lines) == len(records_200) + 1
        for line, r in zip(csv_lines[1:], records_200):
            assert line == ",".join(str(r[c]) for c in CSV_COLUMNS)


class TestVerify:
    def test_fresh_sweep_verifies(self, tmp_path):
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(60), 60)
        count, problems = verify_catalog(path)
        assert problems == []
        assert count == 8  # n in {2, 5, 10, 13, 17, 25, 26, 29}

    def test_fresh_csv_verifies(self, tmp_path):
        path = str(tmp_path / "catalog.csv")
        write_catalog(path, sweep_catalog(60), 60, fmt="csv")
        count, problems = verify_catalog(path)
        assert problems == [] and count == 8

    def test_csv_distance_raised_by_one_rejected(self, tmp_path):
        path = str(tmp_path / "catalog.csv")
        write_catalog(path, sweep_catalog(60), 60, fmt="csv")
        with open(path) as f:
            rows = list(csv.DictReader(f))
        rows[3]["d"] = str(int(rows[3]["d"]) + 1)
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, CSV_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        count, problems = verify_catalog(path)
        assert count == 8
        assert problems == ["line 5: d 6 != recomputed 5"]

    def test_old_schema_version_rejected(self, tmp_path, monkeypatch):
        # a version-2 file: its header names version 2 and its records repeat d as upper and exact
        records = [{**r, "upper": r["d"], "exact": r["d"], "hypothesis_met": r["n"] >= 6} for r in sweep_catalog(30)]
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, records, 30)
        with open(path) as f:
            lines = f.read().splitlines()
        lines[0] = lines[0].replace('"version":3', '"version":2')
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")

        def boom(*args, **kwargs):
            raise AssertionError("a row was derived under a rejected header")

        # the header alone says what is wrong, so no row is derived
        monkeypatch.setattr(catalog, "lattice_fields", boom)
        assert verify_catalog(path) == (0, ["line 1: unexpected schema 'gb-catalog' version 2"])

    def test_old_csv_columns_rejected(self, tmp_path):
        path = str(tmp_path / "catalog.csv")
        with open(path, "w") as f:
            f.write("length,k,d,n,alpha,lower,upper,method\n10,2,3,5,2,3,3,sandwich-closed\n")
        assert verify_catalog(path) == (
            0, ["line 1: unexpected CSV columns ['length', 'k', 'd', 'n', 'alpha', 'lower', 'upper', 'method']"])

    def test_tampered_certificate_detected(self, tmp_path):
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(30), 30)
        with open(path) as f:
            lines = f.read().splitlines()
        record = json.loads(lines[2])
        record["certificate"][0] ^= 1  # flip one certificate bit
        lines[2] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        count, problems = verify_catalog(path)
        assert any("line 3" in p for p in problems)

    def test_corrupt_json_named_by_line(self, tmp_path):
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(30), 30)
        with open(path, "a") as f:
            f.write("{not json\n")
        count, problems = verify_catalog(path)
        assert any("corrupt JSON" in p for p in problems)

    @pytest.mark.parametrize("value,reason", [
        ("[" * 10**5 + "]" * 10**5, "recursion"),
        ("9" * 5000, "4300 digits"),
    ], ids=["deep_nesting", "long_integer"])
    @pytest.mark.parametrize("lineno", [1, 6], ids=["header", "record"])
    def test_undecodable_json_named_by_line(self, tmp_path, value, reason, lineno):
        # lines json.loads rejects with RecursionError or a plain ValueError, not JSONDecodeError
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(30), 30)
        with open(path) as f:
            lines = f.read().splitlines()
        lines[lineno - 1:lineno] = ['{"n":' + value + "}"]
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        count, problems = verify_catalog(path)
        assert count == (0 if lineno == 1 else len(lines) - 1) and len(problems) == 1
        assert problems[0].startswith(f"line {lineno}: corrupt JSON (") and reason in problems[0]

    def test_weaker_root_json_rejected(self, tmp_path):
        # the full length-130 catalog with the n = 65 row taken at the weaker
        # root class alpha = 8 (a self-consistent record with d = 9, not 11)
        records = [record_at(8, 65) if r["n"] == 65 else r for r in sweep_catalog(130)]
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, records, 130)
        lineno = 2 + [r["n"] for r in records].index(65)
        assert verify_catalog(path) == (
            16, [f"line {lineno}: alpha 8 is not the strongest root of -1 mod 65 (expected 18)"])

    def test_weaker_root_csv_rejected(self, tmp_path):
        # the full length-130 export, as in the JSON twin: a CSV must be complete,
        # so a lone n = 65 row would be reported only as the missing row for n = 2
        records = [record_at(8, 65) if r["n"] == 65 else r for r in sweep_catalog(130)]
        path = str(tmp_path / "catalog.csv")
        write_catalog(path, records, 130, fmt="csv")
        lineno = 2 + [r["n"] for r in records].index(65)
        with open(path) as f:
            assert f.read().splitlines()[lineno - 1].startswith("130,2,9,65,8,")
        assert verify_catalog(path) == (
            16, [f"line {lineno}: alpha 8 is not the strongest root of -1 mod 65 (expected 18)"])

    def test_missing_root_in_alphas_rejected(self, tmp_path):
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(30), 30)

        def drop_root(record):
            assert record["alphas"] == [2, 3]
            record["alphas"] = [2]

        assert edit_record(path, 5, drop_root) == 3
        count, problems = verify_catalog(path)
        assert problems == ["line 3: alphas [2] != recomputed [2,3]"]

    # n = 13 is line 5 of the length-60 catalog:
    # alpha 5, basis [[2,-3],[3,2]], t_witness [-3,-2], tag optimized-kitaev.
    @pytest.mark.parametrize("key,value,problem", [
        ("tag", "new", 'tag "new" != recomputed "optimized-kitaev"'),
        ("basis", [[3, 2], [2, -3]], "basis [[3,2],[2,-3]] != recomputed [[2,-3],[3,2]]"),
        ("t_witness", [3, 2], "t_witness [3,2] != recomputed [-3,-2]"),
        ("hypothesis_met", True, "unexpected key hypothesis_met"),
        ("upper", 5, "unexpected key upper"),
        ("exact", 5, "unexpected key exact"),
        ("lambda2", 13.0, "lambda2 13.0 != recomputed 13"),
        ("note", "x", "unexpected key note"),
        ("tag", None, "missing key tag"),
    ], ids=["tag", "basis", "t_witness", "hypothesis_met", "upper", "exact", "float", "extra_key", "missing_key"])
    def test_tampered_json_field_rejected(self, tmp_path, key, value, problem):
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(60), 60)

        def tamper(record):
            if value is None:
                del record[key]
            else:
                record[key] = value

        assert edit_record(path, 13, tamper) == 5
        assert verify_catalog(path) == (8, [f"line 5: {problem}"])

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_duplicate_row_rejected(self, tmp_path, fmt):
        path = str(tmp_path / f"catalog.{fmt}")
        write_catalog(path, sweep_catalog(60), 60, fmt=fmt)
        with open(path) as f:
            lines = f.read().splitlines()
        with open(path, "a") as f:
            f.write(lines[4] + "\n")  # the row for n = 13 again
        assert verify_catalog(path) == (9, ["line 10: duplicate row for n = 13"])

    # the length-60 catalog holds n in {2, 5, 10, 13, 17, 25, 26, 29}; n = 29 is its last row
    @pytest.mark.parametrize("n", [13, 29], ids=["middle_row", "last_row"])
    def test_missing_json_row_rejected(self, tmp_path, n):
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, [r for r in sweep_catalog(60) if r["n"] != n], 60)
        assert verify_catalog(path) == (7, [f"missing row for n = {n}"])

    def test_missing_csv_row_rejected(self, tmp_path):
        # a CSV export has no header bound: it must hold every admissible n up to its largest
        path = str(tmp_path / "catalog.csv")
        write_catalog(path, [r for r in sweep_catalog(60) if r["n"] != 13], 60, fmt="csv")
        assert verify_catalog(path) == (7, ["missing row for n = 13"])

    @pytest.mark.parametrize("fmt,n", [("json", 10**18 + 9), ("csv", 100000000000097)])
    def test_rows_past_first_gap_not_derived(self, tmp_path, monkeypatch, fmt, n):
        # one row at a huge n costs nothing: the gap at n = 2 is found first
        path = str(tmp_path / f"catalog.{fmt}")
        write_catalog(path, [], 10**30, fmt=fmt)
        with open(path, "a") as f:
            f.write(f'{{"alpha":5,"n":{n}}}\n' if fmt == "json" else f"{2 * n},2,0,{n},5,0,x\n")
        primitive_two_squares = arithmetic.primitive_two_squares

        def guarded(m):
            assert m < 100, f"scanned n = {m} past the first gap"
            return primitive_two_squares(m)

        monkeypatch.setattr(arithmetic, "primitive_two_squares", guarded)
        assert verify_catalog(path) == (1, ["missing row for n = 2"])

    def test_missing_row_scan_stops_at_first_gap(self, tmp_path, monkeypatch):
        # a huge max_length costs nothing: the scan stops at n = 2, the first admissible n
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, [], 10**12)
        calls = []

        def counted(n):
            calls.append(n)
            return is_admissible(n)

        monkeypatch.setattr(arithmetic, "is_admissible", counted)
        assert verify_catalog(path) == (0, ["missing row for n = 2"])
        assert calls == [2]

    @pytest.mark.parametrize("edit,problem", [
        (lambda h: h.update(note="x"), "unexpected key note"),
        (lambda h: h.pop("seed"), "missing key seed"),
        (lambda h: h.update(seed="abc"), "seed 'abc' is not an integer"),
    ], ids=["extra_key", "missing_seed", "string_seed"])
    def test_tampered_json_header_rejected(self, tmp_path, edit, problem):
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(60), 60)
        with open(path) as f:
            lines = f.read().splitlines()
        header = json.loads(lines[0])
        edit(header)
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        assert verify_catalog(path) == (0, [f"line 1: {problem}"])

    def test_negative_header_max_length_rejected(self, tmp_path):
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, [], -5)
        assert verify_catalog(path) == (0, ["line 1: max_length -5 is not a nonnegative integer"])

    def test_rows_beyond_max_length_rejected_unfactored(self, tmp_path, monkeypatch):
        records = sweep_catalog(60)
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, records, 10)
        primitive_two_squares = arithmetic.primitive_two_squares

        def guarded(n):
            assert 2 * n <= 10, f"scanned n = {n} beyond the header's max_length"
            return primitive_two_squares(n)

        monkeypatch.setattr(arithmetic, "primitive_two_squares", guarded)
        count, problems = verify_catalog(path)
        assert count == 8
        assert problems == [f"line {i}: length {r['length']} exceeds the header's max_length 10"
                            for i, r in enumerate(records, start=2) if r["length"] > 10]
        assert len(problems) == 6

    def test_verify_uses_no_dense_algebra(self, tmp_path, monkeypatch):
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(200), 200)

        def boom(*args, **kwargs):
            raise AssertionError("dense GF(2) algebra called during verify")

        for module, name in [(gbcode, "build"), (gbcode, "dimension_formula"), (css, "dimension"),
                             (css, "is_logical_x"), (gf2matrix, "rref"), (gf2matrix, "transpose"),
                             (catalog, "upper_bound_certificate"), (distance, "upper_bound_certificate"),
                             (distance, "determine"), (TorusGraph, "is_sum_of_faces")]:
            monkeypatch.setattr(module, name, boom)
        assert verify_catalog(path) == (22, [])

    def test_verify_derives_rows_with_analyze_length(self, tmp_path, monkeypatch):
        # verify's expected row is the writer's own derivation, once per stored n up to the first gap
        records = sweep_catalog(200)
        csv_path, json_path = str(tmp_path / "catalog.csv"), str(tmp_path / "catalog.ndjson")
        write_catalog(csv_path, records, 200, fmt="csv")
        write_catalog(json_path, records, 200)
        derived = []

        def counted(n):
            derived.append(n)
            return analyze_length(n)

        monkeypatch.setattr(catalog, "analyze_length", counted)
        for path in (csv_path, json_path):
            derived.clear()
            assert verify_catalog(path) == (22, [])
            assert sorted(derived) == sorted(r["n"] for r in records) and len(derived) == 22
        write_catalog(json_path, [r for r in records if r["n"] != 50], 200)
        derived.clear()
        assert verify_catalog(json_path) == (21, ["missing row for n = 50"])
        assert sorted(derived) == sorted(r["n"] for r in records if r["n"] < 50)

    def test_verify_builds_no_edge_set(self, tmp_path, monkeypatch):
        # verify lists each certificate from its t_witness and checks it by arithmetic,
        # so no 2n-bit edge set is built or tested against the faces
        csv_path, json_path = str(tmp_path / "catalog.csv"), str(tmp_path / "catalog.ndjson")
        write_catalog(csv_path, sweep_catalog(200), 200, fmt="csv")
        write_catalog(json_path, sweep_catalog(200), 200)

        def boom(*args, **kwargs):
            raise AssertionError("edge set built during verify")

        for name in ["staircase", "face", "is_sum_of_faces"]:
            monkeypatch.setattr(TorusGraph, name, boom)
        assert verify_catalog(csv_path) == (22, [])
        assert verify_catalog(json_path) == (22, [])
        lineno = edit_record(json_path, 26, lambda record: record.update(certificate=[0, 1, 2, 3, 4, 26]))
        assert verify_catalog(json_path) == (
            22, [f"line {lineno}: certificate [0,1,2,3,4,26] != recomputed [21,22,23,24,25,47]"])

    def test_boolean_certificate_indices_rejected(self, tmp_path):
        # [false, true] names the same edges as [0, 1] if booleans pass as integers
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(30), 30)

        def boolean_certificate(record):
            assert record["certificate"] == [0, 1]
            record["certificate"] = [False, True]

        assert edit_record(path, 2, boolean_certificate) == 2
        assert verify_catalog(path) == (4, ["line 2: certificate [false,true] != recomputed [0,1]"])

    def test_face_certificate_rejected(self, tmp_path):
        # a trivial cycle of the right weight must not pass as a logical operator
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(60), 60)

        def face_certificate(record):
            assert (record["alpha"], record["d"]) == (3, 4)
            face = TorusGraph(10, 3).face(0)
            record["certificate"] = [k for k in range(20) if face >> k & 1]

        lineno = edit_record(path, 10, face_certificate)
        count, problems = verify_catalog(path)
        assert problems == [f"line {lineno}: certificate [0,3,10,11] != recomputed [7,8,9,17]"]

    def test_other_minimal_logical_rejected(self, tmp_path):
        # the staircase of -t_witness is a weight-d logical too, but not the writer's certificate
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(200), 200)

        def negated_staircase(record):
            assert (record["alpha"], record["t_witness"]) == (5, [-5, 1])
            assert record["certificate"] == [21, 22, 23, 24, 25, 47]
            record["certificate"] = [0, 1, 2, 3, 4, 26]
            assert css.is_logical_x(build(canonical_spec(5, 26)), sum(1 << i for i in record["certificate"]))

        lineno = edit_record(path, 26, negated_staircase)
        assert verify_catalog(path) == (
            22, [f"line {lineno}: certificate [0,1,2,3,4,26] != recomputed [21,22,23,24,25,47]"])

    @pytest.mark.parametrize("edit", [
        lambda cert: [cert[0] ^ 1, *cert[1:]],
        lambda cert: [False, True],
        lambda cert: [float(i) for i in cert],
        lambda cert: [str(i) for i in cert],
        lambda cert: None,
        lambda cert: {"edges": cert},
        lambda cert: cert[::-1],
        lambda cert: [*cert, cert[-1]],
        lambda cert: cert[:-1],
        lambda cert: sorted({*cert, 0}),
        lambda cert: [-1, *cert[1:]],
        lambda cert: [*cert[:-1], 52],
        lambda cert: [*cert[:-1], 10**30],
        lambda cert: [k for k in range(52) if TorusGraph(26, 5).face(0) >> k & 1],
        lambda cert: list(TorusGraph(26, 5).staircase_edges((5, -1))),
    ], ids=["bit_flip", "booleans", "floats", "strings", "null", "not_a_list", "unsorted", "repeated_edge",
            "dropped_edge", "extra_edge", "minus_one", "two_n", "ten_to_the_30", "face", "negated_witness"])
    def test_tampered_certificate_is_one_problem(self, tmp_path, records_200, edit):
        # the stored list is only compared with the recomputed staircase, never read as edges,
        # so an index of 10^30 returns at once (a shift by it would raise, as a malformed record)
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, records_200, 200)
        written = next(r["certificate"] for r in records_200 if r["n"] == 26)
        assert written == [21, 22, 23, 24, 25, 47]
        tampered = edit(written)
        assert catalog._dump(tampered) != catalog._dump(written)

        def tamper(record):
            record["certificate"] = tampered

        lineno = edit_record(path, 26, tamper)
        assert verify_catalog(path) == (
            22, [f"line {lineno}: certificate {catalog._dump(tampered)} != recomputed [21,22,23,24,25,47]"])

    def test_recomputed_staircase_is_checked_on_its_own(self, tmp_path, monkeypatch):
        # a derivation whose witness lies in 2L: its staircase has weight 2d and is a sum of
        # faces, so a row storing exactly that derivation still fails on the torus graph
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(200), 200)
        doubled = (-10, 2)  # 2 * t_witness of n = 26

        def doubled_witness(record):
            assert (record["alpha"], record["d"], record["t_witness"]) == (5, 6, [-5, 1])
            record["t_witness"] = list(doubled)
            record["certificate"] = list(TorusGraph(26, 5).staircase_edges(doubled))

        lineno = edit_record(path, 26, doubled_witness)

        def derived(alpha, n):
            fields = lattice_fields(alpha, n)
            return {**fields, "t_witness": list(doubled)} if n == 26 else fields

        monkeypatch.setattr(catalog, "lattice_fields", derived)
        assert verify_catalog(path) == (
            22, [f"line {lineno}: certificate weight 12 != d 6", f"line {lineno}: certificate is not a logical operator"])

    def test_recomputed_certificate_with_a_repeated_edge_is_rejected(self, tmp_path, monkeypatch):
        # a derivation whose witness walks round the unit cycle past its start: 48 listed edges
        # for d = 48, t not in 2L, but 21 unit edges twice, so it is no weight-d logical
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(200), 200)
        wound = (47, 1)
        listed = list(TorusGraph(26, 5).staircase_edges(wound))
        assert len(listed) == 48 and len(set(listed)) == 27

        def wound_witness(record):
            assert (record["alpha"], record["d"]) == (5, 6)
            record.update(t_witness=list(wound), d=48, certificate=listed)

        lineno = edit_record(path, 26, wound_witness)

        def derived(alpha, n):
            fields = lattice_fields(alpha, n)
            return {**fields, "t_witness": list(wound), "d": 48} if n == 26 else fields

        monkeypatch.setattr(catalog, "lattice_fields", derived)
        assert verify_catalog(path) == (22, [f"line {lineno}: certificate repeats an edge"])

    def test_csv_extra_field_rejected(self, tmp_path):
        path = str(tmp_path / "catalog.csv")
        with open(path, "w") as f:
            f.write(",".join(CSV_COLUMNS) + "\n10,2,3,5,2,3,sandwich-closed,junk\n")
        assert verify_catalog(path) == (1, ["line 2: expected 7 fields, got 8"])

    def test_csv_short_row_rejected(self, tmp_path):
        path = str(tmp_path / "catalog.csv")
        with open(path, "w") as f:
            f.write(",".join(CSV_COLUMNS) + "\n10,2,3,5,2,3\n")
        assert verify_catalog(path) == (1, ["line 2: expected 7 fields, got 6"])

    @pytest.mark.parametrize("rows,expected", [
        (['"10', '",2,3,5,2,3,sandwich-closed'],
         (2, ["line 2: expected 7 fields, got 1", "line 2: not the writer's CSV", "line 3: expected 7 fields, got 1"])),
        (['"10,2",3,5,2,3,sandwich-closed'], (1, ["line 2: expected 7 fields, got 6"])),
    ], ids=["quoted_line_break", "quoted_comma"])
    def test_csv_line_parsed_on_its_own(self, tmp_path, rows, expected):
        # a quoted field never spans two lines, and a quoted comma splits no field
        path = str(tmp_path / "catalog.csv")
        with open(path, "w") as f:
            f.write("\n".join([",".join(CSV_COLUMNS), *rows]) + "\n")
        assert verify_catalog(path) == expected

    @pytest.mark.parametrize("lineno", [1, 2], ids=["header", "record"])
    def test_csv_field_over_reader_limit_named_by_line(self, tmp_path, lineno):
        # the csv module rejects a field longer than csv.field_size_limit() (131072)
        path = str(tmp_path / "catalog.csv")
        lines = [",".join(CSV_COLUMNS), "10,2,3,5,2,3,sandwich-closed"]
        lines[lineno - 1] = "10," + "9" * 200_000
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        count, problems = verify_catalog(path)
        assert problems == [f"line {lineno}: corrupt CSV (field larger than field limit (131072))"]

    def test_non_utf8_catalog_is_a_problem(self, tmp_path):
        path = str(tmp_path / "catalog.ndjson")
        with open(path, "wb") as f:
            f.write(b"\xff\xfe{}\n")
        count, problems = verify_catalog(path)
        assert count == 0
        assert problems == ["byte 0: not UTF-8 text (invalid start byte)"]

    def test_zero_byte_catalog_has_no_header(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_bytes(b"")
        assert verify_catalog(str(path)) == (0, ["line 1: empty file, no header"])

    def test_empty_catalog_is_zero_records(self, tmp_path):
        path = str(tmp_path / "empty.ndjson")
        write_catalog(path, [], 2)
        count, problems = verify_catalog(path)
        assert (count, problems) == (0, [])


def _spaced(line):
    return json.dumps(json.loads(line), sort_keys=True)


def _keys_reversed(line):
    record = json.loads(line)
    return json.dumps(dict(reversed(sorted(record.items()))), separators=(",", ":"))


def _quoted(line):
    return ",".join(f'"{field}"' for field in line.split(","))


class TestVerifyWriterBytes:
    """Edits of the length-200 catalog that keep every value: each is one named problem."""

    ENDING = "line 1: line ends in '\\r\\n', not a lone LF"

    @pytest.mark.parametrize("fmt,edit,problem", [
        ("json", lambda ls: ls[:1] + [_spaced(line) for line in ls[1:]],
         "line 2: not the writer's JSON (compact, keys sorted)"),
        ("json", lambda ls: [_keys_reversed(line) for line in ls],
         "line 1: not the writer's JSON (compact, keys sorted)"),
        ("json", lambda ls: ls[:1] + ls[:0:-1], "line 3: row out of the writer's (d, length, alpha) order"),
        ("json", lambda ls: ls[:5] + [""] + ls[5:], "line 6: blank line"),
        ("json", lambda ls: [line + "\r" for line in ls], ENDING),
        ("csv", lambda ls: ls[:1] + [_quoted(line) for line in ls[1:]], "line 2: not the writer's CSV"),
        ("csv", lambda ls: ls[:1] + ls[:0:-1], "line 3: row out of the writer's (d, length, alpha) order"),
        ("csv", lambda ls: ls[:5] + [""] + ls[5:], "line 6: blank line"),
        ("csv", lambda ls: [line + "\r" for line in ls], ENDING),
    ], ids=["json_spaced", "json_keys_reversed", "json_rows_reversed", "json_blank_line", "json_crlf",
            "csv_quoted", "csv_rows_reversed", "csv_blank_line", "csv_crlf"])
    def test_one_named_problem(self, tmp_path, fmt, edit, problem):
        path = str(tmp_path / f"catalog.{fmt}")
        write_catalog(path, sweep_catalog(200), 200, fmt=fmt)
        with open(path) as f:
            lines = f.read().splitlines()
        with open(path, "w", newline="") as f:
            f.write("\n".join(edit(lines)) + "\n")
        assert verify_catalog(path) == (22, [problem])

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_missing_final_newline(self, tmp_path, fmt):
        path = str(tmp_path / f"catalog.{fmt}")
        write_catalog(path, sweep_catalog(60), 60, fmt=fmt)
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(text[:-1])
        assert verify_catalog(path) == (8, ["line 9: line ends in '', not a lone LF"])

    def test_each_rule_reported_at_its_first_break(self, tmp_path):
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(60), 60)
        with open(path) as f:
            lines = f.read().splitlines()
        lines[3], lines[6] = _spaced(lines[3]), _spaced(lines[6])
        with open(path, "w", newline="") as f:
            f.write("\r\n".join(lines[:5]) + "\n\n" + "\n".join(lines[5:]) + "\n\n")
        assert verify_catalog(path) == (8, [
            "line 1: line ends in '\\r\\n', not a lone LF",
            "line 4: not the writer's JSON (compact, keys sorted)",
            "line 6: blank line",
        ])

    def test_order_checked_on_clean_rows_only(self, tmp_path):
        # a raised d is that row's one problem; its neighbours still sort in order
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(60), 60)
        assert edit_record(path, 13, lambda r: r.update(d=9)) == 5
        assert verify_catalog(path) == (8, ["line 5: d 9 != recomputed 5"])


class TestCertificatesRecheck:
    def test_certificates_reload_as_logical_operators(self, records_200):
        for r in records_200:
            code = build(canonical_spec(r["alpha"], r["n"]))
            assert css.is_logical_x(code, sum(1 << i for i in r["certificate"]))
