import csv
import json

import pytest

from gbcodex import arithmetic, catalog, css, distance, gbcode, gf2matrix
from gbcodex.arithmetic import is_admissible, sqrt_minus_one_all
from gbcodex.catalog import (
    CSV_COLUMNS,
    analyze_length,
    classify_family,
    lattice_fields,
    render_csv,
    render_json,
    strongest_root,
    sweep_catalog,
    verify_catalog,
    write_catalog,
)
from gbcodex.distance import determine
from gbcodex.gbcode import build, canonical_spec
from gbcodex.lattice import ceil_sqrt
from gbcodex.torus_graph import TorusGraph, edge_support
from oracle_utils import gb_check_rows, graphlike_min_logical, scan_min_l1, scan_roots_of_minus_one

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
    return {**lattice_fields(alpha, n, sqrt_minus_one_all(n)), "certificate": list(determine(alpha, n).certificate)}


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

    def test_one_determine_call_per_row(self, monkeypatch):
        calls = []

        def counted(alpha, n):
            calls.append((alpha, n))
            return determine(alpha, n)

        monkeypatch.setattr(catalog, "determine", counted)
        records = sweep_catalog(200)
        assert len(calls) == len(records) == 22
        assert sorted(calls) == sorted((r["alpha"], r["n"]) for r in records)

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

    def test_family_tags(self, records_200):
        tags = {r["n"]: r["tag"] for r in records_200}
        for n in (5, 13, 25, 41, 61, 85):
            assert tags[n] == "optimized-kitaev"
        assert tags[2] == "new" and tags[74] == "new"

    def test_classify_grid_family(self):
        assert classify_family(3, 9) == "kitaev"
        assert classify_family(6, 9) == "kitaev"  # mirror of 3
        assert classify_family(2, 9) == "new"


class TestSerialization:
    def test_lattice_fields_agree_with_determine(self, records_200):
        # a record takes every field but the certificate from the lattice, not from determine
        for d in records_200:
            r = determine(d["alpha"], d["n"])
            assert (d["n"], d["alpha"], d["length"], d["k"]) == (r.n, r.alpha, r.length, r.k)
            assert d["d"] == d["upper"] == d["exact"] == d["min_l1"] == r.upper_bound == r.exact
            assert (d["lower"], d["method"]) == (r.lower_bound, r.method)
            assert d["hypothesis_met"] == (d["n"] >= 6)
            assert d["certificate"] == list(r.certificate)

    def test_json_file_roundtrip(self, records_200, tmp_path):
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, records_200, 200)
        with open(path) as f:
            text = f.read()
        assert text == render_json(records_200, 200, 1)
        header = json.loads(text.splitlines()[0])
        assert header == {"schema": "gb-catalog", "version": 2, "max_length": 200, "seed": 1}
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
        rows[3]["d"] = rows[3]["upper"] = str(int(rows[3]["d"]) + 1)
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, CSV_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        count, problems = verify_catalog(path)
        assert count == 8
        assert problems == ["line 5: d 6 != recomputed 5", "line 5: upper 6 != recomputed 5"]

    def test_old_schema_version_rejected(self, tmp_path):
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(30), 30)
        with open(path) as f:
            lines = f.read().splitlines()
        lines[0] = lines[0].replace('"version":2', '"version":1')
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        count, problems = verify_catalog(path)
        assert problems == ["line 1: unexpected schema 'gb-catalog' version 1"]

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
        path = str(tmp_path / "catalog.csv")
        write_catalog(path, [record_at(8, 65)], 130, fmt="csv")
        with open(path) as f:
            assert f.read().splitlines()[1].startswith("130,2,9,65,8,")
        count, problems = verify_catalog(path)
        assert count == 1
        assert problems == ["line 2: alpha 8 is not the strongest root of -1 mod 65 (expected 18)"]

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
        ("hypothesis_met", False, "hypothesis_met false != recomputed true"),
        ("lambda2", 13.0, "lambda2 13.0 != recomputed 13"),
        ("note", "x", "unexpected key note"),
        ("tag", None, "missing key tag"),
    ], ids=["tag", "basis", "t_witness", "hypothesis_met", "float", "extra_key", "missing_key"])
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
        assert verify_catalog(path) == (8, [f"line 1: {problem}"])

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
                             (catalog, "determine"), (distance, "determine"), (TorusGraph, "is_sum_of_faces")]:
            monkeypatch.setattr(module, name, boom)
        assert verify_catalog(path) == (22, [])

    def test_boolean_certificate_indices_rejected(self, tmp_path):
        # [false, true] names the same edges as [0, 1] if booleans pass as integers
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(30), 30)

        def boolean_certificate(record):
            assert record["certificate"] == [0, 1]
            record["certificate"] = [False, True]

        assert edit_record(path, 2, boolean_certificate) == 2
        assert verify_catalog(path) == (4, ["line 2: certificate indices are not all integers"])

    def test_face_certificate_rejected(self, tmp_path):
        # a trivial cycle of the right weight must not pass as a logical operator
        path = str(tmp_path / "catalog.ndjson")
        write_catalog(path, sweep_catalog(60), 60)

        def face_certificate(record):
            assert (record["alpha"], record["d"]) == (3, 4)
            record["certificate"] = list(edge_support(TorusGraph(10, 3).face(0)))

        lineno = edit_record(path, 10, face_certificate)
        count, problems = verify_catalog(path)
        assert problems == [f"line {lineno}: certificate is not a logical operator"]

    def test_csv_extra_field_rejected(self, tmp_path):
        path = str(tmp_path / "catalog.csv")
        with open(path, "w") as f:
            f.write(",".join(CSV_COLUMNS) + "\n10,2,3,5,2,3,3,sandwich-closed,junk\n")
        assert verify_catalog(path) == (1, ["line 2: expected 8 fields, got 9"])

    def test_csv_short_row_rejected(self, tmp_path):
        path = str(tmp_path / "catalog.csv")
        with open(path, "w") as f:
            f.write(",".join(CSV_COLUMNS) + "\n10,2,3,5,2,3,3\n")
        assert verify_catalog(path) == (1, ["line 2: expected 8 fields, got 7"])

    def test_non_utf8_catalog_is_a_problem(self, tmp_path):
        path = str(tmp_path / "catalog.ndjson")
        with open(path, "wb") as f:
            f.write(b"\xff\xfe{}\n")
        count, problems = verify_catalog(path)
        assert count == 0
        assert problems == ["byte 0: not UTF-8 text (invalid start byte)"]

    def test_empty_catalog_is_zero_records(self, tmp_path):
        path = str(tmp_path / "empty.ndjson")
        write_catalog(path, [], 2)
        count, problems = verify_catalog(path)
        assert (count, problems) == (0, [])


class TestCertificatesRecheck:
    def test_certificates_reload_as_logical_operators(self, records_200):
        for r in records_200:
            code = build(canonical_spec(r["alpha"], r["n"]))
            assert css.is_logical_x(code, sum(1 << i for i in r["certificate"]))
