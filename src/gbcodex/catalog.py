"""Catalog sweep over admissible lengths, persistence, and re-verification.

The sweep visits every admissible n with 2n <= max_length, takes one
representative per mirror pair of square roots of -1, determines each exact
distance (min-L1 of the attached lattice), and keeps the largest per n (ties
broken toward the smaller alpha).  Entries serialize to newline-delimited
JSON (full records, round-trippable) or to a flat CSV export; every numeric
field is an exact integer.  The JSON header records max_length and a seed,
which is only a label: nothing in the sweep depends on it.  ``verify``
recomputes the roots of -1 and min-L1 for every record of either format,
requires the stored alpha to be the strongest root class, and rechecks each
JSON record's k by the gcd formula and its certificate on the torus graph
(zero boundary, odd overlap with a dual logical), with no dense algebra.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

from . import arithmetic, gbcode
from .distance import DistanceReport, determine
from .lattice import Vec, ceil_sqrt, gauss_reduce, gb_lattice, min_l1, shortest_norm2
from .torus_graph import EdgeVector, TorusGraph

SCHEMA_NAME = "gb-catalog"
SCHEMA_VERSION = 2

TAG_KITAEV = "kitaev"
TAG_OPTIMIZED = "optimized-kitaev"
TAG_NEW = "new"

CSV_COLUMNS = ["length", "k", "d", "n", "alpha", "lower", "upper", "method"]


@dataclass(frozen=True)
class CatalogEntry:
    n: int
    alpha: int
    alphas: tuple[int, ...]
    report: DistanceReport
    lambda2: int
    min_l1: int
    basis: tuple[Vec, Vec]
    t_witness: Vec
    tag: str

    @property
    def length(self) -> int:
        return 2 * self.n

    @property
    def k(self) -> int:
        return self.report.k

    @property
    def d(self) -> int:
        """The exact distance: the certificate weight, equal to min-L1."""
        return self.report.upper_bound


def classify_family(alpha: int, n: int) -> str:
    """Tag an (alpha, n) pair as grid-family, rotated-grid-family, or new.

    The orbit {alpha, n - alpha} collects the mirror symmetry; for roots of
    -1 the modular inverse coincides with the mirror.
    """
    orbit = {alpha % n, (n - alpha) % n}
    m = math.isqrt(n)
    if m * m == n and m % n in orbit:
        return TAG_KITAEV
    # n = 2t^2 + 2t + 1 has the rotated-grid representative (t+1)/t mod n.
    t = (math.isqrt(2 * n - 1) - 1) // 2
    for cand in (t, t + 1):
        if cand >= 1 and 2 * cand * cand + 2 * cand + 1 == n:
            if math.gcd(cand, n) == 1 and (cand + 1) * pow(cand, -1, n) % n in orbit:
                return TAG_OPTIMIZED
    return TAG_NEW


def analyze_length(n: int) -> CatalogEntry | None:
    """Best catalog entry for one admissible n, or None when no root exists."""
    roots = arithmetic.sqrt_minus_one_all(n)
    if not roots:
        return None
    classes = sorted({min(a, n - a) for a in roots})
    reports = [determine(alpha, n) for alpha in classes]
    best = max(reports, key=lambda r: (r.exact, -r.alpha))
    lat = gb_lattice(best.alpha, n)
    reduced = gauss_reduce(lat)
    l1 = min_l1(lat)
    return CatalogEntry(
        n=n,
        alpha=best.alpha,
        alphas=tuple(roots),
        report=best,
        lambda2=shortest_norm2(lat),
        min_l1=l1.value,
        basis=(reduced.b1, reduced.b2),
        t_witness=l1.witness,
        tag=classify_family(best.alpha, n),
    )


def sweep_catalog(max_length: int) -> list[CatalogEntry]:
    """All best-per-n entries with 2n <= max_length, sorted by (d, length, alpha)."""
    results = (analyze_length(n) for n in range(1, max_length // 2 + 1) if arithmetic.is_admissible(n))
    return sorted((e for e in results if e is not None), key=lambda e: (e.d, e.length, e.alpha))


def entry_to_dict(entry: CatalogEntry) -> dict:
    r = entry.report
    return {
        "n": entry.n,
        "alpha": entry.alpha,
        "alphas": list(entry.alphas),
        "length": entry.length,
        "k": r.k,
        "d": entry.d,
        "lower": r.lower_bound,
        "hypothesis_met": r.hypothesis_met,
        "upper": r.upper_bound,
        "exact": r.exact,
        "method": r.method,
        "certificate": list(r.certificate),
        "lambda2": entry.lambda2,
        "min_l1": entry.min_l1,
        "basis": [list(entry.basis[0]), list(entry.basis[1])],
        "t_witness": list(entry.t_witness),
        "tag": entry.tag,
    }


def entry_from_dict(data: dict) -> CatalogEntry:
    report = DistanceReport(
        n=data["n"],
        alpha=data["alpha"],
        k=data["k"],
        lower_bound=data["lower"],
        hypothesis_met=data["hypothesis_met"],
        upper_bound=data["upper"],
        certificate=tuple(data["certificate"]),
    )
    return CatalogEntry(
        n=data["n"],
        alpha=data["alpha"],
        alphas=tuple(data["alphas"]),
        report=report,
        lambda2=data["lambda2"],
        min_l1=data["min_l1"],
        basis=(tuple(data["basis"][0]), tuple(data["basis"][1])),
        t_witness=tuple(data["t_witness"]),
        tag=data["tag"],
    )


def _header_dict(max_length: int, seed: int) -> dict:
    return {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION, "max_length": max_length, "seed": seed}


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def render_json(entries: list[CatalogEntry], max_length: int, seed: int) -> str:
    lines = [_dump(_header_dict(max_length, seed))]
    lines.extend(_dump(entry_to_dict(e)) for e in entries)
    return "\n".join(lines) + "\n"


def render_csv(entries: list[CatalogEntry]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for e in entries:
        d = entry_to_dict(e)
        writer.writerow([d[c] for c in CSV_COLUMNS])
    return buf.getvalue()


def write_catalog(
    path: str,
    entries: list[CatalogEntry],
    max_length: int,
    seed: int = 1,
    fmt: str = "json",
) -> None:
    if fmt == "json":
        text = render_json(entries, max_length, seed)
    elif fmt == "csv":
        text = render_csv(entries)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def read_catalog_json(path: str) -> tuple[dict, list[CatalogEntry]]:
    header = None
    entries = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if header is None:
                header = record
            else:
                entries.append(entry_from_dict(record))
    return header or {}, entries


def _distance_problems(alpha: int, n: int, lower: int, upper: int, d: int, method: str) -> list[str]:
    """Recheck the distance columns: lower is the Euclidean bound, d = upper = min-L1."""
    lat = gb_lattice(alpha, n)
    euclid, l1 = ceil_sqrt(shortest_norm2(lat)), min_l1(lat).value
    problems = []
    if lower != euclid:
        problems.append(f"lower {lower} != recomputed Euclidean bound {euclid}")
    if not d == upper == l1:
        problems.append(f"d {d} and upper {upper} must equal the recomputed min-L1 {l1}")
    if method != "sandwich-closed":
        problems.append(f"method {method!r} != 'sandwich-closed'")
    return problems


def _root_problems(alpha: int, n: int) -> list[str]:
    """alpha must be the root class of -1 mod n with the largest min-L1, ties to the smaller."""
    roots = arithmetic.sqrt_minus_one_all(n) if n >= 1 and arithmetic.is_admissible(n) else []
    if not roots:
        return [f"n = {n} has no square root of -1 in [1, n - 1]"]
    best = max({min(a, n - a) for a in roots}, key=lambda a: (min_l1(gb_lattice(a, n)).value, -a))
    if alpha != best:
        return [f"alpha {alpha} is not the strongest root of -1 mod {n} (expected {best})"]
    return []


def _verify_entry(data: dict) -> list[str]:
    """Recompute one JSON record's invariants; returns human-readable problems."""
    n, alpha = data["n"], data["alpha"]
    problems = _root_problems(alpha, n)
    if problems:
        return problems
    roots = arithmetic.sqrt_minus_one_all(n)
    if data["alphas"] != roots:
        problems.append(f"alphas {data['alphas']} != the roots of -1 mod {n} {roots}")
    k = gbcode.dimension_formula(gbcode.canonical_spec(alpha, n))
    if k != data["k"]:
        problems.append(f"k mismatch: stored {data['k']}, formula {k}")
    if data["length"] != 2 * n:
        problems.append(f"length {data['length']} != 2n")
    lat = gb_lattice(alpha, n)
    if shortest_norm2(lat) != data["lambda2"]:
        problems.append("lambda2 does not match the recomputed lattice minimum")
    if min_l1(lat).value != data["min_l1"]:
        problems.append("min_l1 does not match the recomputed lattice minimum")
    d, upper = data["d"], data["upper"]
    problems.extend(_distance_problems(alpha, n, data["lower"], upper, d, data["method"]))
    if data["exact"] != d:
        problems.append(f"exact {data['exact']} != d {d}")
    if d < ceil_sqrt(n):
        problems.append(f"d {d} below ceil(sqrt(n)) = {ceil_sqrt(n)}")
    cert = data["certificate"]
    if cert != sorted(cert) or (cert and not 0 <= cert[0] <= cert[-1] < 2 * n):
        problems.append("certificate indices not sorted within [0, 2n)")
    elif len(set(cert)) != len(cert):
        problems.append("certificate has repeated indices")
    else:
        vec = EdgeVector.from_support(n, cert)
        if vec.weight != upper:
            problems.append(f"certificate weight {vec.weight} != upper bound {upper}")
        if not TorusGraph(n, alpha).is_logical(vec.bits):
            problems.append("certificate is not a logical operator")
    return problems


def verify_catalog(path: str) -> tuple[int, list[str]]:
    """Recheck every record of a written catalog.

    Returns (record count, problems); each problem names its line.  Every
    record's root choice and distance columns are checked against recomputed
    roots of -1 and min-L1; JSON catalogs also get the root list, k by the gcd
    formula and the certificate by its boundary and a dual-logical parity on
    the torus graph.
    """
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return 0, [f"byte {exc.start}: not UTF-8 text ({exc.reason})"]
    problems = []
    count = 0
    with io.StringIO(text, newline=None) as f:
        first = f.readline()
        f.seek(0)
        if first.lstrip().startswith("{"):
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    problems.append(f"line {lineno}: corrupt JSON ({exc.msg})")
                    continue
                if lineno == 1:
                    if (record.get("schema"), record.get("version")) != (SCHEMA_NAME, SCHEMA_VERSION):
                        problems.append(f"line 1: unexpected schema {record.get('schema')!r} "
                                        f"version {record.get('version')!r}")
                    continue
                count += 1
                try:
                    problems.extend(f"line {lineno}: {p}" for p in _verify_entry(record))
                except (KeyError, TypeError, ValueError) as exc:
                    problems.append(f"line {lineno}: malformed record ({exc})")
        else:
            reader = csv.reader(f)
            header = next(reader, None)
            if header != CSV_COLUMNS:
                problems.append(f"line 1: unexpected CSV columns {header}")
                return 0, problems
            for fields in reader:
                if not fields:
                    continue
                lineno = reader.line_num
                count += 1
                if len(fields) != len(CSV_COLUMNS):
                    problems.append(f"line {lineno}: expected {len(CSV_COLUMNS)} fields, got {len(fields)}")
                    continue
                row = dict(zip(CSV_COLUMNS, fields))
                try:
                    n, alpha = int(row["n"]), int(row["alpha"])
                    length, k = int(row["length"]), int(row["k"])
                    lower, upper, d = int(row["lower"]), int(row["upper"]), int(row["d"])
                except ValueError:
                    problems.append(f"line {lineno}: non-integer numeric field")
                    continue
                root_problems = _root_problems(alpha, n)
                if root_problems:
                    problems.extend(f"line {lineno}: {p}" for p in root_problems)
                    continue
                if length != 2 * n:
                    problems.append(f"line {lineno}: length {length} != 2n")
                if k != gbcode.dimension_formula(gbcode.canonical_spec(alpha, n)):
                    problems.append(f"line {lineno}: k mismatch")
                problems.extend(f"line {lineno}: {p}"
                                for p in _distance_problems(alpha, n, lower, upper, d, row["method"]))
                if shortest_norm2(gb_lattice(alpha, n)) < n and alpha * alpha % n == (n - 1) % n:
                    problems.append(f"line {lineno}: lattice minimum below n for a root of -1")
    return count, problems
