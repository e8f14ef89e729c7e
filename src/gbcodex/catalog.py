"""Catalog sweep over admissible lengths, persistence, and re-verification.

Every record is fixed by its length n.  The roots of -1 mod n are sought
once per n; the root class with the largest min-L1 (ties to the smaller
alpha) is the record's alpha (``strongest_root``), and
``lattice_fields(alpha, n, alphas)`` derives every stored field but the
certificate from the lattice and those roots; k is the closed form
``distance.CANONICAL_K``.  The sweep visits every admissible n with
2n <= max_length and calls ``determine`` once, on that root, for the
certificate; its reports carry the roots to the writer.  Reports serialize
to newline-delimited JSON (full records) or to a flat CSV export; every
numeric field is an exact integer.  The JSON header records max_length and
a seed, which is only a label: nothing in the sweep depends on it.
``verify`` runs the same two functions on every record of either format and
compares each stored field with the recomputed one.  It rejects a second
row for the same n and, for JSON, a row beyond the header's max_length,
reports the first admissible n within it that has no JSON row, and checks
each certificate on the torus graph (zero boundary, odd overlap with a dual
logical), with no dense algebra.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import replace

from . import arithmetic
from .distance import CANONICAL_K, DistanceReport, determine, lattice_lower_bound
from .lattice import gauss_reduce, gb_lattice, min_l1, shortest_norm2
from .torus_graph import TorusGraph

SCHEMA_NAME = "gb-catalog"
SCHEMA_VERSION = 2

TAG_KITAEV = "kitaev"
TAG_OPTIMIZED = "optimized-kitaev"
TAG_NEW = "new"

CSV_COLUMNS = ["length", "k", "d", "n", "alpha", "lower", "upper", "method"]


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


def _roots(n: int) -> list[int]:
    """Every root of -1 in [1, n - 1]; empty when there is none."""
    try:
        return arithmetic.sqrt_minus_one_all(n)
    except ValueError:
        return []


def _strongest(roots: list[int], n: int) -> int | None:
    classes = {min(a, n - a) for a in roots}
    return max(classes, key=lambda a: (min_l1(gb_lattice(a, n)).value, -a), default=None)


def strongest_root(n: int) -> int | None:
    """The root class of -1 mod n with the largest min-L1, ties to the smaller alpha.

    A class is a mirror pair {a, n - a}, named by its smaller member; its two
    lattices are mirror images, so they share min-L1.  None when n has no
    square root of -1 in [1, n - 1].
    """
    return _strongest(_roots(n), n)


def lattice_fields(alpha: int, n: int, alphas: list[int]) -> dict:
    """Every catalog field that (alpha, n) fixes, which is all but the certificate.

    ``alphas`` is every root of -1 mod n, which the caller has already found
    to pick alpha.  Values are in their JSON form.  Only the lattice is
    computed: k is ``CANONICAL_K``, d = upper = exact = min-L1 by the
    argument in ``determine``, and lower is the Euclidean bound.
    """
    lat = gb_lattice(alpha, n)
    reduced, l1 = gauss_reduce(lat), min_l1(lat)
    lower = lattice_lower_bound(alpha, n)
    return {
        "n": n,
        "alpha": alpha,
        "alphas": list(alphas),
        "length": 2 * n,
        "k": CANONICAL_K,
        "d": l1.value,
        "lower": lower.bound,
        "hypothesis_met": lower.hypothesis_met,
        "upper": l1.value,
        "exact": l1.value,
        "method": "sandwich-closed",
        "lambda2": shortest_norm2(lat),
        "min_l1": l1.value,
        "basis": [list(reduced.b1), list(reduced.b2)],
        "t_witness": list(l1.witness),
        "tag": classify_family(alpha, n),
    }


def analyze_length(n: int) -> DistanceReport | None:
    """The report of n's strongest root, carrying n's roots, or None when no root exists."""
    roots = _roots(n)
    alpha = _strongest(roots, n)
    return None if alpha is None else replace(determine(alpha, n), alphas=tuple(roots))


def sweep_catalog(max_length: int) -> list[DistanceReport]:
    """All best-per-n reports with 2n <= max_length, sorted by (d, length, alpha)."""
    results = (analyze_length(n) for n in range(1, max_length // 2 + 1))
    return sorted((r for r in results if r is not None), key=lambda r: (r.exact, r.length, r.alpha))


def entry_to_dict(report: DistanceReport) -> dict:
    """The catalog record of a report; n's roots are sought only if the report lacks them."""
    alphas = report.alphas if report.alphas is not None else arithmetic.sqrt_minus_one_all(report.n)
    return {**lattice_fields(report.alpha, report.n, alphas), "certificate": list(report.certificate)}


def _header_dict(max_length: int, seed: int) -> dict:
    return {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION, "max_length": max_length, "seed": seed}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def render_json(reports: list[DistanceReport], max_length: int, seed: int) -> str:
    lines = [_dump(_header_dict(max_length, seed))]
    lines.extend(_dump(entry_to_dict(r)) for r in reports)
    return "\n".join(lines) + "\n"


def render_csv(reports: list[DistanceReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        d = entry_to_dict(r)
        writer.writerow([d[c] for c in CSV_COLUMNS])
    return buf.getvalue()


def write_catalog(path: str, reports: list[DistanceReport], max_length: int, seed: int = 1, fmt: str = "json") -> None:
    if fmt == "json":
        text = render_json(reports, max_length, seed)
    elif fmt == "csv":
        text = render_csv(reports)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def _certificate_problems(cert: list, alpha: int, n: int, d: int) -> list[str]:
    """d distinct edges, sorted within [0, 2n), that form a logical operator."""
    if cert != sorted(cert) or (cert and not 0 <= cert[0] <= cert[-1] < 2 * n):
        return ["certificate indices not sorted within [0, 2n)"]
    if len(set(cert)) != len(cert):
        return ["certificate has repeated indices"]
    problems = []
    if len(cert) != d:
        problems.append(f"certificate weight {len(cert)} != d {d}")
    if not TorusGraph(n, alpha).is_logical(sum(1 << i for i in cert)):
        problems.append("certificate is not a logical operator")
    return problems


def _row_problems(row: dict, keys: list[str] | None, render, seen: set[int], max_length: int | None) -> list[str]:
    """Compare one stored row with the record its n fixes.

    ``keys`` lists the stored columns (None for a full JSON record, which
    must hold every field and the certificate); ``render`` gives the stored
    text form of a value.  Duplicates and out-of-range lengths are rejected
    before the roots of -1 mod n are sought.
    """
    n, alpha = int(row["n"]), int(row["alpha"])
    if n in seen:
        return [f"duplicate row for n = {n}"]
    seen.add(n)
    if max_length is not None and 2 * n > max_length:
        return [f"length {2 * n} exceeds the header's max_length {max_length}"]
    roots = _roots(n)
    best = _strongest(roots, n)
    if best is None:
        return [f"n = {n} has no square root of -1 in [1, n - 1]"]
    if alpha != best:
        return [f"alpha {alpha} is not the strongest root of -1 mod {n} (expected {best})"]
    fields = lattice_fields(alpha, n, roots)
    keys = keys or [*fields, "certificate"]
    problems = [f"missing key {key}" for key in keys if key not in row]
    problems += [f"unexpected key {key}" for key in row if key not in keys]
    problems += [f"{key} {render(row[key])} != recomputed {render(value)}"
                 for key, value in fields.items() if key in row and render(row[key]) != render(value)]
    if "certificate" in row:
        problems += _certificate_problems(row["certificate"], alpha, n, fields["d"])
    return problems


def _header_problems(header: dict) -> list[str]:
    """The JSON header must hold exactly the written keys, with integer values."""
    if (header.get("schema"), header.get("version")) != (SCHEMA_NAME, SCHEMA_VERSION):
        return [f"unexpected schema {header.get('schema')!r} version {header.get('version')!r}"]
    keys = _header_dict(0, 0)
    problems = [f"missing key {key}" for key in keys if key not in header]
    problems += [f"unexpected key {key}" for key in header if key not in keys]
    if "max_length" in header and (type(header["max_length"]) is not int or header["max_length"] < 0):
        problems.append(f"max_length {header['max_length']!r} is not a nonnegative integer")
    if "seed" in header and type(header["seed"]) is not int:
        problems.append(f"seed {header['seed']!r} is not an integer")
    return problems


def verify_catalog(path: str) -> tuple[int, list[str]]:
    """Recheck every record of a written catalog.

    Returns (record count, problems); each problem names its line or the
    missing n.  Each record must be the only one for its n, lie within the
    JSON header's max_length, name the strongest root class, and match
    ``lattice_fields`` field by field.  A JSON header or record must hold
    exactly the written keys, a record's certificate must be a weight-d
    logical operator on the torus graph, and every admissible n within the
    header's max_length must have a row (the first gap is reported).
    """
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return 0, [f"byte {exc.start}: not UTF-8 text ({exc.reason})"]
    problems = []
    rows = []  # (line number, stored row, parse problem or None)
    max_length = None
    with io.StringIO(text, newline=None) as f:
        first = f.readline()
        f.seek(0)
        if first.lstrip().startswith("{"):
            keys, render = None, _dump
            for lineno, line in enumerate(f, start=1):
                if not line.strip():
                    continue
                record, problem = None, None
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    problem = f"corrupt JSON ({exc.msg})"
                if lineno > 1:
                    rows.append((lineno, record, problem))
                else:
                    header_problems = [problem] if problem else _header_problems(record)
                    problems.extend(f"line 1: {p}" for p in header_problems)
                    max_length = None if header_problems else record["max_length"]
        else:
            keys, render = CSV_COLUMNS, str
            reader = csv.reader(f)
            header = next(reader, None)
            if header != CSV_COLUMNS:
                return 0, [f"line 1: unexpected CSV columns {header}"]
            for fields in reader:
                if len(fields) == len(CSV_COLUMNS):
                    rows.append((reader.line_num, dict(zip(CSV_COLUMNS, fields)), None))
                elif fields:
                    rows.append((reader.line_num, None, f"expected {len(CSV_COLUMNS)} fields, got {len(fields)}"))
    seen: set[int] = set()
    for lineno, row, problem in rows:
        try:
            found = [problem] if problem else _row_problems(row, keys, render, seen, max_length)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            found = [f"malformed record ({exc})"]
        problems.extend(f"line {lineno}: {p}" for p in found)
    if max_length is not None:
        # stop at the first gap, so the scan never runs far past the stored rows
        gap = next((n for n in range(2, max_length // 2 + 1) if n not in seen and arithmetic.is_admissible(n)), None)
        if gap is not None:
            problems.append(f"missing row for n = {gap}")
    return len(rows), problems
