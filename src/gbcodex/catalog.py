"""Catalog sweep over admissible lengths, persistence, and re-verification.

Every record is fixed by its length n.  One scan for the representations
n = a^2 + b^2 (``arithmetic.root_classes``) gives every root of -1 mod n and
each root class's min-L1 a + b; the largest a + b names the record's alpha
(``strongest_root``).  ``lattice_fields(alpha, n, alphas)`` derives every
stored field but the certificate, which comes from one ``determine`` call;
k is the closed form ``distance.CANONICAL_K``.  The sweep returns one record
(a dict) per admissible n with 2n <= max_length.  Records serialize to
newline-delimited JSON or to a flat CSV export, with exact integers only;
the JSON header records max_length and a seed, which is only a label.
``verify`` derives every record of either format the same way and compares
it field by field, with no dense algebra (see ``verify_catalog``).
"""

from __future__ import annotations

import csv
import io
import json
import math

from . import arithmetic
from .distance import CANONICAL_K, determine, lattice_lower_bound
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


def _roots(n: int) -> tuple[list[int], int | None]:
    """Every root of -1 in [1, n - 1] and the strongest class, from one scan; ([], None) if none."""
    try:
        classes = arithmetic.root_classes(n)
    except ValueError:
        classes = []
    best = max(classes, key=lambda c: c[1])[0] if classes else None
    return sorted({r for c, _ in classes for r in (c, n - c)}), best


def strongest_root(n: int) -> int | None:
    """The root class of -1 mod n with the largest min-L1, named by its smaller member.

    Each class is one representation n = a^2 + b^2, of min-L1 a + b, so no
    two tie.  None when n has no square root of -1 in [1, n - 1].
    """
    return _roots(n)[1]


def lattice_fields(alpha: int, n: int, alphas: list[int]) -> dict:
    """Every catalog field that (alpha, n) fixes, which is all but the certificate.

    ``alphas`` is every root of -1 mod n, which the caller has already found
    to pick alpha.  Values are in their JSON form.  Only the lattice is
    computed: k is ``CANONICAL_K``, d = upper = exact = min-L1 by the
    argument in ``distance.determine``, and lower is the Euclidean bound.
    ``hypothesis_met`` (n >= 6) only records the paper's stated hypothesis.
    """
    lat = gb_lattice(alpha, n)
    reduced, l1 = gauss_reduce(lat), min_l1(lat)
    return {
        "n": n,
        "alpha": alpha,
        "alphas": list(alphas),
        "length": 2 * n,
        "k": CANONICAL_K,
        "d": l1.value,
        "lower": lattice_lower_bound(alpha, n),
        "hypothesis_met": n >= 6,
        "upper": l1.value,
        "exact": l1.value,
        "method": "sandwich-closed",
        "lambda2": shortest_norm2(lat),
        "min_l1": l1.value,
        "basis": [list(reduced.b1), list(reduced.b2)],
        "t_witness": list(l1.witness),
        "tag": classify_family(alpha, n),
    }


def analyze_length(n: int) -> dict | None:
    """n's record, from one root scan and one ``determine`` call; None when n has no root."""
    roots, alpha = _roots(n)
    if alpha is None:
        return None
    return {**lattice_fields(alpha, n, roots), "certificate": list(determine(alpha, n).certificate)}


def sweep_catalog(max_length: int) -> list[dict]:
    """The record of every admissible n with 2n <= max_length, sorted by (d, length, alpha)."""
    results = (analyze_length(n) for n in range(1, max_length // 2 + 1))
    return sorted((r for r in results if r is not None), key=lambda r: (r["d"], r["length"], r["alpha"]))


def _header_dict(max_length: int, seed: int) -> dict:
    return {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION, "max_length": max_length, "seed": seed}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def render_json(records: list[dict], max_length: int, seed: int) -> str:
    lines = [_dump(_header_dict(max_length, seed))]
    lines.extend(_dump(r) for r in records)
    return "\n".join(lines) + "\n"


def render_csv(records: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow([r[c] for c in CSV_COLUMNS])
    return buf.getvalue()


def write_catalog(path: str, records: list[dict], max_length: int, seed: int = 1, fmt: str = "json") -> None:
    if fmt == "json":
        text = render_json(records, max_length, seed)
    elif fmt == "csv":
        text = render_csv(records)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def _certificate_problems(cert: list, alpha: int, n: int, d: int) -> list[str]:
    """d distinct integer edges, sorted within [0, 2n), that form a logical operator."""
    if any(type(i) is not int for i in cert):
        return ["certificate indices are not all integers"]
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
    roots, best = _roots(n)
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
